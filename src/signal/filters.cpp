#include "signal/filters.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace p2auth::signal {

namespace {

// Clamped (edge-replicating) index into a series of length n.
std::size_t clamp_index(long long i, std::size_t n) noexcept {
  if (i < 0) return 0;
  if (i >= static_cast<long long>(n)) return n - 1;
  return static_cast<std::size_t>(i);
}

void check_odd_window(std::size_t window, const char* who) {
  if (window == 0 || window % 2 == 0) {
    throw std::invalid_argument(std::string(who) + ": window must be odd");
  }
}

// Median of five by a seven-compare-swap selection network, median in
// slot 2: sort(0,1) sort(3,4) sort(0,3) sort(1,4) sort(1,2) sort(2,3)
// sort(1,2).  Each swap keeps only the outputs a later swap reads.  It
// selects the same value as any exact selection, but of -0.0 and +0.0,
// which compare equal, it may return the other one than nth_element.
double median5(const double* w) noexcept {
  const double p0 = std::min(w[0], w[1]), p1 = std::max(w[0], w[1]);
  const double p3 = std::min(w[3], w[4]), p4 = std::max(w[3], w[4]);
  const double q3 = std::max(p0, p3);  // sort(0,3): the min is never read
  const double q1 = std::min(p1, p4);  // sort(1,4): the max is never read
  const double r1 = std::min(q1, w[2]), r2 = std::max(q1, w[2]);
  return std::max(r1, std::min(r2, q3));  // sort(2,3), then sort(1,2)
}

}  // namespace

Series median_filter(std::span<const double> x, std::size_t window) {
  check_odd_window(window, "median_filter");
  if (x.empty()) return {};
  const std::size_t n = x.size();
  const long long half = static_cast<long long>(window / 2);
  Series out(n);
  Series buf(window);
  // The general path: copy the clamped window, select its middle.
  const auto window_median = [&](std::size_t i) {
    for (long long k = -half; k <= half; ++k) {
      buf[static_cast<std::size_t>(k + half)] =
          x[clamp_index(static_cast<long long>(i) + k, n)];
    }
    auto mid = buf.begin() + half;
    std::nth_element(buf.begin(), mid, buf.end());
    return *mid;
  };
  // NaN compares false both ways, so the network and nth_element may
  // pick different samples around it: a series holding one keeps the
  // general path throughout.
  const bool has_nan =
      std::any_of(x.begin(), x.end(), [](double v) { return std::isnan(v); });
  if (window != 5 || has_nan) {
    for (std::size_t i = 0; i < n; ++i) out[i] = window_median(i);
    return out;
  }
  // Window 5: the network over an edge-replicated copy, then the general
  // path for every zero median, the only value whose bits (-0.0 or
  // +0.0) depend on the selection order.
  Series padded(n + 4);
  for (std::size_t j = 0; j < n + 4; ++j) {
    padded[j] = x[clamp_index(static_cast<long long>(j) - 2, n)];
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = median5(&padded[i]);
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i] == 0.0) out[i] = window_median(i);
  }
  return out;
}

Series moving_average(std::span<const double> x, std::size_t window) {
  check_odd_window(window, "moving_average");
  if (x.empty()) return {};
  const std::size_t n = x.size();
  const long long half = static_cast<long long>(window / 2);
  Series out(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (long long k = -half; k <= half; ++k) {
      s += x[clamp_index(static_cast<long long>(i) + k, n)];
    }
    out[i] = s / static_cast<double>(window);
  }
  return out;
}

Series savitzky_golay_coefficients(std::size_t window, int polyorder) {
  check_odd_window(window, "savitzky_golay");
  if (polyorder < 0 || static_cast<std::size_t>(polyorder) >= window) {
    throw std::invalid_argument("savitzky_golay: polyorder out of range");
  }
  const long long half = static_cast<long long>(window / 2);
  const std::size_t terms = static_cast<std::size_t>(polyorder) + 1;
  // Vandermonde A (window x terms): A[r][j] = t^j for t in [-half, half].
  linalg::Matrix a(window, terms);
  for (std::size_t r = 0; r < window; ++r) {
    const double t = static_cast<double>(static_cast<long long>(r) - half);
    double pw = 1.0;
    for (std::size_t j = 0; j < terms; ++j) {
      a(r, j) = pw;
      pw *= t;
    }
  }
  // The smoothing coefficient vector is the first row of (A^T A)^{-1} A^T:
  // solve (A^T A) c = e_0, then coefficients = A c.
  linalg::Matrix ata = a.gram_cols();
  linalg::Vector e0(terms, 0.0);
  e0[0] = 1.0;
  const linalg::Vector c = linalg::solve_spd(ata, e0);
  return a.multiply(c);
}

Series savitzky_golay(std::span<const double> x, std::size_t window,
                      int polyorder) {
  if (x.empty()) return {};
  const Series coeff = savitzky_golay_coefficients(window, polyorder);
  const std::size_t n = x.size();
  const long long half = static_cast<long long>(window / 2);
  Series out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (long long k = -half; k <= half; ++k) {
      s += coeff[static_cast<std::size_t>(k + half)] *
           x[clamp_index(static_cast<long long>(i) + k, n)];
    }
    out[i] = s;
  }
  return out;
}

Series remove_mean(std::span<const double> x) {
  Series out(x.begin(), x.end());
  if (out.empty()) return out;
  double m = 0.0;
  for (const double v : out) m += v;
  m /= static_cast<double>(out.size());
  for (double& v : out) v -= m;
  return out;
}

}  // namespace p2auth::signal
