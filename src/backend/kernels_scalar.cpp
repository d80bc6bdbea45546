// Scalar kernel backend: the always-compiled portable fallback and the
// bit-identity reference every SIMD table is differentially tested
// against.  The nine-tap sum reads the zero-padded float copy with no
// edge path; PPV counting writes the padded float convolution and then
// counts four biases per pass over it; Gram blocks run a 2x2 register
// tile.  This TU is built -O3 like the old minirocket.cpp so the
// branch-free loops auto-vectorize.  It also holds kernel_conv, the
// exact convolution that fit and max pooling call directly.
#include <algorithm>
#include <cstdint>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

void nine_tap_sum_scalar(const float* x, long long n, long long d,
                         float* sum) {
  detail::nine_tap_padded(x, d, 0, n, sum);
}

// Exceedance counts of M biases in one pass over the convolution:
// out[k] = #{i : conv[i] > float(bias[k])} * inv_n.  The M counters are
// independent integer sums, so GCC vectorizes the pass into packed
// compares; the counts are exact, so the lane order cannot change them.
// Four biases per pass share each load: one per pass ran
// bench_primitives' 30-bias shape slower than a per-element binary
// search over sorted biases.  `>` is false on NaN, as in every table.
// A 32-bit counter overflows only past 2^32 elements (a 32 GiB series
// of doubles).
template <int M>
void count_pass(const float* conv, long long n, const double* bias,
                double inv_n, double* out) {
  float b[M];
  std::uint32_t count[M] = {};
  for (int k = 0; k < M; ++k) b[k] = static_cast<float>(bias[k]);
  for (long long i = 0; i < n; ++i) {
    const float v = conv[i];
    for (int k = 0; k < M; ++k) count[k] += v > b[k] ? 1u : 0u;
  }
  for (int k = 0; k < M; ++k) out[k] = static_cast<double>(count[k]) * inv_n;
}

constexpr std::size_t kMaxPassWidth = 4;
using CountPassFn = void (*)(const float*, long long, const double*, double,
                             double*);
constexpr CountPassFn kCountPass[kMaxPassWidth] = {
    &count_pass<1>, &count_pass<2>, &count_pass<3>, &count_pass<4>};

void ppv_count_scalar(const PpvCombo& c, float* conv, double* out) {
  // The padded convolution in one branch-free pass, stored once for
  // every counting pass to read.
  const long long n = c.n;
  const float* const nsum = c.nsum;
  const float* const xa = c.x3 + c.sa;
  const float* const xb = c.x3 + c.sb;
  const float* const xc = c.x3 + c.sc;
  for (long long i = 0; i < n; ++i) {
    float v = nsum[i];
    v += xa[i];
    v += xb[i];
    v += xc[i];
    conv[i] = v;
  }
  for (std::size_t t = 0; t < c.bpc; t += kMaxPassWidth) {
    const std::size_t m = std::min(c.bpc - t, kMaxPassWidth);
    kCountPass[m - 1](conv, n, c.bias + t, c.inv_n, out + t);
  }
}

double dot_scalar(const double* a, const double* b, std::size_t n) {
  return detail::striped_dot(a, b, n);
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  detail::scalar_axpy(alpha, x, y, n);
}

// 2x2 register tile: sixteen independent stripe accumulators, so the
// compiler may vectorize across them without reordering any one
// entry's sum.
constexpr std::size_t kGramRows = 2, kGramCols = 2;

void gram_micro_scalar(const double* const* a, const double* const* b,
                       std::size_t k0, std::size_t k1, double* acc) {
  constexpr std::size_t kStripes = kGramRows * kGramCols * 4;
  double s[kStripes];
  std::copy(acc, acc + kStripes, s);
  for (std::size_t k = k0; k < k1; k += 4) {
    for (std::size_t r = 0; r < kGramRows; ++r) {
      for (std::size_t c = 0; c < kGramCols; ++c) {
        double* const e = s + (r * kGramCols + c) * 4;
        for (std::size_t l = 0; l < 4; ++l) e[l] += a[r][k + l] * b[c][k + l];
      }
    }
  }
  std::copy(s, s + kStripes, acc);
}

}  // namespace

void kernel_conv(const float* x3, long long n, const float* sum9, int k0,
                 int k1, int k2, long long d, float* conv) {
  const long long shift[3] = {static_cast<long long>(k0 - 4) * d,
                              static_cast<long long>(k1 - 4) * d,
                              static_cast<long long>(k2 - 4) * d};
  // Elements whose three taps are all in range; shifts ascend, so the
  // lowest bounds the left edge and the highest the right one.
  const long long lo = std::min(n, std::max(0LL, -shift[0]));
  const long long hi = std::max(lo, std::min(n, n - shift[2]));
  auto edge = [&](long long i) {
    float v = -sum9[i];
    for (const long long s : shift) {
      if (i + s >= 0 && i + s < n) v += x3[i + s];
    }
    conv[i] = v;
  };
  for (long long i = 0; i < lo; ++i) edge(i);
  for (long long i = lo; i < hi; ++i) {
    float v = -sum9[i];
    v += x3[i + shift[0]];
    v += x3[i + shift[1]];
    v += x3[i + shift[2]];
    conv[i] = v;
  }
  for (long long i = hi; i < n; ++i) edge(i);
}

const KernelTable& scalar_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kScalar,
      "scalar",
      &nine_tap_sum_scalar,
      &ppv_count_scalar,
      &dot_scalar,
      &axpy_scalar,
      &detail::gram_block<kGramRows, kGramCols, &gram_micro_scalar>,
  };
  return kTable;
}

}  // namespace p2auth::backend
