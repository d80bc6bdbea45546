// Scalar kernel backend: the always-compiled portable fallback and the
// bit-identity reference every SIMD table is differentially tested
// against.  The nine-tap sum reads the zero-padded float copy with no
// edge path; PPV counting writes the padded float convolution and runs
// a cmov binary search per element over the float biases; Gram blocks
// run a 2x2 register tile.  This TU is built -O3 like the old
// minirocket.cpp so the branch-free loops auto-vectorize.  It also holds
// kernel_conv, the exact convolution that fit and max pooling call
// directly.
#include <algorithm>
#include <array>
#include <utility>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

void nine_tap_sum_scalar(const float* x, long long n, long long d,
                         float* sum) {
  detail::nine_tap_padded(x, d, 0, n, sum);
}

// One compile-time-width binary search per element (the fixed trip
// count makes GCC lower every step to a conditional move; a
// runtime-width loop is ~5x slower), a histogram over the per-element
// ranks, and a suffix fold into exceedance counts.  Counts are integers,
// so features match any other evaluation order bit-for-bit — including
// NaN (compares below every bias, lands in bucket 0) and +/-inf.
template <int kSteps>
std::size_t ppv_search(const float* pad_bias, float v) noexcept {
  std::size_t j = 0;
  for (int s = kSteps - 1; s >= 0; --s) {
    const std::size_t w = std::size_t{1} << s;
    j += (pad_bias[j + w - 1] < v) ? w : 0;
  }
  return j;  // +inf sentinels never compare < v, so j <= bpc always
}

template <int kSteps>
void ppv_search_count(const float* conv, const PpvCombo& c,
                      std::size_t* hist) {
  const long long n = c.n;
  const float* const pad_bias = c.pad_bias;
  std::fill(hist, hist + c.bpc + 1, std::size_t{0});
  for (long long i = 0; i < n; ++i) {
    ++hist[ppv_search<kSteps>(pad_bias, conv[i])];
  }
}

// steps -> specialized search.  Index 0 is unused (bpc >= 1 forces at
// least one step).
using SearchCountFn = void (*)(const float*, const PpvCombo&, std::size_t*);

template <std::size_t... kSteps>
constexpr std::array<SearchCountFn, sizeof...(kSteps)> make_search_table(
    std::index_sequence<kSteps...>) {
  return {(kSteps == 0 ? nullptr
                       : &ppv_search_count<kSteps == 0 ? 1 : kSteps>)...};
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

void scalar_ppv_count(const PpvCombo& c, std::size_t* hist, float* conv,
                      double* out) {
  // The padded convolution in one branch-free pass; fusing it into the
  // search loop measured slower.
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
  static constexpr auto kSearch =
      make_search_table(std::make_index_sequence<kMaxPpvSearchSteps + 1>{});
  kSearch[c.steps](conv, c, hist);
  // Suffix fold: the count for sorted bias t is #elements with rank > t.
  std::size_t count_above = 0;
  std::size_t carry = hist[c.bpc];
  for (std::size_t t = c.bpc; t-- > 0;) {
    count_above += carry;
    carry = hist[t];
    hist[t] = count_above;
  }
  for (std::size_t q = 0; q < c.bpc; ++q) {
    out[q] = static_cast<double>(hist[c.rank[q]]) * c.inv_n;
  }
}

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
      &scalar_ppv_count,
      &dot_scalar,
      &axpy_scalar,
      &detail::gram_block<kGramRows, kGramCols, &gram_micro_scalar>,
  };
  return kTable;
}

}  // namespace p2auth::backend
