// AVX2 kernel backend (256-bit: eight floats or four doubles per
// vector).  Compiled with -mavx2 -mno-fma -ffp-contract=off: FMA
// contraction would change rounding and break the bit-identity
// contract, so multiplies and adds stay separate instructions.  The
// nine-tap sum runs eight float lanes over the zero-padded copy, with
// the shared scalar helper for the tail.  PPV counting builds each float
// convolution from the zero-padded 3·x copy in registers and counts
// each bias's exceedances directly with packed compares on 32-bit lane
// counters (exact integers, so the features stay bit-identical).
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

void nine_tap_sum_avx2(const float* x, long long n, long long d,
                       float* sum) {
  long long i = 0;
  for (; i + 8 <= n; i += 8) {
    // Ascending tap order starting from +0.0f, as in the scalar loop.
    __m256 s = _mm256_setzero_ps();
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i - 4 * d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i - 3 * d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i - 2 * d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i - d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i + d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i + 2 * d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i + 3 * d));
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + i + 4 * d));
    _mm256_storeu_ps(sum + i, s);
  }
  detail::nine_tap_padded(x, d, i, n, sum);
}

// Sums the eight 32-bit lanes of a packed counter.
inline std::size_t hsum_epi32(__m256i c) {
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), c);
  std::size_t sum = 0;
  for (const std::uint32_t lane : lanes) sum += lane;
  return sum;
}

// Fused convolution and exceedance counting: one pass builds eight
// float convolution outputs in a register from the padded copy and
// counts M consecutive biases at once, out[k] = #{i : conv[i] >
// float(bias[k])} * inv_n, so each convolution vector is shared by
// 8 * M element-bias compares.  _CMP_GT_OQ is false on NaN exactly like
// the scalar `>`, so the integer counts — and hence the emitted
// features — are bit-identical to the scalar table's.  A lane counts
// n / 8 elements at most, so 32-bit counters overflow only past 2^35
// elements, far beyond any series that fits in memory.
template <int M>
void count_pass(const PpvCombo& combo, const double* bias, double* out) {
  const long long n = combo.n;
  const float* const nsum = combo.nsum;
  const float* const xa = combo.x3 + combo.sa;
  const float* const xb = combo.x3 + combo.sb;
  const float* const xc = combo.x3 + combo.sc;
  // Unrolled early, so the arrays live in registers.
  __m256 b[M];
  __m256i c[M];
#pragma GCC unroll 6
  for (int k = 0; k < M; ++k) {
    b[k] = _mm256_set1_ps(static_cast<float>(bias[k]));
    c[k] = _mm256_setzero_si256();
  }
  // The last n % 8 elements first, so the broadcasts are dead after the
  // main loop; with the tail after it, GCC spills counters inside the
  // loop.  The padding covers the unmasked 3·x loads past the end; a
  // masked load reads 0.0f into the nine-tap sum's lanes past the end
  // without touching their memory, and the lane mask clears those
  // lanes' compare results.
  const long long full = n & ~7LL;
  if (full < n) {
    const __m256i lanes =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - full)),
                           _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0));
    __m256 v = _mm256_maskload_ps(nsum + full, lanes);
    v = _mm256_add_ps(v, _mm256_loadu_ps(xa + full));
    v = _mm256_add_ps(v, _mm256_loadu_ps(xb + full));
    v = _mm256_add_ps(v, _mm256_loadu_ps(xc + full));
#pragma GCC unroll 6
    for (int k = 0; k < M; ++k) {
      c[k] = _mm256_sub_epi32(
          c[k], _mm256_and_si256(lanes, _mm256_castps_si256(_mm256_cmp_ps(
                                              v, b[k], _CMP_GT_OQ))));
    }
  }
  for (long long i = 0; i < full; i += 8) {
    // The oracle's addition order: -sum9, then the taps ascending.
    __m256 v = _mm256_loadu_ps(nsum + i);
    v = _mm256_add_ps(v, _mm256_loadu_ps(xa + i));
    v = _mm256_add_ps(v, _mm256_loadu_ps(xb + i));
    v = _mm256_add_ps(v, _mm256_loadu_ps(xc + i));
#pragma GCC unroll 6
    for (int k = 0; k < M; ++k) {
      // A true compare is all-ones (-1): subtracting the mask counts.
      c[k] = _mm256_sub_epi32(
          c[k], _mm256_castps_si256(_mm256_cmp_ps(v, b[k], _CMP_GT_OQ)));
    }
  }
#pragma GCC unroll 6
  for (int k = 0; k < M; ++k) {
    out[k] = static_cast<double>(hsum_epi32(c[k])) * combo.inv_n;
  }
}

// Widest pass: six broadcast and six counter registers, plus the
// convolution and the compare result, fit the sixteen ymm registers.
constexpr std::size_t kMaxPassWidth = 6;
using CountPassFn = void (*)(const PpvCombo&, const double*, double*);
constexpr CountPassFn kCountPass[kMaxPassWidth] = {
    &count_pass<1>, &count_pass<2>, &count_pass<3>,
    &count_pass<4>, &count_pass<5>, &count_pass<6>,
};

// One pass per group of up to six biases, each recomputing the three
// adds, so the default model's five biases per combo cost a single pass
// over the series.
void ppv_count_avx2(const PpvCombo& c, float* /*conv*/, double* out) {
  for (std::size_t t = 0; t < c.bpc; t += kMaxPassWidth) {
    const std::size_t m = std::min(c.bpc - t, kMaxPassWidth);
    kCountPass[m - 1](c, c.bias + t, out + t);
  }
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  // One accumulator vector whose lanes are the four stripes; the final
  // (acc0 + acc1) + (acc2 + acc3) combine matches the scalar contract.
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                           _mm256_loadu_pd(b + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

// 2x4 register tile: each ymm holds one entry's four stripes, so eight
// accumulators, four b rows and one a row fit the sixteen registers.
constexpr std::size_t kGramRows = 2, kGramCols = 4;

void gram_micro_avx2(const double* const* a, const double* const* b,
                     std::size_t k0, std::size_t k1, double* acc) {
  __m256d s[kGramRows][kGramCols];
  for (std::size_t r = 0; r < kGramRows; ++r) {
    for (std::size_t c = 0; c < kGramCols; ++c) {
      s[r][c] = _mm256_loadu_pd(acc + (r * kGramCols + c) * 4);
    }
  }
  for (std::size_t k = k0; k < k1; k += 4) {
    __m256d bv[kGramCols];
    for (std::size_t c = 0; c < kGramCols; ++c) {
      bv[c] = _mm256_loadu_pd(b[c] + k);
    }
    for (std::size_t r = 0; r < kGramRows; ++r) {
      const __m256d av = _mm256_loadu_pd(a[r] + k);
      for (std::size_t c = 0; c < kGramCols; ++c) {
        s[r][c] = _mm256_add_pd(s[r][c], _mm256_mul_pd(av, bv[c]));
      }
    }
  }
  for (std::size_t r = 0; r < kGramRows; ++r) {
    for (std::size_t c = 0; c < kGramCols; ++c) {
      _mm256_storeu_pd(acc + (r * kGramCols + c) * 4, s[r][c]);
    }
  }
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, yv);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace

const KernelTable& avx2_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kAvx2,
      "avx2",
      &nine_tap_sum_avx2,
      &ppv_count_avx2,
      &dot_avx2,
      &axpy_avx2,
      &detail::gram_block<kGramRows, kGramCols, &gram_micro_avx2>,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
