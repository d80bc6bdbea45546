// AVX2 kernel backend (256-bit, four doubles per vector).  Compiled
// with -mavx2 -mno-fma -ffp-contract=off: FMA contraction would change
// rounding and break the bit-identity contract, so multiplies and adds
// stay separate instructions.  Convolution edges and vector tails run
// the shared scalar helpers; interiors run four lanes wide in the scalar
// per-element operation order.  PPV pooling counts threshold
// exceedances directly with packed compares (exact integers, so the
// features stay bit-identical); gathers are deliberately avoided — a
// vectorized binary search needs one gather per step and measures
// slower than the scalar cmov search on every x86 core we tried.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

void nine_tap_sum_avx2(const double* x, long long n, long long d,
                       double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  for (long long i = 0; i < lo; ++i) detail::nine_tap_edge(x, n, d, i, sum);
  long long i = lo;
  for (; i + 4 <= hi; i += 4) {
    // Ascending tap order starting from 0.0, as in the scalar interior.
    __m256d s = _mm256_setzero_pd();
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - 4 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - 3 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - 2 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + 2 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + 3 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + 4 * d));
    _mm256_storeu_pd(sum + i, s);
  }
  detail::nine_tap_interior(x, d, i, hi, sum);
  for (i = hi; i < n; ++i) detail::nine_tap_edge(x, n, d, i, sum);
}

void kernel_conv_avx2(const double* x, long long n, const double* sum9,
                      int k0, int k1, int k2, long long d, double* conv) {
  const long long sa = static_cast<long long>(k0 - 4) * d;
  const long long sb = static_cast<long long>(k1 - 4) * d;
  const long long sc = static_cast<long long>(k2 - 4) * d;
  const auto [lo, hi] = detail::conv_partition(n, sa, sc);
  for (long long i = 0; i < lo; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  long long i = lo;
  for (; i + 4 <= hi; i += 4) {
    // -sum9[i] as a sign flip (bit-exact negation), then the three
    // multiply-add pairs in ascending shift order.
    __m256d v = _mm256_xor_pd(_mm256_loadu_pd(sum9 + i), sign);
    v = _mm256_add_pd(v, _mm256_mul_pd(three, _mm256_loadu_pd(x + i + sa)));
    v = _mm256_add_pd(v, _mm256_mul_pd(three, _mm256_loadu_pd(x + i + sb)));
    v = _mm256_add_pd(v, _mm256_mul_pd(three, _mm256_loadu_pd(x + i + sc)));
    _mm256_storeu_pd(conv + i, v);
  }
  detail::conv_interior(x, sum9, sa, sb, sc, i, hi, conv);
  for (i = hi; i < n; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
}

// Sums the four 64-bit lanes of a packed counter.
inline std::size_t hsum_epi64(__m256i c) {
  alignas(32) long long lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), c);
  return static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

// Direct exceedance counting: one pass counts M consecutive sorted
// thresholds at once, hist[k] = #{i : conv[i] > bias[k]}, four elements
// per compare, so each conv load is shared by 4 * M element-threshold
// compares.  _CMP_GT_OQ is false on NaN exactly like the scalar `>`, so
// the integer counts — and hence the emitted features — are
// bit-identical to the scalar search-plus-fold path.  O(n * bpc / 4)
// fully pipelined ops beat the scalar O(n log bpc) cmov search at the
// realistic bias counts (tens per combo); for degenerate huge bpc the
// asymptotics flip and the scalar path takes over (ppv_pool_avx2).
template <int M>
void count_pass(const double* conv, long long n, const double* bias,
                std::size_t* hist) {
  // Unrolled early, so the arrays live in registers.
  __m256d b[M];
  __m256i c[M];
#pragma GCC unroll 6
  for (int k = 0; k < M; ++k) {
    b[k] = _mm256_set1_pd(bias[k]);
    c[k] = _mm256_setzero_si256();
  }
  // The last n % 4 elements first, so the broadcasts are dead after the
  // main loop; with the tail after it, GCC spills counters inside the
  // loop.  A masked load reads 0.0 into the lanes past the end without
  // touching their memory, and the lane mask clears those lanes'
  // compare results.
  const long long full = n & ~3LL;
  if (full < n) {
    const __m256i lanes = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n - full),
                                             _mm256_set_epi64x(3, 2, 1, 0));
    const __m256d v = _mm256_maskload_pd(conv + full, lanes);
#pragma GCC unroll 6
    for (int k = 0; k < M; ++k) {
      c[k] = _mm256_sub_epi64(
          c[k], _mm256_and_si256(lanes, _mm256_castpd_si256(_mm256_cmp_pd(
                                            v, b[k], _CMP_GT_OQ))));
    }
  }
  for (long long i = 0; i < full; i += 4) {
    const __m256d v = _mm256_loadu_pd(conv + i);
#pragma GCC unroll 6
    for (int k = 0; k < M; ++k) {
      // A true compare is all-ones (-1): subtracting the mask counts.
      c[k] = _mm256_sub_epi64(
          c[k], _mm256_castpd_si256(_mm256_cmp_pd(v, b[k], _CMP_GT_OQ)));
    }
  }
#pragma GCC unroll 6
  for (int k = 0; k < M; ++k) hist[k] = hsum_epi64(c[k]);
}

// Widest pass: six broadcast and six counter registers, plus the load
// and the compare result, fit the sixteen ymm registers.
constexpr std::size_t kMaxPassWidth = 6;
using CountPassFn = void (*)(const double*, long long, const double*,
                             std::size_t*);
constexpr CountPassFn kCountPass[kMaxPassWidth] = {
    &count_pass<1>, &count_pass<2>, &count_pass<3>,
    &count_pass<4>, &count_pass<5>, &count_pass<6>,
};

// One pass per group of up to six thresholds, so the default model's
// five biases per combo cost a single pass over the response.
void avx2_ppv_count(const double* conv, long long n, const double* pad_bias,
                    const std::uint32_t* rank, std::size_t bpc, double inv_n,
                    std::size_t* hist, double* out) {
  for (std::size_t t = 0; t < bpc; t += kMaxPassWidth) {
    const std::size_t m = std::min(bpc - t, kMaxPassWidth);
    kCountPass[m - 1](conv, n, pad_bias + t, hist + t);
  }
  for (std::size_t q = 0; q < bpc; ++q) {
    out[q] = static_cast<double>(hist[rank[q]]) * inv_n;
  }
}

void ppv_pool_avx2(const double* conv, long long n, const double* pad_bias,
                   const std::uint32_t* rank, std::size_t bpc,
                   std::size_t steps, double inv_n, std::size_t* hist,
                   double* out) {
  // Past ~128 biases per combo (far beyond any realistic feature
  // budget) the O(n log bpc) scalar search wins; below it the packed
  // count does.  Both produce the same exact integers.
  if (bpc > 128) {
    detail::scalar_ppv_pool(conv, n, pad_bias, rank, bpc, steps, inv_n,
                            hist, out);
    return;
  }
  avx2_ppv_count(conv, n, pad_bias, rank, bpc, inv_n, hist, out);
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
      Isa::kAvx2,         "avx2",         &nine_tap_sum_avx2,
      &kernel_conv_avx2,  &ppv_pool_avx2, &dot_avx2,
      &axpy_avx2,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
