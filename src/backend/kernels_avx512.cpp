// AVX-512F kernel backend (512-bit, eight doubles per vector).
// Compiled with -mavx512f -ffp-contract=off; every multiply/add pair is
// an explicit intrinsic, so no fused multiply-adds appear and the
// bit-identity contract with the scalar reference holds.
//
// Where this backend differs from the AVX2 one: edges are vectorized
// too.  AVX-512 merge-masking (`_mm512_mask_add_pd`) leaves a masked
// lane's bits untouched, which is exactly the scalar edge semantics —
// an out-of-range tap is *skipped*, not added as 0.0.  (Adding +0.0
// instead would flip a -0.0 accumulator to +0.0 and break bit
// identity; that hazard is why the AVX2 backend keeps scalar edges.)
// Masked loads suppress faults on the masked lanes, so edge blocks can
// load through pointers whose masked lanes fall outside the series.
//
// The dot product must follow the cross-backend width-4 stripe
// contract (see kernels_detail.hpp), so it deliberately stays 256-bit:
// an eight-lane accumulator would change the stripe count and the
// rounding.  axpy is per-element, so full 512-bit width is safe there.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

// Pointer displaced by a possibly out-of-range element offset.  Edge
// blocks aim masked loads at addresses whose masked lanes precede the
// array; routing the arithmetic through uintptr_t keeps the (never
// dereferenced) out-of-bounds computation out of pointer-UB territory.
// Bit-exact sign flip via integer xor (_mm512_xor_pd needs AVX-512DQ;
// vpxorq is plain AVX-512F).
inline __m512d xor_pd_f(__m512d a, __m512d b) noexcept {
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

inline const double* displaced(const double* base, long long off) noexcept {
  return reinterpret_cast<const double*>(
      reinterpret_cast<std::uintptr_t>(base) +
      static_cast<std::uintptr_t>(off) * sizeof(double));
}

void nine_tap_sum_avx512(const double* x, long long n, long long d,
                         double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i vn = _mm512_set1_epi64(n);
  // Per-tap validity bounds: lane l of block i holds element i+l, and
  // tap t (shift s = (t-4)*d) is in range iff -s <= i+l < n-s.
  __m512i lob[9], hib[9];
  for (int t = 0; t < 9; ++t) {
    const long long s = static_cast<long long>(t - 4) * d;
    lob[t] = _mm512_set1_epi64(-s);
    hib[t] = _mm512_set1_epi64(n - s);
  }
  for (long long i = 0; i < n; i += 8) {
    if (i >= lo && i + 8 <= hi) {
      // Fully interior block: ascending tap order from 0.0, as in the
      // scalar interior.
      __m512d s = _mm512_setzero_pd();
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - 4 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - 3 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - 2 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + 2 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + 3 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + 4 * d));
      _mm512_storeu_pd(sum + i, s);
      continue;
    }
    // Edge block: per-tap masks replay the guarded scalar loop — each
    // lane adds exactly its in-range taps, ascending, starting at 0.0;
    // merge-masking leaves skipped lanes' bits untouched.
    const __m512i idx = _mm512_add_epi64(iota, _mm512_set1_epi64(i));
    const __mmask8 mt = _mm512_cmplt_epi64_mask(idx, vn);
    __m512d s = _mm512_setzero_pd();
    for (int t = 0; t < 9; ++t) {
      const __mmask8 m = mt & _mm512_cmpge_epi64_mask(idx, lob[t]) &
                         _mm512_cmplt_epi64_mask(idx, hib[t]);
      const long long sft = static_cast<long long>(t - 4) * d;
      const __m512d xv = _mm512_maskz_loadu_pd(m, displaced(x, i + sft));
      s = _mm512_mask_add_pd(s, m, s, xv);
    }
    _mm512_mask_storeu_pd(sum + i, mt, s);
  }
}

void kernel_conv_avx512(const double* x, long long n, const double* sum9,
                        int k0, int k1, int k2, long long d, double* conv) {
  const long long sa = static_cast<long long>(k0 - 4) * d;
  const long long sb = static_cast<long long>(k1 - 4) * d;
  const long long sc = static_cast<long long>(k2 - 4) * d;
  const auto [lo, hi] = detail::conv_partition(n, sa, sc);
  const __m512d three = _mm512_set1_pd(3.0);
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i vn = _mm512_set1_epi64(n);
  const long long shift[3] = {sa, sb, sc};
  __m512i lob[3], hib[3];
  for (int t = 0; t < 3; ++t) {
    lob[t] = _mm512_set1_epi64(-shift[t]);
    hib[t] = _mm512_set1_epi64(n - shift[t]);
  }
  for (long long i = 0; i < n; i += 8) {
    if (i >= lo && i + 8 <= hi) {
      // -sum9[i] as a sign flip (bit-exact negation), then the three
      // multiply-add pairs in ascending shift order.
      __m512d v = xor_pd_f(_mm512_loadu_pd(sum9 + i), sign);
      v = _mm512_add_pd(v, _mm512_mul_pd(three, _mm512_loadu_pd(x + i + sa)));
      v = _mm512_add_pd(v, _mm512_mul_pd(three, _mm512_loadu_pd(x + i + sb)));
      v = _mm512_add_pd(v, _mm512_mul_pd(three, _mm512_loadu_pd(x + i + sc)));
      _mm512_storeu_pd(conv + i, v);
      continue;
    }
    const __m512i idx = _mm512_add_epi64(iota, _mm512_set1_epi64(i));
    const __mmask8 mt = _mm512_cmplt_epi64_mask(idx, vn);
    __m512d v = xor_pd_f(_mm512_maskz_loadu_pd(mt, sum9 + i), sign);
    for (int t = 0; t < 3; ++t) {
      const __mmask8 m = mt & _mm512_cmpge_epi64_mask(idx, lob[t]) &
                         _mm512_cmplt_epi64_mask(idx, hib[t]);
      const __m512d xv =
          _mm512_maskz_loadu_pd(m, displaced(x, i + shift[t]));
      v = _mm512_mask_add_pd(v, m, v, _mm512_mul_pd(three, xv));
    }
    _mm512_mask_storeu_pd(conv + i, mt, v);
  }
}

// Direct exceedance counting (see the AVX2 backend for why counting
// beats a gathered binary search; the counts are exact integers, so
// features stay bit-identical).  One pass counts M consecutive sorted
// thresholds at once: hist[k] = #{i : conv[i] > bias[k]}, eight
// elements per compare.
template <int M>
void count_pass(const double* conv, long long n, const double* bias,
                std::size_t* hist) {
  const __m512i one = _mm512_set1_epi64(1);
  // Unrolled early, so the arrays live in registers.
  __m512d b[M];
  __m512i c[M];
#pragma GCC unroll 8
  for (int k = 0; k < M; ++k) {
    b[k] = _mm512_set1_pd(bias[k]);
    c[k] = _mm512_setzero_si512();
  }
  // The last n % 8 elements first, so the main loop needs no mask: the
  // tail mask folds straight into the compare, which never sets a masked
  // lane, so there is no scalar element tail at all.
  const long long full = n & ~7LL;
  if (full < n) {
    const auto lanes = static_cast<__mmask8>((1u << (n - full)) - 1u);
    const __m512d v = _mm512_maskz_loadu_pd(lanes, conv + full);
#pragma GCC unroll 8
    for (int k = 0; k < M; ++k) {
      c[k] = _mm512_mask_add_epi64(
          c[k], _mm512_mask_cmp_pd_mask(lanes, v, b[k], _CMP_GT_OQ), c[k],
          one);
    }
  }
  for (long long i = 0; i < full; i += 8) {
    const __m512d v = _mm512_loadu_pd(conv + i);
#pragma GCC unroll 8
    for (int k = 0; k < M; ++k) {
      // _CMP_GT_OQ is false on NaN, matching the scalar `>`.
      c[k] = _mm512_mask_add_epi64(
          c[k], _mm512_cmp_pd_mask(v, b[k], _CMP_GT_OQ), c[k], one);
    }
  }
#pragma GCC unroll 8
  for (int k = 0; k < M; ++k) {
    hist[k] = static_cast<std::size_t>(_mm512_reduce_add_epi64(c[k]));
  }
}

// Widest pass: eight broadcast and eight counter registers stay resident,
// so each conv load is shared by up to 64 element-threshold compares.
constexpr std::size_t kMaxPassWidth = 8;
using CountPassFn = void (*)(const double*, long long, const double*,
                             std::size_t*);
constexpr CountPassFn kCountPass[kMaxPassWidth] = {
    &count_pass<1>, &count_pass<2>, &count_pass<3>, &count_pass<4>,
    &count_pass<5>, &count_pass<6>, &count_pass<7>, &count_pass<8>,
};

// One pass per group of up to eight thresholds, so the default model's
// five biases per combo cost a single pass over the response.
void avx512_ppv_count(const double* conv, long long n, const double* pad_bias,
                      const std::uint32_t* rank, std::size_t bpc,
                      double inv_n, std::size_t* hist, double* out) {
  for (std::size_t t = 0; t < bpc; t += kMaxPassWidth) {
    const std::size_t m = std::min(bpc - t, kMaxPassWidth);
    kCountPass[m - 1](conv, n, pad_bias + t, hist + t);
  }
  for (std::size_t q = 0; q < bpc; ++q) {
    out[q] = static_cast<double>(hist[rank[q]]) * inv_n;
  }
}

void ppv_pool_avx512(const double* conv, long long n, const double* pad_bias,
                     const std::uint32_t* rank, std::size_t bpc,
                     std::size_t steps, double inv_n, std::size_t* hist,
                     double* out) {
  // Same crossover as the AVX2 backend: degenerate huge bias counts
  // favour the O(n log bpc) scalar search.  Identical exact integers
  // either way.
  if (bpc > 128) {
    detail::scalar_ppv_pool(conv, n, pad_bias, rank, bpc, steps, inv_n,
                            hist, out);
    return;
  }
  avx512_ppv_count(conv, n, pad_bias, rank, bpc, inv_n, hist, out);
}

double dot_avx512(const double* a, const double* b, std::size_t n) {
  // 256-bit on purpose: the accumulator lanes ARE the four stripes of
  // the cross-backend dot contract, and the final combine is the
  // mandated (acc0 + acc1) + (acc2 + acc3).
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

void axpy_avx512(double alpha, const double* x, double* y, std::size_t n) {
  // Per-element update: width does not affect bits, so use full 512-bit
  // vectors with a masked tail.
  const __m512d av = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d yv = _mm512_add_pd(
        _mm512_loadu_pd(y + i), _mm512_mul_pd(av, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(y + i, yv);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace

const KernelTable& avx512_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kAvx512,        "avx512",         &nine_tap_sum_avx512,
      &kernel_conv_avx512, &ppv_pool_avx512, &dot_avx512,
      &axpy_avx512,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
