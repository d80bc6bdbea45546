// AVX-512F kernel backend (512-bit, eight doubles per vector).
// Compiled with -mavx512f -ffp-contract=off; every add is an explicit
// intrinsic, so no fused multiply-adds appear and the bit-identity
// contract with the scalar reference holds.
//
// The nine-tap sum vectorizes its edges too: AVX-512 merge-masking
// (`_mm512_mask_add_pd`) leaves a masked lane's bits untouched, which is
// exactly the reference's semantics of skipping an out-of-range tap.
// Masked loads suppress faults on the masked lanes, so edge blocks can
// load through pointers whose masked lanes fall outside the series.
// PPV counting needs no edge path: it reads the zero-padded 3·x copy.
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

// Horizontal sum of eight 64-bit counters.  _mm512_reduce_add_epi64
// and _mm512_castsi512_si256 start from _mm256_undefined_si256, which
// gcc 12 reports as used uninitialized; zero-masked extracts define
// every lane.  The counts are integers, so any order gives the same sum.
inline long long sum_epi64(__m512i c) {
  const __m256i q =
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xFF, c, 0),
                       _mm512_maskz_extracti64x4_epi64(0xFF, c, 1));
  const __m128i h = _mm_add_epi64(_mm256_extracti128_si256(q, 0),
                                  _mm256_extracti128_si256(q, 1));
  return _mm_cvtsi128_si64(_mm_add_epi64(h, _mm_unpackhi_epi64(h, h)));
}

// Fused convolution and exceedance counting (see the AVX2 backend for
// why counting beats a gathered binary search; the counts are exact
// integers, so features stay bit-identical).  One pass builds eight
// convolution outputs in a register from the padded copy, then counts
// M consecutive sorted thresholds at once: hist[k] = #{i : conv[i] >
// bias[k]}.
template <int M>
void count_pass(const PpvCombo& combo, const double* bias,
                std::size_t* hist) {
  const long long n = combo.n;
  const double* const nsum = combo.nsum;
  const double* const xa = combo.x3 + combo.sa;
  const double* const xb = combo.x3 + combo.sb;
  const double* const xc = combo.x3 + combo.sc;
  const __m512i one = _mm512_set1_epi64(1);
  // Unrolled early, so the arrays live in registers.
  __m512d b[M];
  __m512i c[M];
#pragma GCC unroll 8
  for (int k = 0; k < M; ++k) {
    b[k] = _mm512_set1_pd(bias[k]);
    c[k] = _mm512_setzero_si512();
  }
  // The last n % 8 elements first, so the main loop needs no mask.  The
  // padding covers the unmasked 3·x loads past the end; the tail mask
  // guards the nine-tap sum's load and folds into the compare, which
  // never sets a masked lane.
  const long long full = n & ~7LL;
  if (full < n) {
    const auto lanes = static_cast<__mmask8>((1u << (n - full)) - 1u);
    __m512d v = _mm512_maskz_loadu_pd(lanes, nsum + full);
    v = _mm512_add_pd(v, _mm512_loadu_pd(xa + full));
    v = _mm512_add_pd(v, _mm512_loadu_pd(xb + full));
    v = _mm512_add_pd(v, _mm512_loadu_pd(xc + full));
#pragma GCC unroll 8
    for (int k = 0; k < M; ++k) {
      c[k] = _mm512_mask_add_epi64(
          c[k], _mm512_mask_cmp_pd_mask(lanes, v, b[k], _CMP_GT_OQ),
          c[k], one);
    }
  }
  for (long long i = 0; i < full; i += 8) {
    // The reference's addition order: -sum9, then the taps ascending.
    __m512d v = _mm512_loadu_pd(nsum + i);
    v = _mm512_add_pd(v, _mm512_loadu_pd(xa + i));
    v = _mm512_add_pd(v, _mm512_loadu_pd(xb + i));
    v = _mm512_add_pd(v, _mm512_loadu_pd(xc + i));
#pragma GCC unroll 8
    for (int k = 0; k < M; ++k) {
      // _CMP_GT_OQ is false on NaN, matching the scalar `>`.
      c[k] = _mm512_mask_add_epi64(
          c[k], _mm512_cmp_pd_mask(v, b[k], _CMP_GT_OQ), c[k], one);
    }
  }
#pragma GCC unroll 8
  for (int k = 0; k < M; ++k) {
    hist[k] = static_cast<std::size_t>(sum_epi64(c[k]));
  }
}

// Widest pass: eight broadcast and eight counter registers stay resident,
// so each convolution vector is shared by up to 64 element-threshold
// compares.
constexpr std::size_t kMaxPassWidth = 8;
using CountPassFn = void (*)(const PpvCombo&, const double*, std::size_t*);
constexpr CountPassFn kCountPass[kMaxPassWidth] = {
    &count_pass<1>, &count_pass<2>, &count_pass<3>, &count_pass<4>,
    &count_pass<5>, &count_pass<6>, &count_pass<7>, &count_pass<8>,
};

// One pass per group of up to eight thresholds, each recomputing the
// three adds, so the default model's five biases per combo cost a
// single pass over the series.
void ppv_count_avx512(const PpvCombo& c, std::size_t* hist, double* conv,
                      double* out) {
  // Same crossover as the AVX2 backend: degenerate huge bias counts
  // favour the O(n log bpc) scalar search.  Identical exact integers
  // either way.
  if (c.bpc > 128) {
    scalar_ppv_count(c, hist, conv, out);
    return;
  }
  for (std::size_t t = 0; t < c.bpc; t += kMaxPassWidth) {
    const std::size_t m = std::min(c.bpc - t, kMaxPassWidth);
    kCountPass[m - 1](c, c.pad_bias + t, hist + t);
  }
  for (std::size_t q = 0; q < c.bpc; ++q) {
    out[q] = static_cast<double>(hist[c.rank[q]]) * c.inv_n;
  }
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

// 4x4 register tile.  A zmm holds the four stripes of two entries,
// (r, c) and (r, c + 1), never eight consecutive elements of one entry:
// that would split each entry's stripes over two accumulation chains.
// Row r's 4-block is broadcast to both halves; the b pair is assembled
// from two 256-bit loads.  Both use masked broadcasts: GCC 12's
// unmasked broadcast and insert intrinsics start from an undefined
// register and warn under -Wall.
constexpr std::size_t kGramRows = 4, kGramCols = 4;

void gram_micro_avx512(const double* const* a, const double* const* b,
                       std::size_t k0, std::size_t k1, double* acc) {
  constexpr std::size_t kPairs = kGramCols / 2;
  __m512d s[kGramRows][kPairs];
  for (std::size_t r = 0; r < kGramRows; ++r) {
    for (std::size_t p = 0; p < kPairs; ++p) {
      s[r][p] = _mm512_loadu_pd(acc + (r * kGramCols + 2 * p) * 4);
    }
  }
  for (std::size_t k = k0; k < k1; k += 4) {
    __m512d bv[kPairs];
    for (std::size_t p = 0; p < kPairs; ++p) {
      bv[p] = _mm512_mask_broadcast_f64x4(
          _mm512_castpd256_pd512(_mm256_loadu_pd(b[2 * p] + k)), 0xF0,
          _mm256_loadu_pd(b[2 * p + 1] + k));
    }
    for (std::size_t r = 0; r < kGramRows; ++r) {
      const __m256d ar = _mm256_loadu_pd(a[r] + k);
      const __m512d av =
          _mm512_mask_broadcast_f64x4(_mm512_castpd256_pd512(ar), 0xFF, ar);
      for (std::size_t p = 0; p < kPairs; ++p) {
        s[r][p] = _mm512_add_pd(s[r][p], _mm512_mul_pd(av, bv[p]));
      }
    }
  }
  for (std::size_t r = 0; r < kGramRows; ++r) {
    for (std::size_t p = 0; p < kPairs; ++p) {
      _mm512_storeu_pd(acc + (r * kGramCols + 2 * p) * 4, s[r][p]);
    }
  }
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
      Isa::kAvx512,
      "avx512",
      &nine_tap_sum_avx512,
      &ppv_count_avx512,
      &dot_avx512,
      &axpy_avx512,
      &detail::gram_block<kGramRows, kGramCols, &gram_micro_avx512>,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
