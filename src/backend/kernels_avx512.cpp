// AVX-512F kernel backend (512-bit: sixteen floats or eight doubles
// per vector).  Compiled with -mavx512f -ffp-contract=off; every add is
// an explicit intrinsic, so no fused multiply-adds appear and the
// bit-identity contract with the scalar reference holds.
//
// The nine-tap sum and PPV counting read the zero-padded float copies,
// so neither needs an edge path: a masked store (nine-tap sum) or a
// masked compare (counting) handles the last partial vector.
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

// The lanes of the last partial 16-float block of an n-element range.
inline __mmask16 tail_mask(long long n) noexcept {
  return static_cast<__mmask16>((1u << (n & 15)) - 1u);
}

void nine_tap_sum_avx512(const float* x, long long n, long long d,
                         float* sum) {
  // Ascending tap order from +0.0f, as in the scalar loop.  The padding
  // covers the last block's loads past the end; its store is masked.
  for (long long i = 0; i < n; i += 16) {
    __m512 s = _mm512_setzero_ps();
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i - 4 * d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i - 3 * d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i - 2 * d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i - d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i + d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i + 2 * d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i + 3 * d));
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + i + 4 * d));
    if (i + 16 <= n) {
      _mm512_storeu_ps(sum + i, s);
    } else {
      _mm512_mask_storeu_ps(sum + i, tail_mask(n), s);
    }
  }
}

// Horizontal sum of sixteen 32-bit counters.  _mm512_reduce_add_epi32
// and _mm512_castsi512_si256 start from _mm256_undefined_si256, which
// gcc 12 reports as used uninitialized; zero-masked 64-bit extracts
// define every lane (AVX-512F has no 32-bit masked extract).  The counts
// are integers, so any order gives the same sum.
inline std::size_t sum_epi32(__m512i c) {
  const __m256i o =
      _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xFF, c, 0),
                       _mm512_maskz_extracti64x4_epi64(0xFF, c, 1));
  __m128i h = _mm_add_epi32(_mm256_extracti128_si256(o, 0),
                            _mm256_extracti128_si256(o, 1));
  h = _mm_add_epi32(h, _mm_unpackhi_epi64(h, h));
  h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(h));
}

// Fused convolution and exceedance counting (the counts are exact
// integers, so features stay bit-identical).  One pass builds sixteen
// float convolution outputs in a register from the padded copy, then
// counts M consecutive biases at once on 32-bit lane counters:
// out[k] = #{i : conv[i] > float(bias[k])} * inv_n.  A lane counts
// n / 16 elements at most, so 32 bits overflow only past 2^36 elements,
// far beyond any series that fits in memory.
template <int M>
void count_pass(const PpvCombo& combo, const double* bias, double* out) {
  const long long n = combo.n;
  const float* const nsum = combo.nsum;
  const float* const xa = combo.x3 + combo.sa;
  const float* const xb = combo.x3 + combo.sb;
  const float* const xc = combo.x3 + combo.sc;
  const __m512i one = _mm512_set1_epi32(1);
  // Unrolled early, so the arrays live in registers.
  __m512 b[M];
  __m512i c[M];
#pragma GCC unroll 8
  for (int k = 0; k < M; ++k) {
    b[k] = _mm512_set1_ps(static_cast<float>(bias[k]));
    c[k] = _mm512_setzero_si512();
  }
  // The last n % 16 elements first, so the main loop needs no mask.
  // The padding covers the unmasked 3·x loads past the end; the tail
  // mask guards the nine-tap sum's load and folds into the compare,
  // which never sets a masked lane.
  const long long full = n & ~15LL;
  if (full < n) {
    const __mmask16 lanes = tail_mask(n);
    __m512 v = _mm512_maskz_loadu_ps(lanes, nsum + full);
    v = _mm512_add_ps(v, _mm512_loadu_ps(xa + full));
    v = _mm512_add_ps(v, _mm512_loadu_ps(xb + full));
    v = _mm512_add_ps(v, _mm512_loadu_ps(xc + full));
#pragma GCC unroll 8
    for (int k = 0; k < M; ++k) {
      c[k] = _mm512_mask_add_epi32(
          c[k], _mm512_mask_cmp_ps_mask(lanes, v, b[k], _CMP_GT_OQ), c[k],
          one);
    }
  }
  for (long long i = 0; i < full; i += 16) {
    // The oracle's addition order: -sum9, then the taps ascending.
    __m512 v = _mm512_loadu_ps(nsum + i);
    v = _mm512_add_ps(v, _mm512_loadu_ps(xa + i));
    v = _mm512_add_ps(v, _mm512_loadu_ps(xb + i));
    v = _mm512_add_ps(v, _mm512_loadu_ps(xc + i));
#pragma GCC unroll 8
    for (int k = 0; k < M; ++k) {
      // _CMP_GT_OQ is false on NaN, matching the scalar `>`.
      c[k] = _mm512_mask_add_epi32(
          c[k], _mm512_cmp_ps_mask(v, b[k], _CMP_GT_OQ), c[k], one);
    }
  }
#pragma GCC unroll 8
  for (int k = 0; k < M; ++k) {
    out[k] = static_cast<double>(sum_epi32(c[k])) * combo.inv_n;
  }
}

// Widest pass: eight broadcast and eight counter registers stay resident,
// so each convolution vector is shared by up to 128 element-bias
// compares.
constexpr std::size_t kMaxPassWidth = 8;
using CountPassFn = void (*)(const PpvCombo&, const double*, double*);
constexpr CountPassFn kCountPass[kMaxPassWidth] = {
    &count_pass<1>, &count_pass<2>, &count_pass<3>, &count_pass<4>,
    &count_pass<5>, &count_pass<6>, &count_pass<7>, &count_pass<8>,
};

// One pass per group of up to eight biases, each recomputing the three
// adds, so the default model's five biases per combo cost a single pass
// over the series.
void ppv_count_avx512(const PpvCombo& c, float* /*conv*/, double* out) {
  for (std::size_t t = 0; t < c.bpc; t += kMaxPassWidth) {
    const std::size_t m = std::min(c.bpc - t, kMaxPassWidth);
    kCountPass[m - 1](c, c.bias + t, out + t);
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
