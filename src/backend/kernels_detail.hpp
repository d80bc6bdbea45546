// Internal building blocks shared by the per-ISA kernel translation
// units.  Everything here is scalar code with the exact per-element
// floating-point operation order of the bit-identity contract: the SIMD
// TUs use these helpers for vector-width tails, and the scalar TU (plus
// the ISAs that do not accelerate a given kernel) uses them wholesale.
// Not installed API — include only from src/backend.
#pragma once

#include <algorithm>
#include <cstddef>

#include "backend/policy.hpp"

namespace p2auth::backend::detail {

// ---------------------------------------------------------------------
// Nine-tap sum over [i0, i1) of a zero-padded float series: ascending
// tap order from +0.0f, one float add per tap.
// ---------------------------------------------------------------------

inline void nine_tap_padded(const float* x, long long d, long long i0,
                            long long i1, float* sum) noexcept {
  for (long long i = i0; i < i1; ++i) {
    float s = 0.0f;
    s += x[i - 4 * d];
    s += x[i - 3 * d];
    s += x[i - 2 * d];
    s += x[i - d];
    s += x[i];
    s += x[i + d];
    s += x[i + 2 * d];
    s += x[i + 3 * d];
    s += x[i + 4 * d];
    sum[i] = s;
  }
}

// ---------------------------------------------------------------------
// Width-4 striped dot product, the cross-backend accumulation contract:
// acc_l += a[i+l] * b[i+l] per 4-block (multiply then add, never fused),
// combined as (acc0 + acc1) + (acc2 + acc3), tail added sequentially.
// ---------------------------------------------------------------------

inline double striped_dot(const double* a, const double* b,
                          std::size_t n) noexcept {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double s = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline void scalar_axpy(double alpha, const double* x, double* y,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// ---------------------------------------------------------------------
// Gram blocks in striped_dot's order, entry by entry.  A backend
// supplies a register-tile micro-kernel over kR rows `a` and kC rows
// `b`: for every 4-block starting at k in [k0, k1) and stripe l,
//   acc[(r * kC + c) * 4 + l] += a[r][k + l] * b[c][k + l]
// (multiply then add, never fused).  gram_block walks the feature range
// in slices of kGramDepth doubles, so a tile's rows stay in L1 and the
// block's rows in L2 while every register tile of the block passes over
// them; each entry's four stripes persist in memory between slices.  It
// then combines each entry's stripes as (acc0 + acc1) + (acc2 + acc3)
// and adds the tail in sequence, as striped_dot does.
// ---------------------------------------------------------------------

inline constexpr std::size_t kGramDepth = 512;

using GramMicroFn = void (*)(const double* const* a, const double* const* b,
                             std::size_t k0, std::size_t k1, double* acc);

template <std::size_t kR, std::size_t kC, GramMicroFn kMicro>
void gram_block(const double* x, std::size_t ld, std::size_t n,
                std::size_t i0, std::size_t ni, std::size_t j0,
                std::size_t nj, double* out) noexcept {
  static_assert(kGramBlock % kR == 0 && kGramBlock % kC == 0);
  constexpr std::size_t kTile = kR * kC * 4;
  const std::size_t tiles_r = (ni + kR - 1) / kR;
  const std::size_t tiles_c = (nj + kC - 1) / kC;
  // Register tile (tr, tc) keeps its stripes at (tr * tiles_c + tc) * kTile.
  alignas(64) double stripes[kGramBlock * kGramBlock * 4];
  std::fill(stripes, stripes + tiles_r * tiles_c * kTile, 0.0);
  // Tile rows past the block's edge repeat its last row; their entries
  // are computed and dropped.
  const double* a[kR];
  const double* b[kC];
  const std::size_t full = n & ~std::size_t{3};
  for (std::size_t k0 = 0; k0 < full; k0 += kGramDepth) {
    const std::size_t k1 = std::min(full, k0 + kGramDepth);
    for (std::size_t tr = 0; tr < tiles_r; ++tr) {
      for (std::size_t r = 0; r < kR; ++r) {
        a[r] = x + (i0 + std::min(tr * kR + r, ni - 1)) * ld;
      }
      for (std::size_t tc = 0; tc < tiles_c; ++tc) {
        // A tile wholly below the diagonal holds no wanted entry.
        if (i0 + tr * kR > j0 + tc * kC + kC - 1) continue;
        for (std::size_t c = 0; c < kC; ++c) {
          b[c] = x + (j0 + std::min(tc * kC + c, nj - 1)) * ld;
        }
        kMicro(a, b, k0, k1, stripes + (tr * tiles_c + tc) * kTile);
      }
    }
  }
  for (std::size_t r = 0; r < ni; ++r) {
    const double* const ar = x + (i0 + r) * ld;
    for (std::size_t c = 0; c < nj; ++c) {
      if (i0 + r > j0 + c) continue;
      const double* const acc =
          stripes + ((r / kR) * tiles_c + c / kC) * kTile +
          ((r % kR) * kC + c % kC) * 4;
      const double* const bc = x + (j0 + c) * ld;
      double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
      for (std::size_t k = full; k < n; ++k) s += ar[k] * bc[k];
      out[r * nj + c] = s;
    }
  }
}

}  // namespace p2auth::backend::detail
