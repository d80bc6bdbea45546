// Internal building blocks shared by the per-ISA kernel translation
// units.  Everything here is scalar code with the exact per-element
// floating-point operation order of the bit-identity contract: the SIMD
// TUs use these helpers for edge regions and vector-width tails, and the
// scalar TU (plus the ISAs that do not accelerate a given kernel) uses
// them wholesale.  Not installed API — include only from src/backend.
#pragma once

#include <algorithm>
#include <cstddef>

#include "backend/policy.hpp"

namespace p2auth::backend::detail {

// ---------------------------------------------------------------------
// Nine-tap shift partition.  An element is "interior" when its whole
// receptive field lies inside the series; edges are handled by guarded
// scalar loops so vector loops never read past the series.
// ---------------------------------------------------------------------

struct Partition {
  long long lo = 0;  // first interior index
  long long hi = 0;  // one past the last interior index (hi >= lo)
};

inline Partition nine_tap_partition(long long n, long long d) noexcept {
  const long long lo = std::min(n, 4 * d);
  return {lo, std::max(lo, n - 4 * d)};
}

// Guarded nine-tap sum for one edge element (ascending tap order).
inline void nine_tap_edge(const double* x, long long n, long long d,
                          long long i, double* sum) noexcept {
  double s = 0.0;
  for (int j = 0; j < 9; ++j) {
    const long long idx = i + static_cast<long long>(j - 4) * d;
    if (idx >= 0 && idx < n) s += x[idx];
  }
  sum[i] = s;
}

// Branch-free nine-tap interior body over [i0, i1).
inline void nine_tap_interior(const double* x, long long d, long long i0,
                              long long i1, double* sum) noexcept {
  for (long long i = i0; i < i1; ++i) {
    double s = 0.0;
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

}  // namespace p2auth::backend::detail
