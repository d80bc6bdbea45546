// NEON kernel backend (AArch64 AdvSIMD, two doubles per vector).
// Compiled only on ARM targets (-ffp-contract=off: AArch64 compilers
// otherwise fuse multiply-adds by default, which would break the
// bit-identity contract).  The nine-tap sum runs guarded scalar edges
// and two-lane interiors in the scalar per-element operation order; PPV
// counting is the scalar table's (no vector gather on NEON; integer
// counts make the reuse bit-exact by definition).
#if defined(__aarch64__) || (defined(__ARM_NEON) && defined(__ARM_FP))

#include <arm_neon.h>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

#if defined(__aarch64__)  // float64x2_t kernels need AArch64 AdvSIMD

namespace p2auth::backend {

namespace {

void nine_tap_sum_neon(const double* x, long long n, long long d,
                       double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  for (long long i = 0; i < lo; ++i) detail::nine_tap_edge(x, n, d, i, sum);
  long long i = lo;
  for (; i + 2 <= hi; i += 2) {
    // Ascending tap order starting from 0.0, as in the scalar interior.
    float64x2_t s = vdupq_n_f64(0.0);
    s = vaddq_f64(s, vld1q_f64(x + i - 4 * d));
    s = vaddq_f64(s, vld1q_f64(x + i - 3 * d));
    s = vaddq_f64(s, vld1q_f64(x + i - 2 * d));
    s = vaddq_f64(s, vld1q_f64(x + i - d));
    s = vaddq_f64(s, vld1q_f64(x + i));
    s = vaddq_f64(s, vld1q_f64(x + i + d));
    s = vaddq_f64(s, vld1q_f64(x + i + 2 * d));
    s = vaddq_f64(s, vld1q_f64(x + i + 3 * d));
    s = vaddq_f64(s, vld1q_f64(x + i + 4 * d));
    vst1q_f64(sum + i, s);
  }
  detail::nine_tap_interior(x, d, i, hi, sum);
  for (i = hi; i < n; ++i) detail::nine_tap_edge(x, n, d, i, sum);
}

double dot_neon(const double* a, const double* b, std::size_t n) {
  // accA carries stripes 0-1, accB stripes 2-3; the final combine
  // matches the (acc0 + acc1) + (acc2 + acc3) scalar contract.
  float64x2_t acc_a = vdupq_n_f64(0.0);
  float64x2_t acc_b = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc_a = vaddq_f64(acc_a, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc_b = vaddq_f64(acc_b,
                      vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double s = (vgetq_lane_f64(acc_a, 0) + vgetq_lane_f64(acc_a, 1)) +
             (vgetq_lane_f64(acc_b, 0) + vgetq_lane_f64(acc_b, 1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void axpy_neon(double alpha, const double* x, double* y, std::size_t n) {
  const float64x2_t av = vdupq_n_f64(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(av, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace

const KernelTable& neon_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kNeon,        "neon",     &nine_tap_sum_neon,
      &scalar_ppv_count, &dot_neon,  &axpy_neon,
  };
  return kTable;
}

}  // namespace p2auth::backend

#else  // 32-bit NEON has no float64x2_t: fall back to the scalar bodies.

namespace p2auth::backend {

const KernelTable& neon_kernel_table() noexcept {
  static const KernelTable kTable = [] {
    KernelTable t = scalar_kernel_table();
    t.isa = Isa::kNeon;
    t.name = "neon";
    return t;
  }();
  return kTable;
}

}  // namespace p2auth::backend

#endif  // __aarch64__

#endif  // ARM
