// Per-kernel function-pointer dispatch for the SIMD backends.
//
// Each instruction-set backend is one translation unit compiled with
// exactly the `-m` flags it needs (kernels_avx2.cpp with -mavx2, ...),
// exposing one immutable KernelTable.  Dispatch is resolved once at
// first use from, in priority order:
//
//   1. a process-local force_isa() override (tests, ops tooling);
//   2. the P2AUTH_BACKEND environment variable (scalar|avx2|avx512;
//      unknown names throw BackendError, unavailable ISAs fall back to
//      the best available — see capability.hpp);
//   3. auto-selection: the widest ISA that is both compiled in and
//      supported by the host CPU.
//
// Bit-identity contract: every table produces features bit-identical to
// the scalar table (and hence to `ml::minirocket::reference`) under
// exact double comparison.
//   * nine_tap_sum keeps the reference's per-element floating-point
//     operation order and skips out-of-range taps, as the reference
//     does.
//   * ppv_count builds each combo's convolution from a zero-padded 3·x
//     copy, so an out-of-range tap adds +0.0 where the reference skips
//     it.  Adding +0.0 changes no value's bits except -0.0, which
//     becomes +0.0, so this convolution differs from the reference's
//     only in the sign of a zero.  No `conv > bias` compare can see
//     that, and the counts are exact integers, so the features are
//     identical.
//   * kernel_conv, the exact skip-the-tap convolution, serves fit (whose
//     bias quantiles are convolution values) and max pooling (which
//     emits one as a feature).  It is scalar only, outside the tables.
//   * dot follows a fixed width-4 stripe accumulation order that every
//     backend — scalar included — implements identically.
// No kernel contracts multiply-adds.  The differential test suites
// enforce the contract for every table compiled into the binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "backend/capability.hpp"

namespace p2auth::backend {

// Nine-tap sliding sum of x at dilation d (zero-padded "same" length):
// sum[i] = sum_j x[i + (j-4)*d] over in-range taps, accumulated in
// ascending tap order starting from 0.0.
using NineTapSumFn = void (*)(const double* x, long long n, long long d,
                              double* sum);

// Zero padding on each side of the 3·x copy that ppv_count reads, for
// dilations up to `max_dilation`: the widest tap reach 4·d plus one
// vector width, so the vector loads of the last partial block stay
// inside the buffer too.
inline constexpr long long ppv_padding(long long max_dilation) noexcept {
  return 4 * max_dilation + 8;
}

// One (kernel, dilation) combo's inputs to ppv_count.  The combo's
// convolution is
//   conv[i] = ((nsum[i] + x3[i + sa]) + x3[i + sb]) + x3[i + sc]
// for i in [0, n): no multiplies, and no edge path.
struct PpvCombo {
  // 3.0 * x[i] at x3[i], +0.0 on ppv_padding(d) elements either side.
  const double* x3 = nullptr;
  // The dilation's nine-tap sum, negated; n elements.
  const double* nsum = nullptr;
  long long n = 0;
  // Tap shifts (k - 4) * d of the kernel's three +2 taps, ascending.
  long long sa = 0, sb = 0, sc = 0;
  // The combo's biases in ascending order, +inf padded to 2^steps - 1
  // slots, and each original quantile's position among them.
  const double* pad_bias = nullptr;
  const std::uint32_t* rank = nullptr;
  std::size_t bpc = 0;
  std::size_t steps = 0;
  double inv_n = 0.0;
};

// PPV features of one combo: out[q] = #{i : conv[i] > bias_q} * inv_n
// for its bpc biases, in original quantile order.  `hist` holds bpc + 1
// counts.  `conv` holds n doubles; the scalar table writes the
// convolution there and runs a branch-free binary search per element
// over `pad_bias`, while the AVX2 and AVX-512 tables build it in
// registers and count exceedances directly.
using PpvCountFn = void (*)(const PpvCombo& combo, std::size_t* hist,
                            double* conv, double* out);

// Width-4 striped dot product: four independent accumulators over
// 4-element blocks (acc_l += a[i+l]*b[i+l], multiply then add, never
// fused), combined as (acc0 + acc1) + (acc2 + acc3), then the tail
// added sequentially.  The stripe order is part of the cross-backend
// bit-identity contract.
using DotFn = double (*)(const double* a, const double* b, std::size_t n);

// y[i] += alpha * x[i], multiply then add per element (never fused).
using AxpyFn = void (*)(double alpha, const double* x, double* y,
                        std::size_t n);

struct KernelTable {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";  // == isa_name(isa)
  NineTapSumFn nine_tap_sum = nullptr;
  PpvCountFn ppv_count = nullptr;
  DotFn dot = nullptr;
  AxpyFn axpy = nullptr;
};

// Widest supported number of binary-search steps in ppv_count (the bias
// pad stride is 2^steps - 1; 20 steps cover over a million quantiles per
// combo, three orders of magnitude beyond any realistic budget).
inline constexpr std::size_t kMaxPpvSearchSteps = 20;

// Completes one MiniRocket kernel from the nine-tap sum with the
// reference's exact operation order:
// conv[i] = -sum9[i] + 3*x[i+(k0-4)d] + 3*x[i+(k1-4)d] + 3*x[i+(k2-4)d]
// with in-range taps added in ascending order (k0 < k1 < k2) and
// out-of-range taps skipped.  Scalar, not dispatched.
void kernel_conv(const double* x, long long n, const double* sum9, int k0,
                 int k1, int k2, long long d, double* conv);

// The active kernel table: force_isa() override if set, else the cached
// P2AUTH_BACKEND resolution.  First use may throw BackendError (unknown
// P2AUTH_BACKEND value); afterwards the lookup is two relaxed loads.
const KernelTable& kernels();

// ISA of the table kernels() currently returns.
Isa active_isa();

// Explicit table lookup for tests and benches.  Throws BackendError when
// `isa` is not compiled into this binary or not supported by this host.
const KernelTable& kernels_for(Isa isa);

// ISAs whose kernel TUs are linked into this binary (always includes
// kScalar; architecture- and compiler-dependent beyond that).
std::span<const Isa> compiled_isas() noexcept;

// compiled_isas() filtered to what this host can execute — the set the
// differential suites iterate over.  Always contains kScalar.
std::vector<Isa> available_isas();

// How the environment override resolved (cached).  `fell_back` means
// P2AUTH_BACKEND named a real ISA this binary/host cannot run and the
// best available backend was substituted.
const Resolution& env_resolution();

// Process-wide dispatch override for tests and ops tooling: force a
// specific table (throws BackendError if unavailable) or std::nullopt to
// restore the environment-based resolution.  Takes effect for subsequent
// kernels() calls; swapping mid-flight is safe (atomic pointer) but the
// caller owns the coherence of results produced under different tables.
void force_isa(std::optional<Isa> isa);

}  // namespace p2auth::backend
