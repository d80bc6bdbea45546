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
// the scalar table (and hence to the MiniRocket oracle, `ml::reference`
// in tests/support) under exact comparison.  MiniRocket's convolution
// runs in float32, and its operation order is fixed:
//   * Each input sample is rounded to float once, xf[i] = float(x[i]),
//     and tripled in float, x3[i] = 3.0f * xf[i].
//   * nine_tap_sum adds xf over the nine taps in ascending tap order,
//     starting from +0.0f.  It reads a copy of xf zero-padded on both
//     sides, so an out-of-range tap adds +0.0f where the oracle skips
//     it.  A sum that starts at +0.0f is never -0.0f, and adding +0.0f
//     leaves any other value's bits alone, so the two sums agree bit
//     for bit, NaN payloads included.
//   * A combo's convolution is ((-sum9[i] + x3[i+sa]) + x3[i+sb]) +
//     x3[i+sc] in float.  ppv_count reads the zero-padded x3 and so adds
//     +0.0f for an out-of-range tap where the oracle skips it: the two
//     convolutions differ only in the sign of a zero, which no
//     `conv > bias` compare can see.
//   * Every table counts each bias directly from the model's stored
//     double, rounded to float where it is compared; the counts are
//     exact integers, and a feature is count * (1.0 / n) in double.
//   * kernel_conv, the exact skip-the-tap float convolution, serves fit
//     (whose bias quantiles are convolution values) and max pooling
//     (which emits one as a feature).  It is scalar only, outside the
//     tables.
//   * dot follows a fixed width-4 stripe accumulation order in double
//     that every backend — scalar included — implements identically.
//     gram_block shares that order: each Gram entry keeps its own four
//     stripe accumulators across the whole feature range, so every
//     entry has dot's bits, however the block is tiled in registers or
//     cache.  Features, the ridge and scores stay double.
// No kernel contracts multiply-adds.  The differential test suites
// enforce the contract for every table compiled into the binary.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "backend/capability.hpp"

namespace p2auth::backend {

// Nine-tap sliding sum of x at dilation d ("same" length): sum[i] =
// sum_j x[i + (j-4)*d] over j = 0..8, accumulated in float in ascending
// tap order starting from +0.0f.  `x` is padded: x[-ppv_padding(d)] ..
// x[n + ppv_padding(d) - 1] are readable, and the padding holds +0.0f.
using NineTapSumFn = void (*)(const float* x, long long n, long long d,
                              float* sum);

// Zero padding on each side of the float copies that nine_tap_sum and
// ppv_count read, for dilations up to `max_dilation`: the widest tap
// reach 4·d plus one 16-float vector, so the vector loads of the last
// partial block stay inside the buffer too.
inline constexpr long long ppv_padding(long long max_dilation) noexcept {
  return 4 * max_dilation + 16;
}

// One (kernel, dilation) combo's inputs to ppv_count.  The combo's
// convolution is
//   conv[i] = ((nsum[i] + x3[i + sa]) + x3[i + sb]) + x3[i + sc]
// in float, for i in [0, n): no multiplies, and no edge path.
struct PpvCombo {
  // 3.0f * float(x[i]) at x3[i], +0.0f on ppv_padding(d) elements
  // either side.
  const float* x3 = nullptr;
  // The dilation's nine-tap sum, negated; n elements.
  const float* nsum = nullptr;
  long long n = 0;
  // Tap shifts (k - 4) * d of the kernel's three +2 taps, ascending.
  long long sa = 0, sb = 0, sc = 0;
  // The combo's bpc biases as the model stores them, in quantile order.
  const double* bias = nullptr;
  std::size_t bpc = 0;
  double inv_n = 0.0;
};

// PPV features of one combo: out[q] = #{i : conv[i] > float(bias[q])} *
// inv_n for its bpc biases, in quantile order.  `conv` holds n floats;
// the scalar table writes the convolution there and counts four biases
// per pass over it, while the AVX2 (8 lanes) and AVX-512 (16 lanes)
// tables build it in registers and count on 32-bit lane counters.
using PpvCountFn = void (*)(const PpvCombo& combo, float* conv, double* out);

// Width-4 striped dot product: four independent accumulators over
// 4-element blocks (acc_l += a[i+l]*b[i+l], multiply then add, never
// fused), combined as (acc0 + acc1) + (acc2 + acc3), then the tail
// added sequentially.  The stripe order is part of the cross-backend
// bit-identity contract.
using DotFn = double (*)(const double* a, const double* b, std::size_t n);

// y[i] += alpha * x[i], multiply then add per element (never fused).
using AxpyFn = void (*)(double alpha, const double* x, double* y,
                        std::size_t n);

// Widest side of one gram_block call.
inline constexpr std::size_t kGramBlock = 16;

// One block of the Gram matrix of the row-major matrix `x` (row r at
// x + r * ld, n columns): for r < ni and c < nj with i0 + r <= j0 + c,
//   out[r * nj + c] = dot(x_{i0 + r}, x_{j0 + c}, n)
// with DotFn's bits (row i0 + r is the first operand of every
// product).  Entries below the diagonal may be left unwritten.
// 1 <= ni, nj <= kGramBlock.
using GramBlockFn = void (*)(const double* x, std::size_t ld, std::size_t n,
                             std::size_t i0, std::size_t ni, std::size_t j0,
                             std::size_t nj, double* out);

struct KernelTable {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";  // == isa_name(isa)
  NineTapSumFn nine_tap_sum = nullptr;
  PpvCountFn ppv_count = nullptr;
  DotFn dot = nullptr;
  AxpyFn axpy = nullptr;
  GramBlockFn gram_block = nullptr;
};

// Completes one MiniRocket kernel from the nine-tap sum with the
// oracle's exact float operation order:
// conv[i] = -sum9[i] + x3[i+(k0-4)d] + x3[i+(k1-4)d] + x3[i+(k2-4)d]
// with in-range taps added in ascending order (k0 < k1 < k2) and
// out-of-range taps skipped; x3[i] = 3.0f * float(x[i]).  Scalar, not
// dispatched.
void kernel_conv(const float* x3, long long n, const float* sum9, int k0,
                 int k1, int k2, long long d, float* conv);

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
