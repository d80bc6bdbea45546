// The MiniRocket oracle: the original straightforward scalar transform,
// kept out of the library and linked only by the test suites and
// bench_primitives.  Contract: for any fitted model and input,
// `reference::transform` and the fast `MiniRocket::transform` /
// `transform_batch` produce bit-identical feature vectors (the two
// paths share the per-element floating-point operation order even though
// their loop structures differ).  The differential suite pins this.
//
// The oracle fixes the float32 operation order that src/backend/
// policy.hpp states: each sample rounds to float once, xf = float(x);
// the nine-tap sum adds the in-range taps of xf in ascending tap order
// from +0.0f; a kernel's output starts at -sum9 and adds 3.0f * xf of
// its three +2 taps in ascending order, skipping out-of-range taps; PPV
// compares each output against its bias rounded to float, and a feature
// is count * (1.0 / n) in double.  Max pooling emits the float maximum.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/minirocket.hpp"

namespace p2auth::ml {

// Dilated zero-padded ("same") convolution of `x` with the kernel whose
// +2 positions are `kernel`, in the oracle's float32 order; output has
// the same length as `x` and holds float values.
Series dilated_convolution(std::span<const double> x,
                           const std::array<int, 3>& kernel, int dilation);

namespace reference {

// Bound on |dilated_convolution(x)[i] - the exact convolution| from the
// float32 order: rounding each sample, tripling it, and at most twelve
// float additions each contribute at most a few units of FLT_EPSILON
// relative to the sum of |x| over the receptive field, which the bound
// takes 64 times over.
double conv_rounding_bound(std::span<const double> x, std::size_t i,
                           int dilation);

// Nine-tap sliding float sum at the given dilation with zero padding
// (the shared-work trick: every kernel output is 3*(its three +2 taps)
// - sum9).
std::vector<float> nine_tap_sum(std::span<const float> x, int dilation);

// One series through the scalar path of `model` (PPV or max pooling).
linalg::Vector transform(const MiniRocket& model, std::span<const double> x);

// Serial per-series batch loop — the pre-fast-path behaviour benches
// compare against.
linalg::Matrix transform_batch(const MiniRocket& model,
                               const std::vector<Series>& batch);

}  // namespace reference

}  // namespace p2auth::ml
