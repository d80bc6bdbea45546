// MiniRocket feature transform (Dempster, Schmidt, Webb; KDD 2021).
//
// This is the ROCKET-based Feature Extraction module of the paper
// (section IV-B 2.3, Eq. (5)-(6)).  The transform convolves the input
// series with a fixed set of 84 kernels of length 9 whose weights take
// only the two values {-1, 2} (exactly three 2s, so each kernel sums to
// zero), at exponentially spaced dilations, and pools each convolution
// with PPV — the proportion of output values exceeding a bias:
//
//   PPV(X * W_d - b) = (1/N) sum_i [ (X * W_d)_i > b ]
//
// Biases are drawn from quantiles of the convolution outputs on training
// data, so fit() must see training series before transform() is used.
// The default feature budget (~10 000, paper: "feature vector of length
// 10K") is spread evenly over kernels, dilations and bias quantiles.
//
// Two implementations exist:
//
//   * The fast path — an allocation-free, cache-blocked batch engine.
//     All working memory lives in a reusable `TransformScratch`.  Each
//     series gets one zero-padded float copy and one zero-padded 3·x
//     copy, and each dilation one negated nine-tap sum; a (kernel,
//     dilation) combo's PPV counts then come from one backend pass that
//     adds three padded taps per element, so SIMD backends never store
//     the convolution.  One per-(series, dilation) tile routine serves
//     both engines; `transform_batch` runs the tiles across
//     `util::parallel_for`.
//   * `ml::reference` — the original straightforward scalar
//     implementation, the oracle.  It lives in the test-support library
//     (tests/support/minirocket_reference.hpp), which only the test
//     suites and bench_primitives link.  The fast path must agree with
//     it bit-for-bit (same floating-point operation order per output
//     element); the differential test suite pins this contract.
//
// Precision: the convolution runs in float32, as in the authors' own
// implementation.  Each sample rounds to float once, x3 = 3.0f * xf, the
// nine-tap sum and each kernel's completion add in float in the order
// backend/policy.hpp fixes, and each bias is compared as a float.  The
// counts are exact integers, and the features, the ridge and the
// decision scores stay double.  Fit selects its bias quantiles from the
// same float convolution and rounds each interpolated bias to float
// once, so a training example ties with its own biases exactly as it
// does in transform.  Biases stay stored as doubles (P2MDL001 keeps its
// bytes), and transform reads exactly those: every kernel table rounds
// each bias to float where it compares it, so the double-valued biases
// of a store written before the float32 transform round there too.
// from_parts rejects a finite bias beyond float's range.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace p2auth::backend {
struct KernelTable;
}  // namespace p2auth::backend

namespace p2auth::ml {

using Series = std::vector<double>;

// Pooling statistic applied to each convolution output.
enum class Pooling {
  kPpv,  // proportion of positive values vs bias quantiles (the paper's
         // Eq. (6); MiniRocket's defining statistic)
  kMax,  // global max pooling (classic-ROCKET style; ablation baseline —
         // one feature per kernel-dilation combo, biases unused)
};

struct MiniRocketOptions {
  // Target total feature count; the realised count is the nearest multiple
  // of (84 * num_dilations).  Ignored for kMax pooling (one feature per
  // kernel-dilation combo).
  std::size_t num_features = 9996;
  // Cap on the number of dilations (the input length may allow fewer).
  std::size_t max_dilations = 32;
  Pooling pooling = Pooling::kPpv;
};

// All C(9,3) = 84 index triples marking the positions of weight +2 (the
// remaining six positions carry weight -1).
const std::vector<std::array<int, 3>>& minirocket_kernels();

// Reusable workspace for the allocation-free transform path.  Buffers
// grow on first use (or when a longer series / larger quantile budget
// arrives) and are then reused verbatim: the steady state performs zero
// heap allocations.  One scratch serves one thread at a time; use
// `thread_transform_scratch()` for a per-thread instance that stays warm
// across calls.
struct TransformScratch {
  std::vector<float> sum9;    // shared nine-tap sliding sum for one dilation
  std::vector<float> conv;    // one kernel's convolution response
  std::vector<float> sorted;  // fit-time quantile selection (or sort) copy
  std::vector<float> xf;      // the series in float, zero-padded both sides
  std::vector<float> x3;      // 3.0f times that copy, zero-padded both sides

  // Grows the buffers to serve series of `input_length` whose float
  // copies carry `padding` zeros on each side; no-op (and
  // allocation-free) when they already suffice.
  void reserve(std::size_t input_length, std::size_t padding);
  // Current heap footprint of the buffers, for the
  // `minirocket.scratch_bytes` gauge.
  std::size_t bytes() const noexcept;
};

// The calling thread's reusable scratch.  Pool worker threads persist
// across `parallel_for` calls, so batch transforms reach a zero-allocation
// steady state after the first tile per thread.
TransformScratch& thread_transform_scratch() noexcept;

class MiniRocket {
 public:
  explicit MiniRocket(MiniRocketOptions options = {});

  // Fits dilations and biases on training series (all series must share
  // one length; empty input throws std::invalid_argument).  `rng` selects
  // the training examples used for bias quantiles.  The dilations fit on
  // the shared thread pool; the biases are bit-identical for any thread
  // count.  A non-finite bias (NaN or +-inf inputs, or overflow) throws
  // std::invalid_argument and leaves the transform unfitted, so every
  // fitted transform can be stored and read back.
  void fit(const std::vector<Series>& train, util::Rng& rng);

  bool fitted() const noexcept { return !biases_.empty(); }
  // The options this transform was constructed with (persisted so a
  // reloaded model can be re-fitted identically).
  const MiniRocketOptions& options() const noexcept { return options_; }
  std::size_t num_features() const noexcept;
  std::size_t input_length() const noexcept { return input_length_; }
  const std::vector<int>& dilations() const noexcept { return dilations_; }
  // Bias quantiles per (kernel, dilation) combo and the flat bias table
  // (combo-major: kernel index * num_dilations + dilation index), exposed
  // for the store, the reference oracle and the differential tests.
  // Stored as doubles; fit writes float-valued ones, and transform
  // compares each rounded to float.
  std::size_t biases_per_combo() const noexcept { return biases_per_combo_; }
  std::span<const double> biases() const noexcept { return biases_; }
  Pooling pooling() const noexcept { return options_.pooling; }

  // Transforms one series (must match the fitted length) into the PPV
  // feature vector.
  linalg::Vector transform(std::span<const double> x) const;

  // Allocation-free core: writes exactly num_features() values into
  // `out` using only `scratch` for working memory.  With a warm scratch
  // the call performs zero heap allocations (the differential suite
  // verifies this with an allocation-counting hook).  Emits no telemetry;
  // the public wrappers record the batch-level counters.
  void transform_into(std::span<const double> x, std::span<double> out,
                      TransformScratch& scratch) const;

  // Transforms a batch into a feature matrix (rows = samples), tiling
  // (series x dilation) blocks across the shared thread pool.  Output is
  // bit-identical to per-series `transform` for any thread count.
  // `max_threads` follows the `util::parallel_for` convention (0 = the
  // resolve_threads default).
  linalg::Matrix transform_batch(std::span<const Series> batch,
                                 std::size_t max_threads = 0) const;
  // Same engine writing into caller-owned row-strided storage: row i of
  // the output starts at out + i * row_stride.  `batch` is a span of
  // pointers so non-contiguous inputs (e.g. one channel plucked from
  // multi-channel samples) can be transformed without gathering copies.
  void transform_batch_into(std::span<const Series* const> batch, double* out,
                            std::size_t row_stride,
                            std::size_t max_threads = 0) const;

  // Batch convenience retained for existing callers; forwards to
  // transform_batch.
  linalg::Matrix transform(const std::vector<Series>& batch) const;

  // Reassembles a fitted transform from already-parsed parts — the entry
  // point of the P2MDL001 reader in src/io/.  Validates the shape
  // invariants (every dilation d in [1, input_length / 8), finite
  // biases inside float's range, kernel-count consistency) and throws
  // util::SerializeError on any inconsistency.  The result holds
  // exactly the parts it was given; nothing is derived from them.
  static MiniRocket from_parts(MiniRocketOptions options,
                               std::size_t input_length,
                               std::vector<int> dilations,
                               std::size_t biases_per_combo,
                               std::vector<double> biases);

 private:
  // Bias slot q of every combo interpolates the sorted convolution:
  // sorted[lo] * (1 - frac) + sorted[hi] * frac.
  struct BiasQuantile {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
  };
  struct FitPlan {
    // The training example of each dilation (empty for max pooling,
    // which fits no biases).
    std::vector<const Series*> samples;
    // One entry per bias slot, and every lo and hi among them once,
    // ascending: the only sorted positions fit needs.
    std::vector<BiasQuantile> quantiles;
    std::vector<std::size_t> ranks;
  };
  // fit() in two phases, so MultiChannelMiniRocket can put every
  // channel's dilations on the pool in one parallel_for.  plan_fit
  // (serial) validates `train`, sets the dilations and the bias table's
  // shape, draws from `rng` the training example of each dilation, in
  // dilation order, and lays out the quantile ranks once for the whole
  // fit.  fit_dilation computes the bias quantiles of dilation `di`'s 84
  // combos and writes only their slots, so distinct dilations may fit
  // concurrently.
  FitPlan plan_fit(std::span<const Series* const> train, util::Rng& rng);
  void fit_dilation(const FitPlan& plan, std::size_t di);
  friend class MultiChannelMiniRocket;

  // Element 0 of a series' zero-padded float copies in a scratch.
  struct Padded {
    const float* x = nullptr;   // float(x[i])
    const float* x3 = nullptr;  // 3.0f * float(x[i])
  };
  // Sizes `scratch` for this model and writes the zero-padded float
  // copies of `x` into it.
  Padded prepare(const double* x, TransformScratch& scratch) const;
  // One (series, dilation) tile: dilation `di`'s 84 combos of the series
  // prepare() padded into its feature row `row`.  Both engines run it.
  void transform_tile(const Padded& in, std::size_t di,
                      const backend::KernelTable& kt,
                      TransformScratch& scratch, double* row) const;

  MiniRocketOptions options_;
  std::size_t input_length_ = 0;
  std::vector<int> dilations_;
  std::size_t biases_per_combo_ = 0;
  // biases_[combo * biases_per_combo_ + q] where combo = kernel-major
  // (kernel index * num_dilations + dilation index).
  std::vector<double> biases_;
};

// Multi-channel convenience wrapper: one independent MiniRocket per
// channel, feature budget split evenly, outputs concatenated.  This is
// how the pipeline consumes the prototype's 2-4 PPG channels.
class MultiChannelMiniRocket {
 public:
  explicit MultiChannelMiniRocket(MiniRocketOptions options = {});

  // train[i] is sample i: one Series per channel (all samples must agree
  // on channel count and per-channel length).  Every (channel, dilation)
  // pair fits on the shared thread pool; the biases are bit-identical for
  // any thread count.  Non-finite biases throw as in MiniRocket::fit.
  void fit(const std::vector<std::vector<Series>>& train, util::Rng& rng);

  bool fitted() const noexcept { return !per_channel_.empty(); }
  const MiniRocketOptions& options() const noexcept { return options_; }
  std::size_t num_features() const;
  std::size_t num_channels() const noexcept { return per_channel_.size(); }
  const MiniRocket& channel(std::size_t c) const { return per_channel_.at(c); }

  linalg::Vector transform(const std::vector<Series>& sample) const;
  // Allocation-free single-sample path; `out` must hold num_features().
  void transform_into(const std::vector<Series>& sample,
                      std::span<double> out, TransformScratch& scratch) const;
  linalg::Matrix transform(const std::vector<std::vector<Series>>& batch,
                           std::size_t max_threads = 0) const;

  // The P2MDL001 reader's entry point: adopts per-channel transforms
  // that were individually validated by MiniRocket::from_parts.  Throws
  // util::SerializeError when `channels` is empty or absurdly wide.
  static MultiChannelMiniRocket from_parts(MiniRocketOptions options,
                                           std::vector<MiniRocket> channels);

 private:
  MiniRocketOptions options_;
  std::vector<MiniRocket> per_channel_;
};

}  // namespace p2auth::ml
