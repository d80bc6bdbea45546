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
// Two implementations coexist:
//
//   * The fast path — an allocation-free, cache-blocked batch engine.
//     All working memory lives in a reusable `TransformScratch`; the
//     inner loops are shift-partitioned (guarded edges, branch-free
//     interior) so they auto-vectorize, and pooling is fused into the
//     convolution completion so no per-kernel response is materialized
//     beyond one reused buffer.  `transform_batch` tiles
//     (series x dilation) blocks across `util::parallel_for`.
//   * `minirocket::reference` — the original straightforward scalar
//     implementation, kept compiled-in as the oracle.  The fast path
//     must agree with it bit-for-bit (same floating-point operation
//     order per output element); the differential test suite pins this
//     contract.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

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

// Dilated zero-padded ("same") convolution of `x` with the kernel whose
// +2 positions are `kernel`; output has the same length as `x`.
Series dilated_convolution(std::span<const double> x,
                           const std::array<int, 3>& kernel, int dilation);

// Reusable workspace for the allocation-free transform path.  Buffers
// grow on first use (or when a longer series / larger quantile budget
// arrives) and are then reused verbatim: the steady state performs zero
// heap allocations.  One scratch serves one thread at a time; use
// `thread_transform_scratch()` for a per-thread instance that stays warm
// across calls.
struct TransformScratch {
  Series sum9;    // shared nine-tap sliding sum for one dilation
  Series conv;    // one kernel's convolution response
  Series sorted;  // fit-time sorted-quantile workspace
  std::vector<std::size_t> counts;  // fused PPV tallies (one per quantile)

  // Grows the buffers to serve series of `input_length` with
  // `biases_per_combo` quantiles; no-op (and allocation-free) when they
  // already suffice.
  void reserve(std::size_t input_length, std::size_t biases_per_combo);
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
  // count.
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
  // for the reference oracle and the differential tests.
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

  // Persists / restores a fitted transform (dilations + biases).
  void save(std::ostream& os) const;
  static MiniRocket load(std::istream& is);

  // Reassembles a fitted transform from already-parsed parts — the entry
  // point shared by the text loader above and the binary reader in
  // src/io/.  Validates the shape invariants (dilation positivity,
  // finite biases, kernel-count consistency) and throws
  // util::SerializeError on any inconsistency; on success rebuilds the
  // derived PPV search index exactly as fit/load do.
  static MiniRocket from_parts(MiniRocketOptions options,
                               std::size_t input_length,
                               std::vector<int> dilations,
                               std::size_t biases_per_combo,
                               std::vector<double> biases);

 private:
  // Derived PPV counting index (not serialized; rebuilt by fit/load).
  // The fast path counts "conv[i] > bias_q" for all quantiles of a combo
  // in one binary-search pass per element over the combo's *sorted*
  // biases — O(n log q) instead of the scan's O(n q) — then maps the
  // per-sorted-position counts back through `bias_rank_`.  Counts are
  // exact integers, so the features stay bit-identical to the scan.
  //
  // Each combo's sorted biases are padded to a power-of-two-minus-one
  // stride with +inf sentinels so the search runs a fixed, compile-time
  // number of conditional-move steps (branch-free: sentinels compare
  // false against every probe, including +inf and NaN).
  void build_bias_index();

  // fit() in two phases, so MultiChannelMiniRocket can put every
  // channel's dilations on the pool in one parallel_for.  plan_fit
  // (serial) validates `train`, sets the dilations and the bias table's
  // shape, and draws from `rng` the training example of each dilation,
  // in dilation order; it returns those examples (none for max pooling,
  // which fits no biases).  fit_dilation computes the bias quantiles of
  // dilation `di`'s 84 combos from `sample` and writes only their slots,
  // so distinct dilations may fit concurrently.  build_bias_index()
  // completes the fit.
  std::vector<const Series*> plan_fit(std::span<const Series* const> train,
                                      util::Rng& rng);
  void fit_dilation(std::size_t di, const Series& sample);
  friend class MultiChannelMiniRocket;

  MiniRocketOptions options_;
  std::size_t input_length_ = 0;
  std::vector<int> dilations_;
  std::size_t biases_per_combo_ = 0;
  // biases_[combo * biases_per_combo_ + q] where combo = kernel-major
  // (kernel index * num_dilations + dilation index).
  std::vector<double> biases_;
  // Per-combo ascending biases (stride `bias_pad_stride_`, +inf padded)
  // and the original-q -> sorted-position map (stride biases_per_combo_).
  std::vector<double> sorted_biases_;
  std::vector<std::uint32_t> bias_rank_;
  // Search geometry: bias_pad_stride_ = 2^bias_search_steps_ - 1 >= bpc.
  std::size_t bias_search_steps_ = 0;
  std::size_t bias_pad_stride_ = 0;
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
  // any thread count.
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

  void save(std::ostream& os) const;
  static MultiChannelMiniRocket load(std::istream& is);

  // Binary-reader counterpart of load: adopts per-channel transforms
  // that were individually validated by MiniRocket::from_parts.  Throws
  // util::SerializeError when `channels` is empty or absurdly wide.
  static MultiChannelMiniRocket from_parts(MiniRocketOptions options,
                                           std::vector<MiniRocket> channels);

 private:
  MiniRocketOptions options_;
  std::vector<MiniRocket> per_channel_;
};

// The original scalar implementation, kept as the differential-testing
// oracle for the fast path.  Contract: for any fitted model and input,
// `reference::transform` and the fast `MiniRocket::transform` /
// `transform_batch` produce bit-identical feature vectors (the two
// paths share the per-element floating-point operation order even though
// their loop structures differ).
namespace reference {

// Nine-tap sliding sum at the given dilation with zero padding (the
// shared-work trick: every kernel output is 3*(its three +2 taps) - sum9).
Series nine_tap_sum(std::span<const double> x, int dilation);

// One series through the scalar path of `model` (PPV or max pooling).
linalg::Vector transform(const MiniRocket& model, std::span<const double> x);

// Serial per-series batch loop — the pre-fast-path behaviour benches
// compare against.
linalg::Matrix transform_batch(const MiniRocket& model,
                               const std::vector<Series>& batch);

}  // namespace reference

}  // namespace p2auth::ml
