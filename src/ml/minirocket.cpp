#include "ml/minirocket.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "backend/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::ml {

namespace {

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

bool all_finite_as_float(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(), [](double v) {
    return std::isfinite(static_cast<float>(v));
  });
}

}  // namespace

MiniRocket MiniRocket::from_parts(MiniRocketOptions options,
                                  std::size_t input_length,
                                  std::vector<int> dilations,
                                  std::size_t biases_per_combo,
                                  std::vector<double> biases) {
  // The public constructor enforces the same precondition with
  // std::invalid_argument; here the values came from a (possibly
  // corrupted) store, so the failure is a deserialization error.
  if (options.num_features == 0 || options.max_dilations == 0) {
    throw util::SerializeError(util::SerializeErrc::kBadShape,
                               "MiniRocket::from_parts: zero budget");
  }
  MiniRocket rocket(options);
  rocket.input_length_ = input_length;
  rocket.dilations_ = std::move(dilations);
  rocket.biases_per_combo_ = biases_per_combo;
  rocket.biases_ = std::move(biases);
  if (rocket.dilations_.empty() || rocket.biases_.empty() ||
      rocket.biases_per_combo_ == 0 ||
      rocket.biases_.size() != minirocket_kernels().size() *
                                   rocket.dilations_.size() *
                                   rocket.biases_per_combo_) {
    throw util::SerializeError(util::SerializeErrc::kBadShape,
                               "MiniRocket::from_parts: inconsistent shape");
  }
  // Fit keeps the receptive field 8·d inside the series, so a dilation
  // outside [1, input_length / 8) could only come from a corrupted
  // stream.  It would size the PPV padding (4·d + 16 floats per side)
  // and every tap offset downstream.
  for (const int d : rocket.dilations_) {
    if (d < 1 || 8 * static_cast<std::uint64_t>(d) >= input_length) {
      throw util::SerializeError(util::SerializeErrc::kBadValue,
                                 "MiniRocket::from_parts: bad dilation");
    }
  }
  // A corrupted template store must reject loudly here, not surface as
  // NaN feature values (and hence NaN decision scores) at auth time.
  if (!all_finite(rocket.biases_)) {
    throw util::SerializeError(util::SerializeErrc::kBadValue,
                               "MiniRocket::from_parts: non-finite bias");
  }
  // Transform compares each bias rounded to float; one beyond float's
  // range would round to an infinity that fit can never produce.
  if (!all_finite_as_float(rocket.biases_)) {
    throw util::SerializeError(
        util::SerializeErrc::kBadValue,
        "MiniRocket::from_parts: bias beyond float range");
  }
  return rocket;
}

MultiChannelMiniRocket MultiChannelMiniRocket::from_parts(
    MiniRocketOptions options, std::vector<MiniRocket> channels) {
  if (options.num_features == 0) {
    throw util::SerializeError(
        util::SerializeErrc::kBadShape,
        "MultiChannelMiniRocket::from_parts: zero budget");
  }
  if (channels.empty() || channels.size() > 64) {
    throw util::SerializeError(
        util::SerializeErrc::kBadShape,
        "MultiChannelMiniRocket::from_parts: bad channel count");
  }
  MultiChannelMiniRocket rocket(options);
  rocket.per_channel_ = std::move(channels);
  return rocket;
}

const std::vector<std::array<int, 3>>& minirocket_kernels() {
  static const std::vector<std::array<int, 3>> kernels = [] {
    std::vector<std::array<int, 3>> out;
    out.reserve(84);
    for (int a = 0; a < 9; ++a) {
      for (int b = a + 1; b < 9; ++b) {
        for (int c = b + 1; c < 9; ++c) out.push_back({a, b, c});
      }
    }
    return out;
  }();
  return kernels;
}

// ---------------------------------------------------------------------------
// Fast path.
//
// The hot kernels (nine-tap sliding sum, fused PPV counting) live in
// src/backend as per-ISA translation units; this file only drives them
// through the runtime-dispatched KernelTable.  Loop structure: each
// series is rounded once into a zero-padded float copy and a padded
// copy of 3·x; per (series, dilation) tile, the nine-tap sum is computed
// from the first and negated once, then each of the 84 kernels' PPV
// counts come from one ppv_count pass whose float convolution adds three
// padded taps per element.  Fit and max pooling keep values of the
// convolution itself, so they complete each kernel with the exact scalar
// backend::kernel_conv instead.  Nothing is heap-allocated once the
// scratch is warm.  Features are bit-identical to the float32 oracle
// (`ml::reference`, tests/support) on every ISA; backend/policy.hpp
// states the operation order and why the padded convolution's signed
// zeros cannot change a count.
// ---------------------------------------------------------------------------

void TransformScratch::reserve(std::size_t input_length, std::size_t padding) {
  // Grow-only: buffers keep their high-water size, so a warm scratch
  // never reallocates and the gauge below only fires on growth.
  bool grew = false;
  if (sum9.size() < input_length) {
    sum9.resize(input_length);
    conv.resize(input_length);
    sorted.resize(input_length);
    grew = true;
  }
  if (xf.size() < input_length + 2 * padding) {
    xf.resize(input_length + 2 * padding);
    x3.resize(input_length + 2 * padding);
    grew = true;
  }
  if (grew) obs::set_gauge("minirocket.scratch_bytes", bytes());
}

std::size_t TransformScratch::bytes() const noexcept {
  return (sum9.capacity() + conv.capacity() + sorted.capacity() +
          xf.capacity() + x3.capacity()) *
         sizeof(float);
}

TransformScratch& thread_transform_scratch() noexcept {
  thread_local TransformScratch scratch;
  return scratch;
}

MiniRocket::MiniRocket(MiniRocketOptions options) : options_(options) {
  if (options_.num_features == 0 || options_.max_dilations == 0) {
    throw std::invalid_argument("MiniRocket: zero feature/dilation budget");
  }
}

void MiniRocket::fit(const std::vector<Series>& train, util::Rng& rng) {
  const obs::Span span("minirocket.fit", "ml");
  std::vector<const Series*> ptrs(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) ptrs[i] = &train[i];
  const FitPlan plan = plan_fit(ptrs, rng);
  try {
    util::parallel_for(plan.samples.size(), /*chunk=*/1,
                       [&](std::size_t di) { fit_dilation(plan, di); });
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  // NaN or +-inf in the sampled series, or a large finite one whose
  // convolution overflows, leaves non-finite biases: a transform that
  // from_parts, and so the model store, would refuse to read back.
  if (!all_finite(biases_)) {
    biases_.clear();
    throw std::invalid_argument("MiniRocket::fit: non-finite bias");
  }
}

MiniRocket::FitPlan MiniRocket::plan_fit(std::span<const Series* const> train,
                                         util::Rng& rng) {
  if (train.empty()) throw std::invalid_argument("MiniRocket::fit: no data");
  input_length_ = train.front()->size();
  if (input_length_ < 9) {
    throw std::invalid_argument("MiniRocket::fit: series too short (< 9)");
  }
  for (const Series* s : train) {
    if (s->size() != input_length_) {
      throw std::invalid_argument("MiniRocket::fit: unequal series lengths");
    }
  }

  // Exponential dilations 2^0, 2^1, ... while the receptive field
  // (8 * dilation) fits in the series, capped at max_dilations.
  dilations_.clear();
  for (int d = 1; 8 * d < static_cast<int>(input_length_) &&
                  dilations_.size() < options_.max_dilations;
       d *= 2) {
    dilations_.push_back(d);
  }
  if (dilations_.empty()) dilations_.push_back(1);

  const std::size_t combos = minirocket_kernels().size() * dilations_.size();
  if (options_.pooling == Pooling::kMax) {
    // Max pooling emits one feature per combo; bias quantiles are unused
    // but biases_ doubles as the "fitted" flag, so keep one slot each.
    biases_per_combo_ = 1;
    biases_.assign(combos, 0.0);
    return {};
  }
  biases_per_combo_ =
      std::max<std::size_t>(1, (options_.num_features + combos - 1) / combos);
  biases_.assign(combos * biases_per_combo_, 0.0);

  // Biases come from quantiles of the convolution output on randomly
  // chosen training examples — one example per dilation, shared by the 84
  // kernels of that dilation so the expensive nine-tap sliding sum is
  // computed once.
  FitPlan plan;
  plan.samples.resize(dilations_.size());
  for (const Series*& sample : plan.samples) {
    sample = train[rng.uniform_int(static_cast<std::uint32_t>(train.size()))];
  }
  // Low-discrepancy quantile sequence (golden-ratio spacing), as in the
  // reference implementation, keeps biases spread without clustering.
  constexpr double kPhi = 0.6180339887498949;
  plan.quantiles.resize(biases_per_combo_);
  for (std::size_t q = 0; q < biases_per_combo_; ++q) {
    const double quantile = std::fmod(kPhi * static_cast<double>(q + 1), 1.0);
    const double rank = quantile * static_cast<double>(input_length_ - 1);
    BiasQuantile& bq = plan.quantiles[q];
    bq.lo = static_cast<std::size_t>(std::floor(rank));
    bq.hi = std::min(bq.lo + 1, input_length_ - 1);
    bq.frac = rank - static_cast<double>(bq.lo);
    for (const std::size_t r : {bq.lo, bq.hi}) {
      const auto at = std::lower_bound(plan.ranks.begin(), plan.ranks.end(), r);
      if (at == plan.ranks.end() || *at != r) plan.ranks.insert(at, r);
    }
  }
  return plan;
}

namespace {

// Multi-rank selection: permutes a[lo, hi) so that a[r] holds the r-th
// smallest value of the range for every r in `rank` (ascending,
// distinct, inside [lo, hi)), as std::sort would leave it.  Comparisons
// treat -0.0 and +0.0 as equal, so a selected zero's sign is whichever
// zero landed there; the input must hold no NaN.
//
// Each round partitions the range three ways around the median of its
// first, middle and last values: a branch-free pass moves the smaller
// values to the front, and a second pass gathers the pivot's equals
// after them.  Ranks inside the equal run are final, so a run of equal
// values (convolutions often hold long runs of exact zeros) is settled
// in one round.  The side with fewer ranks recurses and the other
// loops, so the stack depth stays below log2 of the rank count.
void select_ranks(float* a, std::size_t lo, std::size_t hi,
                  const std::size_t* rank, std::size_t m) {
  while (m > 0) {
    const float first = a[lo], middle = a[lo + (hi - lo) / 2];
    const float pivot = std::max(std::min(first, middle),
                                 std::min(std::max(first, middle), a[hi - 1]));
    std::size_t lt = lo;
    for (std::size_t i = lo; i < hi; ++i) {
      const float v = a[i];
      a[i] = a[lt];
      a[lt] = v;
      lt += v < pivot ? 1 : 0;
    }
    const std::size_t left = static_cast<std::size_t>(
        std::lower_bound(rank, rank + m, lt) - rank);
    if (left == m) {  // every rank lies below the pivot
      hi = lt;
      continue;
    }
    std::size_t eq = lt;
    for (std::size_t i = lt; i < hi; ++i) {
      const float v = a[i];
      a[i] = a[eq];
      a[eq] = v;
      eq += pivot < v ? 0 : 1;
    }
    const std::size_t right = static_cast<std::size_t>(
        std::lower_bound(rank + left, rank + m, eq) - rank);
    if (left <= m - right) {
      select_ranks(a, lo, lt, rank, left);
      lo = eq;
      rank += right;
      m -= right;
    } else {
      select_ranks(a, eq, hi, rank + right, m - right);
      hi = lt;
      m = left;
    }
  }
}

}  // namespace

void MiniRocket::fit_dilation(const FitPlan& plan, std::size_t di) {
  // The transform path's kernels, on this thread's own scratch: tiles of
  // one fit may run concurrently on different pool workers.
  TransformScratch& scratch = thread_transform_scratch();
  const Padded in = prepare(plan.samples[di]->data(), scratch);
  const auto n = static_cast<long long>(input_length_);
  const float* const conv = scratch.conv.data();
  float* const sorted = scratch.sorted.data();
  const std::size_t num_kernels = minirocket_kernels().size();
  backend::kernels().nine_tap_sum(in.x, n, dilations_[di],
                                  scratch.sum9.data());
  for (std::size_t ki = 0; ki < num_kernels; ++ki) {
    const std::array<int, 3>& k = minirocket_kernels()[ki];
    backend::kernel_conv(in.x3, n, scratch.sum9.data(), k[0], k[1], k[2],
                         dilations_[di], scratch.conv.data());
    bool has_nan = false;
    for (long long i = 0; i < n; ++i) {
      sorted[i] = conv[i];
      has_nan |= std::isnan(conv[i]);
    }
    // Selection reproduces std::sort's values at the ranks read below,
    // except in two cases where std::sort's bits depend on its own
    // element order: a NaN anywhere, or a rank landing on a zero when
    // both +0.0 and -0.0 occur.  Those combos take the sort itself.
    bool use_sort = has_nan;
    if (!use_sort) {
      select_ranks(sorted, 0, input_length_, plan.ranks.data(),
                   plan.ranks.size());
      bool zero_rank = false;
      for (const std::size_t r : plan.ranks) zero_rank |= sorted[r] == 0.0f;
      if (zero_rank) {
        bool pos_zero = false, neg_zero = false;
        for (long long i = 0; i < n; ++i) {
          const bool zero = conv[i] == 0.0f;
          neg_zero |= zero && std::signbit(conv[i]);
          pos_zero |= zero && !std::signbit(conv[i]);
        }
        use_sort = pos_zero && neg_zero;
      }
    }
    if (use_sort) {
      std::copy(conv, conv + n, sorted);
      std::sort(sorted, sorted + n);
    }
    // Interpolated in double, then rounded to float once: the value
    // transform compares against, so a training example's ties with its
    // own biases resolve as they do in transform.
    const std::size_t combo = ki * dilations_.size() + di;
    for (std::size_t q = 0; q < biases_per_combo_; ++q) {
      const auto [lo, hi, frac] = plan.quantiles[q];
      biases_[combo * biases_per_combo_ + q] = static_cast<float>(
          static_cast<double>(sorted[lo]) * (1.0 - frac) +
          static_cast<double>(sorted[hi]) * frac);
    }
  }
}

std::size_t MiniRocket::num_features() const noexcept {
  return biases_.size();
}

MiniRocket::Padded MiniRocket::prepare(const double* x,
                                       TransformScratch& scratch) const {
  const auto max_dilation =
      *std::max_element(dilations_.begin(), dilations_.end());
  const auto padding =
      static_cast<std::size_t>(backend::ppv_padding(max_dilation));
  scratch.reserve(input_length_, padding);
  // Each sample rounds to float once; 3.0f * xf[i] is the product the
  // oracle forms for every tap that reads x[i], and the zeros stand in
  // for the taps it skips.
  float* const xf = scratch.xf.data() + padding;
  float* const x3 = scratch.x3.data() + padding;
  std::fill(scratch.xf.data(), xf, 0.0f);
  std::fill(scratch.x3.data(), x3, 0.0f);
  for (std::size_t i = 0; i < input_length_; ++i) {
    xf[i] = static_cast<float>(x[i]);
    x3[i] = 3.0f * xf[i];
  }
  std::fill(xf + input_length_, xf + input_length_ + padding, 0.0f);
  std::fill(x3 + input_length_, x3 + input_length_ + padding, 0.0f);
  return {xf, x3};
}

void MiniRocket::transform_tile(const Padded& in, std::size_t di,
                                const backend::KernelTable& kt,
                                TransformScratch& scratch,
                                double* row) const {
  const auto n = static_cast<long long>(input_length_);
  const long long d = dilations_[di];
  const std::size_t num_dilations = dilations_.size();
  const auto& kernels = minirocket_kernels();
  float* const sum9 = scratch.sum9.data();
  kt.nine_tap_sum(in.x, n, d, sum9);
  if (options_.pooling == Pooling::kMax) {
    float* const conv = scratch.conv.data();
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const std::array<int, 3>& k = kernels[ki];
      backend::kernel_conv(in.x3, n, sum9, k[0], k[1], k[2], d, conv);
      float peak = conv[0];
      for (long long i = 1; i < n; ++i) peak = std::max(peak, conv[i]);
      row[ki * num_dilations + di] = peak;
    }
    return;
  }
  for (long long i = 0; i < n; ++i) sum9[i] = -sum9[i];
  backend::PpvCombo combo;
  combo.x3 = in.x3;
  combo.nsum = sum9;
  combo.n = n;
  combo.bpc = biases_per_combo_;
  combo.inv_n = 1.0 / static_cast<double>(input_length_);
  for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
    const std::array<int, 3>& k = kernels[ki];
    combo.sa = (k[0] - 4) * d;
    combo.sb = (k[1] - 4) * d;
    combo.sc = (k[2] - 4) * d;
    const std::size_t c = ki * num_dilations + di;
    combo.bias = biases_.data() + c * biases_per_combo_;
    kt.ppv_count(combo, scratch.conv.data(), row + c * biases_per_combo_);
  }
}

void MiniRocket::transform_into(std::span<const double> x,
                                std::span<double> out,
                                TransformScratch& scratch) const {
  if (!fitted()) throw std::logic_error("MiniRocket::transform: not fitted");
  if (x.size() != input_length_) {
    throw std::invalid_argument("MiniRocket::transform: length mismatch");
  }
  if (out.size() != num_features()) {
    throw std::invalid_argument("MiniRocket::transform: bad output size");
  }
  const backend::KernelTable& kt = backend::kernels();
  const Padded in = prepare(x.data(), scratch);
  for (std::size_t di = 0; di < dilations_.size(); ++di) {
    transform_tile(in, di, kt, scratch, out.data());
  }
}

linalg::Vector MiniRocket::transform(std::span<const double> x) const {
  const obs::Span span("minirocket.transform", "ml");
  obs::add_counter("minirocket.transforms");
  linalg::Vector features(num_features(), 0.0);
  transform_into(x, features, thread_transform_scratch());
  return features;
}

void MiniRocket::transform_batch_into(std::span<const Series* const> batch,
                                      double* out, std::size_t row_stride,
                                      std::size_t max_threads) const {
  if (!fitted()) throw std::logic_error("MiniRocket::transform: not fitted");
  for (const Series* s : batch) {
    if (s == nullptr || s->size() != input_length_) {
      throw std::invalid_argument(
          "MiniRocket::transform_batch: length mismatch");
    }
  }
  // One task per (series, dilation) tile: each writes the disjoint
  // feature slots of its combo column within its series' row, so the
  // matrix is bit-identical to per-series transforms for any thread
  // count.  Each tile pads its own series copy.  Per-thread scratch stays
  // warm across tiles and batches (pool workers persist), giving the
  // allocation-free steady state.
  const std::size_t num_dilations = dilations_.size();
  // Resolve the dispatch once; every worker tile uses the same table even
  // if force_isa() flips concurrently.
  const backend::KernelTable& kt = backend::kernels();
  try {
    util::parallel_for(
        batch.size() * num_dilations, /*chunk=*/1,
        [&](std::size_t t) {
          TransformScratch& scratch = thread_transform_scratch();
          const Padded in = prepare(batch[t / num_dilations]->data(), scratch);
          transform_tile(in, t % num_dilations, kt, scratch,
                         out + (t / num_dilations) * row_stride);
        },
        max_threads);
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
}

linalg::Matrix MiniRocket::transform_batch(std::span<const Series> batch,
                                           std::size_t max_threads) const {
  const obs::Span span("minirocket.transform_batch", "ml");
  obs::add_counter("minirocket.transforms", batch.size());
  linalg::Matrix out(batch.size(), num_features());
  std::vector<const Series*> ptrs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) ptrs[i] = &batch[i];
  transform_batch_into(ptrs, out.data().data(), out.cols(), max_threads);
  return out;
}

linalg::Matrix MiniRocket::transform(const std::vector<Series>& batch) const {
  return transform_batch(std::span<const Series>(batch));
}

MultiChannelMiniRocket::MultiChannelMiniRocket(MiniRocketOptions options)
    : options_(options) {}

void MultiChannelMiniRocket::fit(
    const std::vector<std::vector<Series>>& train, util::Rng& rng) {
  const obs::Span span("minirocket.fit_multichannel", "ml");
  if (train.empty()) {
    throw std::invalid_argument("MultiChannelMiniRocket::fit: no data");
  }
  const std::size_t channels = train.front().size();
  if (channels == 0) {
    throw std::invalid_argument("MultiChannelMiniRocket::fit: no channels");
  }
  for (const auto& sample : train) {
    if (sample.size() != channels) {
      throw std::invalid_argument(
          "MultiChannelMiniRocket::fit: channel count mismatch");
    }
  }
  MiniRocketOptions per_channel_options = options_;
  per_channel_options.num_features =
      std::max<std::size_t>(84, options_.num_features / channels);
  per_channel_.assign(channels, MiniRocket(per_channel_options));
  // Serial and in channel order: fork each channel's RNG and draw its
  // dilations' training examples.  Then every (channel, dilation) tile
  // fits on the pool, each writing only its own combos' biases.
  struct Tile {
    std::size_t channel = 0;
    std::size_t dilation = 0;
  };
  std::vector<Tile> tiles;
  std::vector<MiniRocket::FitPlan> plans(channels);
  std::vector<const Series*> channel_train(train.size());
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < train.size(); ++i) {
      channel_train[i] = &train[i][c];
    }
    util::Rng channel_rng = rng.fork(0xABCD1234ULL + c);
    plans[c] = per_channel_[c].plan_fit(channel_train, channel_rng);
    for (std::size_t di = 0; di < plans[c].samples.size(); ++di) {
      tiles.push_back({c, di});
    }
  }
  try {
    util::parallel_for(tiles.size(), /*chunk=*/1, [&](std::size_t t) {
      const Tile& tile = tiles[t];
      per_channel_[tile.channel].fit_dilation(plans[tile.channel],
                                              tile.dilation);
    });
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  // The single-channel fit's rule: every bias must be finite.
  for (const MiniRocket& mr : per_channel_) {
    if (!all_finite(mr.biases())) {
      per_channel_.clear();
      throw std::invalid_argument(
          "MultiChannelMiniRocket::fit: non-finite bias");
    }
  }
}

std::size_t MultiChannelMiniRocket::num_features() const {
  std::size_t total = 0;
  for (const auto& mr : per_channel_) total += mr.num_features();
  return total;
}

void MultiChannelMiniRocket::transform_into(
    const std::vector<Series>& sample, std::span<double> out,
    TransformScratch& scratch) const {
  if (!fitted()) {
    throw std::logic_error("MultiChannelMiniRocket::transform: not fitted");
  }
  if (sample.size() != per_channel_.size()) {
    throw std::invalid_argument(
        "MultiChannelMiniRocket::transform: channel count mismatch");
  }
  if (out.size() != num_features()) {
    throw std::invalid_argument(
        "MultiChannelMiniRocket::transform: bad output size");
  }
  const obs::Span span("minirocket.transform", "ml");
  obs::add_counter("minirocket.transforms");
  std::size_t offset = 0;
  for (std::size_t c = 0; c < per_channel_.size(); ++c) {
    const std::size_t nf = per_channel_[c].num_features();
    per_channel_[c].transform_into(sample[c], out.subspan(offset, nf),
                                   scratch);
    offset += nf;
  }
}

linalg::Vector MultiChannelMiniRocket::transform(
    const std::vector<Series>& sample) const {
  linalg::Vector out(num_features(), 0.0);
  transform_into(sample, out, thread_transform_scratch());
  return out;
}

linalg::Matrix MultiChannelMiniRocket::transform(
    const std::vector<std::vector<Series>>& batch,
    std::size_t max_threads) const {
  if (!fitted()) {
    throw std::logic_error("MultiChannelMiniRocket::transform: not fitted");
  }
  const obs::Span span("minirocket.transform_batch", "ml");
  obs::add_counter("minirocket.transforms", batch.size());
  for (const auto& sample : batch) {
    if (sample.size() != per_channel_.size()) {
      throw std::invalid_argument(
          "MultiChannelMiniRocket::transform: channel count mismatch");
    }
  }
  linalg::Matrix out(batch.size(), num_features());
  std::vector<const Series*> ptrs(batch.size());
  std::size_t offset = 0;
  for (std::size_t c = 0; c < per_channel_.size(); ++c) {
    for (std::size_t i = 0; i < batch.size(); ++i) ptrs[i] = &batch[i][c];
    per_channel_[c].transform_batch_into(ptrs, out.data().data() + offset,
                                         out.cols(), max_threads);
    offset += per_channel_[c].num_features();
  }
  return out;
}

}  // namespace p2auth::ml
