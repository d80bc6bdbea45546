#include "ml/minirocket.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "backend/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::ml {

void MiniRocket::save(std::ostream& os) const {
  if (!fitted()) throw std::logic_error("MiniRocket::save: not fitted");
  util::write_string(os, "minirocket.v1", "");
  util::write_u64(os, "num_features_opt", options_.num_features);
  util::write_u64(os, "max_dilations", options_.max_dilations);
  util::write_u64(os, "pooling", static_cast<std::uint64_t>(options_.pooling));
  util::write_u64(os, "input_length", input_length_);
  util::write_int_vector(os, "dilations", dilations_);
  util::write_u64(os, "biases_per_combo", biases_per_combo_);
  util::write_vector(os, "biases", biases_);
}

MiniRocket MiniRocket::load(std::istream& is) {
  (void)util::read_string(is, "minirocket.v1");
  MiniRocketOptions options;
  options.num_features = util::read_u64(is, "num_features_opt");
  options.max_dilations = util::read_u64(is, "max_dilations");
  const auto pooling = util::read_u64(is, "pooling");
  if (pooling > static_cast<std::uint64_t>(Pooling::kMax)) {
    throw util::SerializeError(util::SerializeErrc::kBadValue,
                               "MiniRocket::load: bad pooling value");
  }
  options.pooling = static_cast<Pooling>(pooling);
  const std::size_t input_length = util::read_u64(is, "input_length");
  std::vector<int> dilations = util::read_int_vector(is, "dilations");
  const std::size_t biases_per_combo = util::read_u64(is, "biases_per_combo");
  std::vector<double> biases = util::read_vector(is, "biases");
  return from_parts(options, input_length, std::move(dilations),
                    biases_per_combo, std::move(biases));
}

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
  // A dilation outside [1, input_length) could only come from a corrupted
  // stream (fit never produces one) and would index far outside every
  // shift partition downstream.
  for (const int d : rocket.dilations_) {
    if (d < 1) {
      throw util::SerializeError(util::SerializeErrc::kBadValue,
                                 "MiniRocket::from_parts: bad dilation");
    }
  }
  // A corrupted template store must reject loudly here, not surface as
  // NaN feature values (and hence NaN decision scores) at auth time.
  for (const double b : rocket.biases_) {
    if (!std::isfinite(b)) {
      throw util::SerializeError(util::SerializeErrc::kBadValue,
                                 "MiniRocket::from_parts: non-finite bias");
    }
  }
  rocket.build_bias_index();
  return rocket;
}

void MultiChannelMiniRocket::save(std::ostream& os) const {
  if (!fitted()) {
    throw std::logic_error("MultiChannelMiniRocket::save: not fitted");
  }
  util::write_string(os, "mc-minirocket.v1", "");
  util::write_u64(os, "num_features_opt", options_.num_features);
  util::write_u64(os, "channels", per_channel_.size());
  for (const MiniRocket& mr : per_channel_) mr.save(os);
}

MultiChannelMiniRocket MultiChannelMiniRocket::load(std::istream& is) {
  (void)util::read_string(is, "mc-minirocket.v1");
  MiniRocketOptions options;
  options.num_features = util::read_u64(is, "num_features_opt");
  const std::uint64_t channels = util::read_u64(is, "channels");
  if (channels == 0 || channels > 64) {
    throw util::SerializeError(util::SerializeErrc::kBadShape,
                               "MultiChannelMiniRocket::load: bad channels");
  }
  std::vector<MiniRocket> per_channel;
  per_channel.reserve(channels);
  for (std::uint64_t c = 0; c < channels; ++c) {
    per_channel.push_back(MiniRocket::load(is));
  }
  return from_parts(options, std::move(per_channel));
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
// Reference (oracle) path: the original scalar implementation.  Its
// per-element floating-point operation order is the bit-exactness
// contract the fast path below must honour: each output element
// accumulates its in-range taps in ascending tap order, starting from
// 0.0 (nine-tap sum) or -sum9 (kernel completion).
// ---------------------------------------------------------------------------

namespace reference {

Series nine_tap_sum(std::span<const double> x, int dilation) {
  const auto n = static_cast<long long>(x.size());
  Series sum(x.size(), 0.0);
  for (int j = 0; j < 9; ++j) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      sum[static_cast<std::size_t>(i)] +=
          x[static_cast<std::size_t>(i + shift)];
    }
  }
  return sum;
}

namespace {

// Completes the convolution for one kernel from the shared nine-tap sum.
void kernel_from_sum(std::span<const double> x, std::span<const double> sum9,
                     const std::array<int, 3>& kernel, int dilation,
                     Series& out) {
  const auto n = static_cast<long long>(x.size());
  out.assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = -sum9[i];
  for (const int j : kernel) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] +=
          3.0 * x[static_cast<std::size_t>(i + shift)];
    }
  }
}

}  // namespace

linalg::Vector transform(const MiniRocket& model, std::span<const double> x) {
  if (!model.fitted()) {
    throw std::logic_error("reference::transform: not fitted");
  }
  if (x.size() != model.input_length()) {
    throw std::invalid_argument("reference::transform: length mismatch");
  }
  const auto& kernels = minirocket_kernels();
  const auto& dilations = model.dilations();
  const std::span<const double> biases = model.biases();
  const std::size_t biases_per_combo = model.biases_per_combo();
  linalg::Vector features(model.num_features(), 0.0);
  const double inv_n = 1.0 / static_cast<double>(x.size());
  Series conv;
  if (model.pooling() == Pooling::kMax) {
    for (std::size_t di = 0; di < dilations.size(); ++di) {
      const Series sum9 = nine_tap_sum(x, dilations[di]);
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        kernel_from_sum(x, sum9, kernels[ki], dilations[di], conv);
        double peak = conv.front();
        for (const double v : conv) peak = std::max(peak, v);
        features[ki * dilations.size() + di] = peak;
      }
    }
    return features;
  }
  std::vector<std::size_t> counts(biases_per_combo);
  for (std::size_t di = 0; di < dilations.size(); ++di) {
    const Series sum9 = nine_tap_sum(x, dilations[di]);
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      kernel_from_sum(x, sum9, kernels[ki], dilations[di], conv);
      const std::size_t combo = ki * dilations.size() + di;
      const double* bias = &biases[combo * biases_per_combo];
      std::fill(counts.begin(), counts.end(), 0);
      for (const double v : conv) {
        for (std::size_t q = 0; q < biases_per_combo; ++q) {
          counts[q] += (v > bias[q]) ? 1 : 0;
        }
      }
      for (std::size_t q = 0; q < biases_per_combo; ++q) {
        features[combo * biases_per_combo + q] =
            static_cast<double>(counts[q]) * inv_n;
      }
    }
  }
  return features;
}

linalg::Matrix transform_batch(const MiniRocket& model,
                               const std::vector<Series>& batch) {
  linalg::Matrix out(batch.size(), model.num_features());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const linalg::Vector f = transform(model, batch[i]);
    std::copy(f.begin(), f.end(), out.row(i).begin());
  }
  return out;
}

}  // namespace reference

Series dilated_convolution(std::span<const double> x,
                           const std::array<int, 3>& kernel, int dilation) {
  if (dilation < 1) {
    throw std::invalid_argument("dilated_convolution: dilation >= 1");
  }
  const Series sum9 = reference::nine_tap_sum(x, dilation);
  const auto n = static_cast<long long>(x.size());
  Series out(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = -sum9[i];
  for (const int j : kernel) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] +=
          3.0 * x[static_cast<std::size_t>(i + shift)];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fast path.
//
// The hot kernels (nine-tap sliding sum, kernel completion, fused PPV
// pooling) live in src/backend as per-ISA translation units; this file
// only drives them through the runtime-dispatched KernelTable.  Loop
// structure: per (series, dilation) tile, the nine-tap sliding sum is
// computed once into scratch, then each of the 84 kernels completes its
// response into one reused buffer and pooling runs as a contiguous scan.
// Nothing is heap-allocated once the scratch is warm.  Every backend
// keeps the reference path's per-element accumulation order, so outputs
// are bit-identical to `reference::transform` on every ISA.
// ---------------------------------------------------------------------------

void TransformScratch::reserve(std::size_t input_length,
                               std::size_t biases_per_combo) {
  // Grow-only: buffers keep their high-water size, so a warm scratch
  // never reallocates and the gauge below only fires on growth.
  bool grew = false;
  if (sum9.size() < input_length) {
    sum9.resize(input_length);
    conv.resize(input_length);
    sorted.resize(input_length);
    grew = true;
  }
  // +1: the counting histogram has one bucket per "number of sorted
  // biases below the element" outcome, which ranges 0..biases_per_combo.
  if (counts.size() < biases_per_combo + 1) {
    counts.resize(biases_per_combo + 1);
    grew = true;
  }
  if (grew) obs::set_gauge("minirocket.scratch_bytes", bytes());
}

std::size_t TransformScratch::bytes() const noexcept {
  return (sum9.capacity() + conv.capacity() + sorted.capacity()) *
             sizeof(double) +
         counts.capacity() * sizeof(std::size_t);
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
  const std::vector<const Series*> samples = plan_fit(ptrs, rng);
  try {
    util::parallel_for(samples.size(), /*chunk=*/1, [&](std::size_t di) {
      fit_dilation(di, *samples[di]);
    });
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  build_bias_index();
}

std::vector<const Series*> MiniRocket::plan_fit(
    std::span<const Series* const> train, util::Rng& rng) {
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
  std::vector<const Series*> samples(dilations_.size());
  for (const Series*& sample : samples) {
    sample = train[rng.uniform_int(static_cast<std::uint32_t>(train.size()))];
  }
  return samples;
}

void MiniRocket::fit_dilation(std::size_t di, const Series& sample) {
  // Low-discrepancy quantile sequence (golden-ratio spacing), as in the
  // reference implementation, keeps biases spread without clustering.
  constexpr double kPhi = 0.6180339887498949;
  // The transform path's kernels, on this thread's own scratch: tiles of
  // one fit may run concurrently on different pool workers.
  TransformScratch& scratch = thread_transform_scratch();
  scratch.reserve(input_length_, biases_per_combo_);
  const backend::KernelTable& kt = backend::kernels();
  const auto n = static_cast<long long>(input_length_);
  const std::size_t num_kernels = minirocket_kernels().size();
  kt.nine_tap_sum(sample.data(), n, dilations_[di], scratch.sum9.data());
  for (std::size_t ki = 0; ki < num_kernels; ++ki) {
    const std::array<int, 3>& k = minirocket_kernels()[ki];
    kt.kernel_conv(sample.data(), n, scratch.sum9.data(), k[0], k[1], k[2],
                   dilations_[di], scratch.conv.data());
    double* const sorted = scratch.sorted.data();
    std::copy(scratch.conv.data(), scratch.conv.data() + n, sorted);
    std::sort(sorted, sorted + n);
    const std::size_t combo = ki * dilations_.size() + di;
    for (std::size_t q = 0; q < biases_per_combo_; ++q) {
      const double quantile = std::fmod(kPhi * static_cast<double>(q + 1), 1.0);
      const double rank = quantile * static_cast<double>(input_length_ - 1);
      const auto lo = static_cast<std::size_t>(std::floor(rank));
      const std::size_t hi = std::min(lo + 1, input_length_ - 1);
      const double frac = rank - static_cast<double>(lo);
      biases_[combo * biases_per_combo_ + q] =
          sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    }
  }
}

void MiniRocket::build_bias_index() {
  if (options_.pooling != Pooling::kPpv) {
    sorted_biases_.clear();
    bias_rank_.clear();
    bias_search_steps_ = 0;
    bias_pad_stride_ = 0;
    return;
  }
  // Pad every combo to 2^steps - 1 slots so ppv_pool_steps<steps> can run
  // a fixed number of search steps; +inf sentinels never compare < any
  // probe, so they are invisible to the counts.
  bias_search_steps_ = 1;
  while (((std::size_t{1} << bias_search_steps_) - 1) < biases_per_combo_) {
    ++bias_search_steps_;
  }
  // The backend pooling kernels dispatch on the step count; a wider
  // search could only come from an absurd feature budget or a corrupted
  // model stream, and silently indexing past the dispatch range in the
  // backend would be an out-of-bounds read.
  if (bias_search_steps_ > backend::kMaxPpvSearchSteps) {
    throw std::invalid_argument(
        "MiniRocket: biases_per_combo exceeds the supported maximum");
  }
  bias_pad_stride_ = (std::size_t{1} << bias_search_steps_) - 1;
  const std::size_t combos = biases_.size() / biases_per_combo_;
  sorted_biases_.assign(combos * bias_pad_stride_,
                        std::numeric_limits<double>::infinity());
  bias_rank_.assign(biases_.size(), 0);
  std::vector<std::uint32_t> order(biases_per_combo_);
  for (std::size_t combo = 0; combo < combos; ++combo) {
    const double* b = biases_.data() + combo * biases_per_combo_;
    for (std::size_t q = 0; q < biases_per_combo_; ++q) {
      order[q] = static_cast<std::uint32_t>(q);
    }
    // Ties get arbitrary-but-stable positions; equal biases have equal
    // counts, so any tie order produces the same features.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return b[x] < b[y];
                     });
    for (std::size_t t = 0; t < biases_per_combo_; ++t) {
      sorted_biases_[combo * bias_pad_stride_ + t] = b[order[t]];
      bias_rank_[combo * biases_per_combo_ + order[t]] =
          static_cast<std::uint32_t>(t);
    }
  }
}

std::size_t MiniRocket::num_features() const noexcept {
  return biases_.size();
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
  scratch.reserve(input_length_, biases_per_combo_);
  const backend::KernelTable& kt = backend::kernels();
  const auto n = static_cast<long long>(x.size());
  const std::size_t num_dilations = dilations_.size();
  const auto& kernels = minirocket_kernels();
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (std::size_t di = 0; di < num_dilations; ++di) {
    kt.nine_tap_sum(x.data(), n, dilations_[di], scratch.sum9.data());
    if (options_.pooling == Pooling::kMax) {
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const std::array<int, 3>& k = kernels[ki];
        kt.kernel_conv(x.data(), n, scratch.sum9.data(), k[0], k[1], k[2],
                       dilations_[di], scratch.conv.data());
        const double* conv = scratch.conv.data();
        double peak = conv[0];
        for (long long i = 1; i < n; ++i) peak = std::max(peak, conv[i]);
        out[ki * num_dilations + di] = peak;
      }
      continue;
    }
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const std::array<int, 3>& k = kernels[ki];
      kt.kernel_conv(x.data(), n, scratch.sum9.data(), k[0], k[1], k[2],
                     dilations_[di], scratch.conv.data());
      const std::size_t combo = ki * num_dilations + di;
      kt.ppv_pool(scratch.conv.data(), n,
                  sorted_biases_.data() + combo * bias_pad_stride_,
                  bias_rank_.data() + combo * biases_per_combo_,
                  biases_per_combo_, bias_search_steps_, inv_n,
                  scratch.counts.data(),
                  out.data() + combo * biases_per_combo_);
    }
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
  // count.  Per-thread scratch stays warm across tiles and batches
  // (pool workers persist), giving the allocation-free steady state.
  const std::size_t num_dilations = dilations_.size();
  const std::size_t tiles = batch.size() * num_dilations;
  const auto n = static_cast<long long>(input_length_);
  const auto& kernels = minirocket_kernels();
  const double inv_n = 1.0 / static_cast<double>(input_length_);
  // Resolve the dispatch once; every worker tile uses the same table even
  // if force_isa() flips concurrently.
  const backend::KernelTable& kt = backend::kernels();
  try {
    util::parallel_for(
        tiles, /*chunk=*/1,
        [&](std::size_t t) {
          const std::size_t s = t / num_dilations;
          const std::size_t di = t % num_dilations;
          const double* x = batch[s]->data();
          double* row = out + s * row_stride;
          TransformScratch& scratch = thread_transform_scratch();
          scratch.reserve(input_length_, biases_per_combo_);
          kt.nine_tap_sum(x, n, dilations_[di], scratch.sum9.data());
          for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
            const std::array<int, 3>& k = kernels[ki];
            kt.kernel_conv(x, n, scratch.sum9.data(), k[0], k[1], k[2],
                           dilations_[di], scratch.conv.data());
            const double* conv = scratch.conv.data();
            const std::size_t combo = ki * num_dilations + di;
            if (options_.pooling == Pooling::kMax) {
              double peak = conv[0];
              for (long long i = 1; i < n; ++i) peak = std::max(peak, conv[i]);
              row[combo] = peak;
              continue;
            }
            kt.ppv_pool(conv, n,
                        sorted_biases_.data() + combo * bias_pad_stride_,
                        bias_rank_.data() + combo * biases_per_combo_,
                        biases_per_combo_, bias_search_steps_, inv_n,
                        scratch.counts.data(),
                        row + combo * biases_per_combo_);
          }
        },
        max_threads);
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
}

linalg::Matrix MiniRocket::transform_batch(std::span<const Series> batch,
                                           std::size_t max_threads) const {
  const obs::Span span("minirocket.transform_batch", "ml");
  const obs::ScopedLatency latency("minirocket.batch_us");
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
  std::vector<std::vector<const Series*>> samples(channels);
  std::vector<const Series*> channel_train(train.size());
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < train.size(); ++i) {
      channel_train[i] = &train[i][c];
    }
    util::Rng channel_rng = rng.fork(0xABCD1234ULL + c);
    samples[c] = per_channel_[c].plan_fit(channel_train, channel_rng);
    for (std::size_t di = 0; di < samples[c].size(); ++di) {
      tiles.push_back({c, di});
    }
  }
  try {
    util::parallel_for(tiles.size(), /*chunk=*/1, [&](std::size_t t) {
      const Tile& tile = tiles[t];
      per_channel_[tile.channel].fit_dilation(
          tile.dilation, *samples[tile.channel][tile.dilation]);
    });
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  for (MiniRocket& mr : per_channel_) mr.build_bias_index();
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
  const obs::ScopedLatency latency("minirocket.batch_us");
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
