// Sample statistics and load-shape generators for the benchmark.
//
// Header-only so the unit tests exercise exactly what the workloads use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// A percentile needs this many samples strictly above its rank before the
// benchmark calls it measured rather than extrapolated from a few maxima.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;       // nearest-rank order statistic
  std::size_t count = 0;    // samples the value was taken from
  std::size_t beyond = 0;   // samples ranked above it
  bool supported = false;   // beyond >= kMinSamplesBeyond
};

// Nearest-rank percentile (q in (0, 1]): the ceil(q * n)-th smallest
// sample.  An empty input gives value 0 and supported == false.
inline Percentile percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must be in (0, 1]");
  }
  Percentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.supported = out.beyond >= kMinSamplesBeyond;
  return out;
}

// Smallest sample count for which percentile(q) is supported.
inline std::size_t min_samples_for(double q) {
  std::size_t n = kMinSamplesBeyond + 1;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) -
                                                1e-9)) <
         kMinSamplesBeyond) {
    ++n;
  }
  return n;
}

// Statistics over consecutive blocks of a run.  On a shared host, other
// tenants' load slows whole stretches of a run (by up to ~1.7x per
// decision, for seconds at a time), and how much of a run is slowed varies
// from run to run.  A block statistic is therefore taken in the blocks'
// fast quarter: the lower quartile of per-block times, the upper quartile
// of per-block rates.  It stays on uncontended blocks while at least a
// quarter of the run is uncontended, and a slower program raises it as it
// raises every block.
struct Blocked {
  double value = 0.0;
  std::size_t blocks = 0;
  Percentile block;            // support of the percentile in the smallest block
  std::vector<double> values;  // per block, in time order
};

// Nearest-rank quantile `q` of per-block values (q = 0.25: the lower
// quartile).  Needs at least one value.
inline double over_blocks(std::vector<double> values, double q) {
  return percentile(std::move(values), q).value;
}

// Lower quartile over `blocks` of each block's percentile q.
inline Blocked percentile_over_blocks(
    const std::vector<std::vector<double>>& blocks, double q) {
  Blocked out;
  out.blocks = blocks.size();
  for (const std::vector<double>& b : blocks) {
    const Percentile p = percentile(b, q);
    if (out.values.empty() || p.count < out.block.count) out.block = p;
    out.values.push_back(p.value);
  }
  if (!out.values.empty()) out.value = over_blocks(out.values, 0.25);
  return out;
}

// Splits `samples` (in the order they were taken) into at most 9
// consecutive blocks of whole rounds of `round` samples: the most blocks
// that each hold at least `min_each`.  A workload that cycles through a
// fixed set of inputs passes the set's size as `round`, so every block
// holds the same inputs.  Samples after the last whole round are left out
// unless there is no whole round.
inline std::vector<std::vector<double>> split_blocks(
    const std::vector<double>& samples, std::size_t min_each,
    std::size_t round = 1) {
  const std::size_t rounds = samples.size() / round;
  if (rounds == 0) return {samples};
  std::size_t blocks = 9;
  while (blocks > 1 && rounds / blocks * round < min_each) --blocks;
  const std::size_t per = rounds / blocks * round;
  const auto used = samples.begin() + static_cast<std::ptrdiff_t>(rounds * round);
  std::vector<std::vector<double>> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * per);
    const auto last =
        b + 1 == blocks ? used : first + static_cast<std::ptrdiff_t>(per);
    out.emplace_back(first, last);
  }
  return out;
}

// Percentile q as the lower quartile over the most consecutive blocks (up
// to 9, of whole rounds) in which q is still supported.
inline Blocked blocked_percentile(const std::vector<double>& samples, double q,
                                  std::size_t round = 1) {
  return percentile_over_blocks(
      split_blocks(samples, min_samples_for(q), round), q);
}

// Operations per second as the upper quartile over blocks of block size /
// summed block duration (durations in µs).
inline double rate_over_blocks(const std::vector<std::vector<double>>& blocks) {
  std::vector<double> rates;
  for (const std::vector<double>& b : blocks) {
    double busy_us = 0.0;
    for (const double d : b) busy_us += d;
    rates.push_back(busy_us > 0.0 ? 1e6 * static_cast<double>(b.size()) / busy_us
                                  : 0.0);
  }
  return rates.empty() ? 0.0 : over_blocks(std::move(rates), 0.75);
}

// Rate over blocks of `durations_us`, split into blocks of whole rounds
// holding at least `min_each` operations.
inline double blocked_rate(const std::vector<double>& durations_us,
                           std::size_t min_each, std::size_t round = 1) {
  return durations_us.empty()
             ? 0.0
             : rate_over_blocks(split_blocks(durations_us, min_each, round));
}

// Completions per second in each of `windows` equal time windows of
// [0, wall_s); `completions_s` are completion times from the start.
inline std::vector<double> window_rates(const std::vector<double>& completions_s,
                                        double wall_s, std::size_t windows) {
  std::vector<double> rates(windows, 0.0);
  if (!(wall_s > 0.0) || windows == 0) return rates;
  const double width = wall_s / static_cast<double>(windows);
  for (const double t : completions_s) {
    const auto w = static_cast<std::size_t>(t / width);
    rates[std::min(w, windows - 1)] += 1.0;
  }
  for (double& r : rates) r /= width;
  return rates;
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  // (q3 - q1) / median; 0 when the median is 0.
  double relative_iqr() const {
    return median != 0.0 ? (q3 - q1) / median : 0.0;
  }
};

// Quartiles by the same rule as Python's statistics.quantiles(data, n=4)
// (the default "exclusive" method), so numbers printed here match the
// steadiness check in spread.py.  Needs at least two samples.
inline Quartiles quartiles(std::vector<double> samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("quartiles: need at least two samples");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<long long>(samples.size());
  const long long m = n + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - j * 4;  // may leave [0, 4] after clamping
    cut[i - 1] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (const double v : samples) total += v;
  return total / static_cast<double>(samples.size());
}

// Open-loop send schedule: Poisson arrivals at `rate_hz` over
// [0, duration_s), as offsets in seconds from the start.  The same seed
// always gives the same schedule.
inline std::vector<double> poisson_schedule(double rate_hz, double duration_s,
                                            std::uint64_t seed) {
  if (!(rate_hz > 0.0) || !(duration_s >= 0.0)) {
    throw std::invalid_argument("poisson_schedule: bad rate or duration");
  }
  p2auth::util::Rng rng(seed, 0x5ced01e5ULL);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(rate_hz * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_hz;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

// Zipf(s) sampler over [0, n): rank 0 is the most popular.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(p2auth::util::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
