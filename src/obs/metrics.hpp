// Metrics: named counters, gauges, and fixed-bucket latency histograms
// with p50/p95/p99 readout.  Every obs::Span also feeds the histogram
// named after it (obs/trace.hpp).
//
// Hot-path cost model: every record call is guarded by obs::enabled()
// (one relaxed atomic load; a compile-time constant when the build is
// compiled out) and then takes only the calling thread's own sink lock
// (obs/sink.cpp), which is uncontended except while a snapshot reads
// that sink.  `snapshot_metrics()` walks every thread's sink plus the
// totals of threads that have exited, so it sees running threads live.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace p2auth::obs {

// Histogram bucket upper bounds in microseconds (1-2-5 decades from 1 us
// to 10 s).  Values above the last bound land in an overflow bucket.
inline constexpr std::array<double, 22> kHistogramBoundsUs = {
    1.0,   2.0,   5.0,   10.0,  20.0,  50.0,  1e2, 2e2, 5e2, 1e3, 2e3,
    5e3,   1e4,   2e4,   5e4,   1e5,   2e5,   5e5, 1e6, 2e6, 5e6, 1e7};
inline constexpr std::size_t kHistogramBuckets =
    kHistogramBoundsUs.size() + 1;  // + overflow

// Adds `delta` to the named counter.
void add_counter(std::string_view name, std::uint64_t delta = 1);

// Sets the named gauge; across threads the most recent set wins.
void set_gauge(std::string_view name, double value);

// Records one latency observation (microseconds) into the named
// histogram.
void observe_latency_us(std::string_view name, double us);

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean_us() const noexcept {
    return count == 0 ? 0.0 : sum_us / static_cast<double>(count);
  }
  // Percentile estimate (p in [0, 1]) by linear interpolation inside the
  // containing bucket, clamped to the observed [min, max].
  double percentile_us(double p) const noexcept;
  double p50_us() const noexcept { return percentile_us(0.50); }
  double p95_us() const noexcept { return percentile_us(0.95); }
  double p99_us() const noexcept { return percentile_us(0.99); }
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Counter value, 0 when never touched.
  std::uint64_t counter(const std::string& name) const noexcept;
};

// Merged view of every thread's records, live and exited.
MetricsSnapshot snapshot_metrics();

// Clears every thread's counters, gauges and histograms.  Span events
// are untouched (see reset_trace()).
void reset_metrics();

}  // namespace p2auth::obs
