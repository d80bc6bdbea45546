// Lightweight tracing: RAII scoped spans with nesting, recorded into the
// calling thread's telemetry sink (obs/sink.cpp, shared with
// obs/metrics.hpp) and exported to the Chrome trace-event JSON format
// (open chrome://tracing or https://ui.perfetto.dev and load the file).
//
// Each span records its duration twice over: once as an observation of
// the histogram named after it (see obs/metrics.hpp), always, and once
// as a Chrome-trace event while the event budget below allows.
//
// Threading model: each thread records into its own sink under that
// sink's lock.  `snapshot_trace()` walks every thread's sink plus the
// events of threads that have exited, so it sees running threads live.
//
// Memory bound: the whole process retains at most `kMaxRetainedSpans`
// events.  A span completing past the cap still feeds its histogram, but
// its event is dropped and counted in `dropped_span_count()`;
// `reset_trace()` discards the retained events and returns their slots
// to the budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace p2auth::obs {

// Process-wide cap on retained span events (3.5 MiB of events).
inline constexpr std::size_t kMaxRetainedSpans = std::size_t{1} << 16;

// One completed span on the shared monotonic timeline (obs::now_us).
// Name and category view the strings the Span was built from.
struct SpanEvent {
  std::string_view name;
  std::string_view category;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
  std::uint32_t thread_id = 0;  // dense obs-assigned id (1 = first thread)
  std::uint32_t depth = 0;      // nesting depth (0 = top level)
};

// RAII scoped span.  Construction samples the clock and pushes one
// nesting level; destruction records the duration into histogram `name`
// and the completed event into the calling thread's sink.  `name` and
// `category` must have static storage (string literals): events keep
// views of them for the life of the process.  When observability is
// disabled at construction the span is inert (and stays inert even if
// recording is re-enabled before destruction, so depths always balance).
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "p2auth");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  std::string_view name_;
  std::string_view category_;
  std::int64_t start_us_ = 0;
};

// Nesting depth of the calling thread (number of live active spans).
std::uint32_t current_span_depth() noexcept;

// Every retained event, from live and exited threads alike, sorted by
// (start_us, thread_id, duration descending) so a parent precedes its
// children.  Does not clear anything.
std::vector<SpanEvent> snapshot_trace();

// Number of events dropped because the process-wide cap was reached
// (since the last reset_trace()).
std::uint64_t dropped_span_count() noexcept;

// Discards every retained event, returning the slots to the
// process-wide budget, and zeroes the drop count.  Histograms are
// untouched (see reset_metrics()).
void reset_trace();

// Chrome trace-event JSON ("X" complete events, timestamps in us).
void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanEvent>& events);
std::string chrome_trace_json(const std::vector<SpanEvent>& events);

// snapshot_trace() + write to `path`; throws std::runtime_error on I/O
// failure.
void write_chrome_trace_file(const std::string& path);

}  // namespace p2auth::obs
