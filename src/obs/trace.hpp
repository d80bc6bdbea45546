// Lightweight tracing: RAII scoped spans with nesting, buffered in
// per-thread logs (no locks on the record path) and merged at flush into
// a process-wide event list that exports to the Chrome trace-event JSON
// format (open chrome://tracing or https://ui.perfetto.dev and load the
// file).
//
// Threading model: each thread appends completed spans to its own
// buffer; the buffer is folded into the global list when the thread
// exits or calls `flush_thread_trace()`.  `snapshot_trace()` sees the
// global list plus the calling thread's buffer, so a single-threaded
// program (and any program that joins its workers first) always gets a
// complete trace without synchronisation on the hot path.
//
// Memory bound: the whole process retains at most `kMaxRetainedSpans`
// events, counted across the global list and every thread's buffer.  A
// span completing past the cap is dropped and counted in
// `dropped_span_count()`; `reset_trace()` discards the retained events
// and returns their slots to the budget.  Pool workers flush after every
// job, so without the shared cap a long-running process would grow the
// global list without limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace p2auth::obs {

// Process-wide cap on retained span events (about 6 MiB of events).
inline constexpr std::size_t kMaxRetainedSpans = std::size_t{1} << 16;

// One completed span on the shared monotonic timeline (obs::now_us).
struct SpanEvent {
  std::string name;
  std::string category;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
  std::uint32_t thread_id = 0;  // dense obs-assigned id (1 = first thread)
  std::uint32_t depth = 0;      // nesting depth (0 = top level)
};

// RAII scoped span.  Construction samples the clock and pushes one
// nesting level; destruction records the completed event into the
// calling thread's buffer.  When observability is disabled at
// construction the span is inert (and stays inert even if recording is
// re-enabled before destruction, so depths always balance).
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "p2auth");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  std::string name_;
  std::string category_;
  std::int64_t start_us_ = 0;
};

// Nesting depth of the calling thread (number of live active spans).
std::uint32_t current_span_depth() noexcept;

// Folds the calling thread's buffered events into the global list.
// Called automatically at thread exit.
void flush_thread_trace();

// All flushed events plus the calling thread's buffer, sorted by
// (start_us, thread_id, duration descending) so a parent precedes its
// children.  Does not clear anything.
std::vector<SpanEvent> snapshot_trace();

// Number of events dropped because the process-wide cap was reached
// (since the last reset_trace()).
std::uint64_t dropped_span_count() noexcept;

// Clears the global list and the calling thread's buffer, returning
// their slots to the process-wide budget, and zeroes the drop count.
// Threads still recording concurrently are unaffected (their later
// flushes append to the fresh list, and their buffered events keep
// their slots until a later reset discards them).
void reset_trace();

// Chrome trace-event JSON ("X" complete events, timestamps in us).
void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanEvent>& events);
std::string chrome_trace_json(const std::vector<SpanEvent>& events);

// snapshot_trace() + write to `path`; throws std::runtime_error on I/O
// failure.
void write_chrome_trace_file(const std::string& path);

}  // namespace p2auth::obs
