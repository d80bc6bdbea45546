#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace p2auth::obs {

namespace {

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::vector<SpanEvent>& global_events() {
  static std::vector<SpanEvent> events;
  return events;
}

std::atomic<std::uint64_t>& dropped_counter() {
  static std::atomic<std::uint64_t> dropped{0};
  return dropped;
}

// Events currently retained anywhere in the process: the global list
// plus every thread's buffer.  A span claims its slot when it completes
// and gives it back only when reset_trace() discards it.
std::atomic<std::size_t>& retained_counter() {
  static std::atomic<std::size_t> retained{0};
  return retained;
}

// Claims one slot of the process-wide budget; false once it is spent.
bool claim_slot() {
  std::atomic<std::size_t>& retained = retained_counter();
  std::size_t n = retained.load(std::memory_order_relaxed);
  do {
    if (n >= kMaxRetainedSpans) return false;
  } while (!retained.compare_exchange_weak(n, n + 1,
                                           std::memory_order_relaxed));
  return true;
}

struct ThreadLog {
  std::uint32_t thread_id;
  std::uint32_t depth = 0;
  std::vector<SpanEvent> events;

  ThreadLog() {
    // Touch the globals now: whatever is constructed before this object
    // is destroyed after it, so the exit-time flush in ~ThreadLog always
    // finds them alive.
    (void)global_mutex();
    (void)global_events();
    (void)dropped_counter();
    (void)retained_counter();
    static std::atomic<std::uint32_t> next_id{1};
    thread_id = next_id.fetch_add(1, std::memory_order_relaxed);
  }

  ~ThreadLog() { flush(); }

  void flush() {
    if (events.empty()) return;
    std::vector<SpanEvent>& global = global_events();
    const std::lock_guard<std::mutex> lock(global_mutex());
    global.insert(global.end(), std::make_move_iterator(events.begin()),
                  std::make_move_iterator(events.end()));
    events.clear();
  }
};

ThreadLog& thread_log() {
  thread_local ThreadLog log;
  return log;
}

void sort_events(std::vector<SpanEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     if (a.thread_id != b.thread_id) {
                       return a.thread_id < b.thread_id;
                     }
                     return a.duration_us > b.duration_us;
                   });
}

}  // namespace

Span::Span(std::string_view name, std::string_view category) {
  if (!enabled()) return;
  active_ = true;
  name_.assign(name);
  category_.assign(category);
  ++thread_log().depth;
  start_us_ = now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end_us = now_us();
  ThreadLog& log = thread_log();
  --log.depth;
  if (!claim_slot()) {
    dropped_counter().fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.start_us = start_us_;
  event.duration_us = end_us - start_us_;
  event.thread_id = log.thread_id;
  event.depth = log.depth;
  log.events.push_back(std::move(event));
}

std::uint32_t current_span_depth() noexcept {
  if constexpr (!kCompiledIn) return 0;
  return thread_log().depth;
}

void flush_thread_trace() {
  if constexpr (!kCompiledIn) return;
  thread_log().flush();
}

std::vector<SpanEvent> snapshot_trace() {
  if constexpr (!kCompiledIn) return {};
  std::vector<SpanEvent> out;
  {
    const std::lock_guard<std::mutex> lock(global_mutex());
    out = global_events();
  }
  const ThreadLog& log = thread_log();
  out.insert(out.end(), log.events.begin(), log.events.end());
  sort_events(out);
  return out;
}

std::uint64_t dropped_span_count() noexcept {
  return dropped_counter().load(std::memory_order_relaxed);
}

void reset_trace() {
  if constexpr (!kCompiledIn) return;
  std::size_t released = 0;
  {
    const std::lock_guard<std::mutex> lock(global_mutex());
    released += global_events().size();
    global_events().clear();
  }
  std::vector<SpanEvent>& own = thread_log().events;
  released += own.size();
  own.clear();
  retained_counter().fetch_sub(released, std::memory_order_relaxed);
  dropped_counter().store(0, std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanEvent>& events) {
  // Streamed (not via the Json DOM): traces can hold 10^5+ events.  One
  // event per line keeps the file diffable and golden-testable.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":";
    detail::write_json_string(os, e.name);
    os << ",\"cat\":";
    detail::write_json_string(os, e.category);
    os << ",\"ph\":\"X\",\"ts\":" << e.start_us << ",\"dur\":"
       << e.duration_us << ",\"pid\":1,\"tid\":" << e.thread_id
       << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  os << (first ? "]}" : "\n]}");
  os << '\n';
}

std::string chrome_trace_json(const std::vector<SpanEvent>& events) {
  std::ostringstream oss;
  write_chrome_trace(oss, events);
  return oss.str();
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("write_chrome_trace_file: cannot open " + path);
  }
  write_chrome_trace(os, snapshot_trace());
  if (!os) {
    throw std::runtime_error("write_chrome_trace_file: write failed: " +
                             path);
  }
}

}  // namespace p2auth::obs
