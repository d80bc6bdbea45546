// The one telemetry sink behind obs/trace.hpp and obs/metrics.hpp.
//
// Every recording thread owns a Sink: its counters, gauges, histograms
// and span events together under the sink's own mutex.  The sink
// registers in a process-wide list on the thread's first record and, at
// thread exit, folds into the registry's `retired` store and
// unregisters.  A record call locks only its own sink (uncontended
// except while a snapshot reads that sink); snapshots and resets walk
// every registered sink, so they see running threads live.
//
// Lock order: the registry's mutex first, then a sink's.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2auth::obs {

namespace {

struct GaugeCell {
  double value = 0.0;
  std::uint64_t seq = 0;  // global sequence of the set; highest wins
};

// Heterogeneous-lookup maps so record calls with a string_view key do
// not allocate unless the metric is new on this thread.
template <typename V>
using NameMap = std::map<std::string, V, std::less<>>;

// find-or-emplace with a string_view key (std::map::operator[] would
// need a std::string up front even on the hit path).
template <typename V>
V& cell(NameMap<V>& map, std::string_view name) {
  const auto it = map.find(name);
  if (it != map.end()) return it->second;
  return map.emplace(std::string(name), V{}).first->second;
}

void record(HistogramSnapshot& h, double us) {
  if (h.count == 0) {
    h.min_us = h.max_us = us;
  } else {
    h.min_us = std::min(h.min_us, us);
    h.max_us = std::max(h.max_us, us);
  }
  ++h.count;
  h.sum_us += us;
  const auto it = std::lower_bound(kHistogramBoundsUs.begin(),
                                   kHistogramBoundsUs.end(), us);
  ++h.buckets[static_cast<std::size_t>(it - kHistogramBoundsUs.begin())];
}

void merge(const HistogramSnapshot& from, HistogramSnapshot& into) {
  if (from.count == 0) return;
  if (into.count == 0) {
    into.min_us = from.min_us;
    into.max_us = from.max_us;
  } else {
    into.min_us = std::min(into.min_us, from.min_us);
    into.max_us = std::max(into.max_us, from.max_us);
  }
  into.count += from.count;
  into.sum_us += from.sum_us;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    into.buckets[b] += from.buckets[b];
  }
}

// One thread's records, or (the registry's retired store) those of
// every thread that has exited.
struct Records {
  NameMap<std::uint64_t> counters;
  NameMap<GaugeCell> gauges;
  NameMap<HistogramSnapshot> histograms;
  std::vector<SpanEvent> events;

  // Counters add, the latest gauge set wins, histograms merge.
  void merge_metrics_into(Records& into) const {
    for (const auto& [name, delta] : counters) into.counters[name] += delta;
    for (const auto& [name, g] : gauges) {
      GaugeCell& target = into.gauges[name];
      if (g.seq >= target.seq) target = g;
    }
    for (const auto& [name, h] : histograms) merge(h, into.histograms[name]);
  }

  void clear_metrics() {
    counters.clear();
    gauges.clear();
    histograms.clear();
  }
};

struct Sink;

struct Registry {
  std::mutex mu;
  std::vector<Sink*> sinks;  // live threads' sinks, guarded by mu
  Records retired;           // exited threads' records, guarded by mu
  std::atomic<std::uint64_t> dropped{0};
  // Span events retained anywhere in the process (the retired store plus
  // every sink).  An event claims its slot when it completes and gives it
  // back only when reset_trace() discards it.
  std::atomic<std::size_t> retained{0};
  std::atomic<std::uint64_t> gauge_seq{0};
  std::atomic<std::uint32_t> next_thread_id{1};

  // Claims one slot of the process-wide event budget; false once spent.
  bool claim_slot() {
    std::size_t n = retained.load(std::memory_order_relaxed);
    do {
      if (n >= kMaxRetainedSpans) return false;
    } while (!retained.compare_exchange_weak(n, n + 1,
                                             std::memory_order_relaxed));
    return true;
  }
};

// Never destroyed.  The shared thread pool joins its workers from a
// static destructor, and their sinks fold in here after statics
// constructed later than the pool are already gone.
Registry& registry() {
  static Registry* const instance = new Registry;
  return *instance;
}

struct Sink {
  std::mutex mu;
  Records records;                // guarded by mu
  std::uint32_t depth = 0;        // touched by the owning thread only
  const std::uint32_t thread_id;  // dense, 1 = first recording thread

  Sink()
      : thread_id(registry().next_thread_id.fetch_add(
            1, std::memory_order_relaxed)) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    reg.sinks.push_back(this);
  }

  // Holding the registry lock excludes every reader of this sink, and
  // the owning thread is the one exiting, so `mu` is not needed here.
  ~Sink() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    records.merge_metrics_into(reg.retired);
    reg.retired.events.insert(reg.retired.events.end(),
                              records.events.begin(), records.events.end());
    reg.sinks.erase(std::find(reg.sinks.begin(), reg.sinks.end(), this));
  }

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
};

Sink& thread_sink() {
  thread_local Sink sink;
  return sink;
}

// Runs `fn(records)` on the retired store and on every live sink, each
// under its lock.
template <typename Fn>
void for_each_records(Fn&& fn) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  fn(reg.retired);
  for (Sink* sink : reg.sinks) {
    const std::lock_guard<std::mutex> sink_lock(sink->mu);
    fn(sink->records);
  }
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

// --- Metrics ---------------------------------------------------------

void add_counter(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  Sink& sink = thread_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  cell(sink.records.counters, name) += delta;
}

void set_gauge(std::string_view name, double value) {
  if (!enabled()) return;
  const std::uint64_t seq =
      registry().gauge_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  Sink& sink = thread_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  cell(sink.records.gauges, name) = {value, seq};
}

void observe_latency_us(std::string_view name, double us) {
  if (!enabled()) return;
  Sink& sink = thread_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  record(cell(sink.records.histograms, name), us);
}

double HistogramSnapshot::percentile_us(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower = b == 0 ? 0.0 : kHistogramBoundsUs[b - 1];
    const double upper =
        b < kHistogramBoundsUs.size() ? kHistogramBoundsUs[b] : max_us;
    const double within =
        (target - static_cast<double>(before)) /
        static_cast<double>(buckets[b]);
    const double estimate = lower + (upper - lower) * within;
    return std::clamp(estimate, min_us, max_us);
  }
  return max_us;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const
    noexcept {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsSnapshot snapshot_metrics() {
  MetricsSnapshot out;
  if constexpr (!kCompiledIn) return out;
  Records merged;
  for_each_records([&](const Records& r) { r.merge_metrics_into(merged); });
  out.counters.insert(merged.counters.begin(), merged.counters.end());
  for (const auto& [name, g] : merged.gauges) out.gauges.emplace(name, g.value);
  out.histograms.insert(merged.histograms.begin(), merged.histograms.end());
  return out;
}

void reset_metrics() {
  if constexpr (!kCompiledIn) return;
  for_each_records([](Records& r) { r.clear_metrics(); });
}

// --- Trace -----------------------------------------------------------

Span::Span(std::string_view name, std::string_view category) {
  if (!enabled()) return;
  active_ = true;
  name_ = name;
  category_ = category;
  ++thread_sink().depth;
  start_us_ = now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t duration_us = now_us() - start_us_;
  Sink& sink = thread_sink();
  --sink.depth;
  Registry& reg = registry();
  const bool kept = reg.claim_slot();
  if (!kept) reg.dropped.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(sink.mu);
  record(cell(sink.records.histograms, name_),
         static_cast<double>(duration_us));
  if (kept) {
    sink.records.events.push_back({name_, category_, start_us_, duration_us,
                                   sink.thread_id, sink.depth});
  }
}

std::uint32_t current_span_depth() noexcept {
  if constexpr (!kCompiledIn) return 0;
  return thread_sink().depth;
}

std::vector<SpanEvent> snapshot_trace() {
  if constexpr (!kCompiledIn) return {};
  std::vector<SpanEvent> out;
  for_each_records([&](const Records& r) {
    out.insert(out.end(), r.events.begin(), r.events.end());
  });
  sort_events(out);
  return out;
}

std::uint64_t dropped_span_count() noexcept {
  return registry().dropped.load(std::memory_order_relaxed);
}

void reset_trace() {
  if constexpr (!kCompiledIn) return;
  std::size_t released = 0;
  for_each_records([&](Records& r) {
    released += r.events.size();
    r.events.clear();
  });
  Registry& reg = registry();
  reg.retained.fetch_sub(released, std::memory_order_relaxed);
  reg.dropped.store(0, std::memory_order_relaxed);
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
