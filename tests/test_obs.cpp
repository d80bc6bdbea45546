#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::obs {
namespace {

// Tests that need live recording start from a clean, enabled slate (and
// are skipped wholesale in a P2AUTH_OBS_ENABLED=OFF build, where
// recording is compiled away by design).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
    set_enabled(true);
    reset_trace();
    reset_metrics();
  }
  void TearDown() override {
    if (!kCompiledIn) return;
    set_enabled(true);
    reset_trace();
    reset_metrics();
  }
};

TEST_F(ObsTest, SpanNestingDepthsBalance) {
  EXPECT_EQ(current_span_depth(), 0u);
  {
    const Span outer("outer", "test");
    EXPECT_EQ(current_span_depth(), 1u);
    {
      const Span inner("inner", "test");
      EXPECT_EQ(current_span_depth(), 2u);
    }
    EXPECT_EQ(current_span_depth(), 1u);
  }
  EXPECT_EQ(current_span_depth(), 0u);

  const std::vector<SpanEvent> events = snapshot_trace();
  ASSERT_EQ(events.size(), 2u);
  const SpanEvent* outer = nullptr;
  const SpanEvent* inner = nullptr;
  for (const SpanEvent& e : events) {
    (e.name == "outer" ? outer : inner) = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->category, "test");
  EXPECT_EQ(outer->thread_id, inner->thread_id);
  // The child interval is contained in the parent's.
  EXPECT_LE(outer->start_us, inner->start_us);
  EXPECT_GE(outer->start_us + outer->duration_us,
            inner->start_us + inner->duration_us);
}

TEST_F(ObsTest, ResetClearsTrace) {
  { const Span s("short-lived", "test"); }
  EXPECT_EQ(snapshot_trace().size(), 1u);
  reset_trace();
  EXPECT_TRUE(snapshot_trace().empty());
}

// Pool workers are long-lived, and their sinks keep every event they
// record.  However many jobs record spans, the process retains at most
// kMaxRetainedSpans events; the excess is counted as dropped, and
// reset_trace() returns the budget for new spans.
TEST_F(ObsTest, PoolJobsStayWithinSpanCap) {
  constexpr std::size_t kJobs = 8;
  constexpr std::size_t kSpansPerJob = kMaxRetainedSpans / 4;
  for (std::size_t job = 0; job < kJobs; ++job) {
    util::parallel_for(
        kSpansPerJob, /*chunk=*/256,
        [](std::size_t) { const Span span("pool.job", "test"); },
        /*max_threads=*/4);
  }
  const std::size_t recorded = kJobs * kSpansPerJob;
  ASSERT_GT(recorded, kMaxRetainedSpans);
  EXPECT_EQ(snapshot_trace().size(), kMaxRetainedSpans);
  EXPECT_EQ(dropped_span_count(), recorded - kMaxRetainedSpans);

  reset_trace();
  EXPECT_TRUE(snapshot_trace().empty());
  EXPECT_EQ(dropped_span_count(), 0u);
  util::parallel_for(
      1000, /*chunk=*/16,
      [](std::size_t) { const Span span("after.reset", "test"); },
      /*max_threads=*/4);
  EXPECT_EQ(snapshot_trace().size(), 1000u);
  EXPECT_EQ(dropped_span_count(), 0u);
}

TEST(ObsChromeTrace, GoldenFormat) {
  std::vector<SpanEvent> events(2);
  events[0] = {"preprocess", "core", 10, 120, 1, 0};
  events[1] = {"seg \"q\"\n", "core", 30, 40, 2, 1};
  EXPECT_EQ(
      chrome_trace_json(events),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"preprocess\",\"cat\":\"core\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":120,\"pid\":1,\"tid\":1,\"args\":{\"depth\":0}},\n"
      "{\"name\":\"seg \\\"q\\\"\\n\",\"cat\":\"core\",\"ph\":\"X\","
      "\"ts\":30,\"dur\":40,\"pid\":1,\"tid\":2,\"args\":{\"depth\":1}}\n"
      "]}\n");
}

TEST(ObsChromeTrace, GoldenEmpty) {
  EXPECT_EQ(chrome_trace_json({}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

TEST_F(ObsTest, LiveTraceExportsChromeFormat) {
  {
    const Span a("alpha", "test");
    const Span b("beta", "test");
  }
  const std::string json = chrome_trace_json(snapshot_trace());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST_F(ObsTest, CountersMergeAcrossThreads) {
  add_counter("test.counter", 5);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) add_counter("test.counter");
      observe_latency_us("test.latency_us", 10.0);
    });
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot snapshot = snapshot_metrics();
  EXPECT_EQ(snapshot.counter("test.counter"), 4005u);
  ASSERT_EQ(snapshot.histograms.count("test.latency_us"), 1u);
  EXPECT_EQ(snapshot.histograms.at("test.latency_us").count, 4u);
  EXPECT_EQ(snapshot.counter("test.never_touched"), 0u);
}

TEST_F(ObsTest, HistogramBucketsAndPercentiles) {
  // 90 fast + 10 slow observations with known bucket placement:
  // 15 us -> (10, 20] bucket, 900 us -> (500, 1000] bucket.
  for (int i = 0; i < 90; ++i) observe_latency_us("h", 15.0);
  for (int i = 0; i < 10; ++i) observe_latency_us("h", 900.0);

  const MetricsSnapshot snapshot = snapshot_metrics();
  ASSERT_EQ(snapshot.histograms.count("h"), 1u);
  const HistogramSnapshot& h = snapshot.histograms.at("h");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min_us, 15.0);
  EXPECT_DOUBLE_EQ(h.max_us, 900.0);
  EXPECT_NEAR(h.mean_us(), (90.0 * 15.0 + 10.0 * 900.0) / 100.0, 1e-9);
  EXPECT_EQ(h.buckets[4], 90u);  // bounds ...10, [20]...
  EXPECT_EQ(h.buckets[9], 10u);  // bounds ...500, [1000]...
  // p50 falls in the fast bucket, p95/p99 in the slow one; percentiles
  // are monotone and clamped to the observed range.
  EXPECT_GT(h.p50_us(), 10.0);
  EXPECT_LE(h.p50_us(), 20.0);
  EXPECT_GT(h.p95_us(), 500.0);
  EXPECT_LE(h.p95_us(), 900.0);
  EXPECT_GE(h.p99_us(), h.p95_us());
  EXPECT_LE(h.p99_us(), 900.0);
  EXPECT_DOUBLE_EQ(h.percentile_us(0.0), h.min_us);
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0), h.max_us);
}

TEST(ObsHistogram, GoldenEmptyHistogramPercentilesAreZero) {
  const HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.percentile_us(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_us(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_us(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_us(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_us(), 0.0);
}

TEST(ObsHistogram, GoldenSingleSampleIsEveryPercentile) {
  HistogramSnapshot h;
  h.count = 1;
  h.sum_us = 15.0;
  h.min_us = h.max_us = 15.0;
  h.buckets[4] = 1;  // the (10, 20] bucket
  // Interpolation inside the bucket is clamped to the observed range, so
  // one sample answers 15.0 for any p — including the endpoints.
  for (const double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile_us(p), 15.0) << "p=" << p;
  }
}

TEST(ObsHistogram, GoldenExactBoundaryP99StaysInFastBucket) {
  // 99 fast + 1 slow: the p99 target rank (99) lands exactly on the fast
  // bucket's cumulative edge, so p99 reports that bucket's upper bound —
  // it must not spill into the slow outlier's bucket.
  HistogramSnapshot h;
  h.count = 100;
  h.sum_us = 99 * 15.0 + 900.0;
  h.min_us = 15.0;
  h.max_us = 900.0;
  h.buckets[4] = 99;  // (10, 20]
  h.buckets[9] = 1;   // (500, 1000]
  EXPECT_DOUBLE_EQ(h.p99_us(), 20.0);
  // One more sample in the slow bucket pushes the rank past the edge.
  h.count = 101;
  h.buckets[9] = 2;
  EXPECT_GT(h.p99_us(), 500.0);
  EXPECT_LE(h.p99_us(), 900.0);
}

TEST(ObsHistogram, GoldenOutOfRangePClampsToEndpoints) {
  HistogramSnapshot h;
  h.count = 10;
  h.sum_us = 150.0;
  h.min_us = 12.0;
  h.max_us = 18.0;
  h.buckets[4] = 10;
  EXPECT_DOUBLE_EQ(h.percentile_us(-0.5), 12.0);
  EXPECT_DOUBLE_EQ(h.percentile_us(1.5), 18.0);
}

TEST_F(ObsTest, ObservationAtBucketBoundaryLandsInLowerBucket) {
  // lower_bound semantics: a latency exactly on a bound belongs to the
  // bucket that bound closes, i.e. 20 us -> (10, 20], not (20, 50].
  observe_latency_us("boundary", 20.0);
  observe_latency_us("boundary", 10.0);
  const MetricsSnapshot snapshot = snapshot_metrics();
  ASSERT_EQ(snapshot.histograms.count("boundary"), 1u);
  const HistogramSnapshot& h = snapshot.histograms.at("boundary");
  EXPECT_EQ(h.buckets[4], 1u);  // 20.0
  EXPECT_EQ(h.buckets[3], 1u);  // 10.0
  EXPECT_EQ(h.buckets[5], 0u);
}

TEST_F(ObsTest, SpanRecordsOneHistogramObservation) {
  { const Span span("scoped.span", "test"); }
  const MetricsSnapshot snapshot = snapshot_metrics();
  ASSERT_EQ(snapshot.histograms.count("scoped.span"), 1u);
  const HistogramSnapshot& h = snapshot.histograms.at("scoped.span");
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.min_us, 0.0);
}

// A running thread's records are visible to a snapshot: nothing waits
// for a flush or for the thread to exit.
TEST_F(ObsTest, SnapshotSeesRunningThreads) {
  std::mutex mu;
  std::condition_variable cv;
  bool recorded = false;
  bool release = false;
  std::thread worker([&] {
    add_counter("live.counter", 3);
    { const Span span("live.span", "test"); }
    std::unique_lock<std::mutex> lock(mu);
    recorded = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return recorded; });
  }
  const MetricsSnapshot metrics = snapshot_metrics();
  const std::vector<SpanEvent> events = snapshot_trace();
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  worker.join();

  EXPECT_EQ(metrics.counter("live.counter"), 3u);
  ASSERT_EQ(metrics.histograms.count("live.span"), 1u);
  EXPECT_EQ(metrics.histograms.at("live.span").count, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "live.span");
}

TEST_F(ObsTest, GaugeLastSetWins) {
  set_gauge("g", 1.0);
  std::thread([] { set_gauge("g", 2.0); }).join();
  set_gauge("g", 3.0);
  const MetricsSnapshot snapshot = snapshot_metrics();
  ASSERT_EQ(snapshot.gauges.count("g"), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("g"), 3.0);
}

TEST_F(ObsTest, RuntimeDisabledRecordsNothing) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  {
    const Span span("quiet.span", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(current_span_depth(), 0u);
    add_counter("quiet.counter");
    set_gauge("quiet.gauge", 1.0);
    observe_latency_us("quiet.histogram", 5.0);
  }
  set_enabled(true);
  EXPECT_TRUE(snapshot_trace().empty());
  const MetricsSnapshot snapshot = snapshot_metrics();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(ObsJson, GoldenCompactDump) {
  Json doc = Json::object();
  doc.set("int", 42);
  doc.set("neg", std::int64_t{-3});
  doc.set("real", 2.5);
  doc.set("text", "line\n\"quoted\"");
  doc.set("flag", true);
  doc.set("none", Json());
  Json arr = Json::array();
  arr.push(1);
  arr.push("two");
  doc.set("arr", std::move(arr));
  EXPECT_EQ(doc.dump_string(0),
            "{\"int\":42,\"neg\":-3,\"real\":2.5,"
            "\"text\":\"line\\n\\\"quoted\\\"\",\"flag\":true,"
            "\"none\":null,\"arr\":[1,\"two\"]}");
}

TEST(ObsJson, GoldenControlCharacterEscapes) {
  // Every byte below 0x20 must leave as an escape, never raw: named
  // escapes for the common ones, \u00XX for the rest.
  Json doc = Json::array();
  doc.push(std::string("a\x01" "b\x1f"));
  doc.push(std::string("bell\x07tab\tnl\ncr\r"));
  doc.push(std::string("nul\0byte", 8));  // embedded NUL survives
  EXPECT_EQ(doc.dump_string(0),
            "[\"a\\u0001b\\u001f\","
            "\"bell\\u0007tab\\tnl\\ncr\\r\","
            "\"nul\\u0000byte\"]");
}

TEST(ObsJson, WellFormedUtf8PassesThroughUntouched) {
  // 2-, 3-, and 4-byte sequences: é, ✓, 🔒.
  const std::string text = "caf\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x94\x92";
  Json doc = Json::array();
  doc.push(text);
  EXPECT_EQ(doc.dump_string(0), "[\"" + text + "\"]");
}

TEST(ObsJson, MalformedUtf8BecomesReplacementCharacter) {
  const auto dumped = [](const std::string& s) {
    Json doc = Json::array();
    doc.push(s);
    return doc.dump_string(0);
  };
  // Stray continuation byte, truncated lead, overlong lead (0xC0),
  // CESU-8 surrogate (ED A0 80), out-of-range lead (0xF5): each bad
  // byte escapes as \ufffd so the document stays parseable JSON.
  EXPECT_EQ(dumped("a\x80z"), "[\"a\\ufffdz\"]");
  EXPECT_EQ(dumped("a\xc3"), "[\"a\\ufffd\"]");
  EXPECT_EQ(dumped("a\xc0\xafz"), "[\"a\\ufffd\\ufffdz\"]");
  EXPECT_EQ(dumped("a\xed\xa0\x80z"),
            "[\"a\\ufffd\\ufffd\\ufffdz\"]");
  EXPECT_EQ(dumped("a\xf5\x90z"), "[\"a\\ufffd\\ufffdz\"]");
  // A valid sequence right after a bad byte is preserved.
  EXPECT_EQ(dumped("\xff\xc3\xa9"), "[\"\\ufffd\xc3\xa9\"]");
}

TEST(ObsJson, Uint64BeyondInt64FallsBackToDoubleNotNegative) {
  Json doc = Json::array();
  doc.push(std::uint64_t{42});
  doc.push(std::uint64_t{9223372036854775807ull});  // int64 max: exact
  doc.push(std::uint64_t{18446744073709551615ull});  // would wrap to -1
  const std::string json = doc.dump_string(0);
  EXPECT_NE(json.find("42,9223372036854775807,"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("-1"), std::string::npos) << json;
  EXPECT_NE(json.find("1.84467440737e+19"), std::string::npos) << json;
}

TEST(ObsJson, NonFiniteNumbersSerializeAsNull) {
  Json doc = Json::array();
  doc.push(std::nan(""));
  doc.push(1.0 / 0.0);
  EXPECT_EQ(doc.dump_string(0), "[null,null]");
}

TEST(ObsJson, SetOverwritesInPlace) {
  Json doc = Json::object();
  doc.set("k", 1);
  doc.set("k", 2);
  EXPECT_EQ(doc.size(), 1u);
  EXPECT_EQ(doc.dump_string(0), "{\"k\":2}");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ObsReport, GoldenEnvelopeWithTable) {
  util::Table table({"a", "b"});
  table.begin_row().cell("x").cell(1.5, 1);
  Report report("unit");
  report.set("answer", 42);
  report.add_table("t", table);
  EXPECT_EQ(report.to_json(0),
            "{\"schema\":\"p2auth.report.v1\",\"name\":\"unit\","
            "\"values\":{\"answer\":42},"
            "\"tables\":{\"t\":{\"columns\":[\"a\",\"b\"],"
            "\"rows\":[[\"x\",\"1.5\"]]}}}\n");
}

TEST_F(ObsTest, ReportAttachesMetricsAndSpans) {
  add_counter("pipeline.runs", 2);
  observe_latency_us("pipeline.latency_us", 100.0);
  set_gauge("pipeline.depth", 7.0);
  { const Span s("pipeline.stage", "test"); }

  Report report("attach");
  report.attach_metrics(snapshot_metrics());
  const std::string json = report.to_json(0);
  EXPECT_NE(json.find("\"pipeline.runs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.depth\":7"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.stage\""), std::string::npos);
}

}  // namespace
}  // namespace p2auth::obs
