// Prometheus text exposition: name mangling rules and golden rendering
// of counters, gauges, and cumulative-bucket histograms.
#include "obs/prometheus.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/metrics.hpp"

namespace p2auth::obs {
namespace {

TEST(PrometheusName, ManglesDotsAndIllegalCharacters) {
  EXPECT_EQ(prometheus_name("auth.accept"), "p2auth_auth_accept");
  EXPECT_EQ(prometheus_name("drift.alert.estimated_frr_rising"),
            "p2auth_drift_alert_estimated_frr_rising");
  EXPECT_EQ(prometheus_name("weird-name with:chars"),
            "p2auth_weird_name_with_chars");
  EXPECT_EQ(prometheus_name("already_legal_123"),
            "p2auth_already_legal_123");
}

TEST(PrometheusName, LeadingDigitGetsUnderscoreGuard) {
  // "p2auth_" already ends with '_', but the rule is pinned: a leading
  // digit never lands directly after the prefix unguarded.
  EXPECT_EQ(prometheus_name("2fa.attempts"), "p2auth__2fa_attempts");
}

TEST(PrometheusText, GoldenCountersAndGauges) {
  MetricsSnapshot snapshot;
  snapshot.counters["auth.accept"] = 7;
  snapshot.gauges["drift.frr"] = 0.125;
  snapshot.gauges["threads"] = 4.0;
  EXPECT_EQ(prometheus_text(snapshot),
            "# TYPE p2auth_auth_accept_total counter\n"
            "p2auth_auth_accept_total 7\n"
            "# TYPE p2auth_drift_frr gauge\n"
            "p2auth_drift_frr 0.125\n"
            "# TYPE p2auth_threads gauge\n"
            "p2auth_threads 4\n");
}

// A histogram whose name already carries the unit exports one "_us".
TEST(PrometheusText, HistogramNameEndingInUsKeepsOneUnitSuffix) {
  MetricsSnapshot snapshot;
  HistogramSnapshot h;
  h.count = 1;
  h.sum_us = 12.0;
  h.buckets[4] = 1;
  snapshot.histograms["pool.task_us"] = h;
  snapshot.histograms["authenticate"] = h;
  const std::string text = prometheus_text(snapshot);
  EXPECT_NE(text.find("# TYPE p2auth_pool_task_us histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("p2auth_pool_task_us_count 1\n"), std::string::npos);
  EXPECT_EQ(text.find("_us_us"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE p2auth_authenticate_us histogram\n"),
            std::string::npos);
}

TEST(PrometheusText, HistogramBucketsAreCumulativeWithInf) {
  MetricsSnapshot snapshot;
  HistogramSnapshot h;
  h.count = 3;
  h.sum_us = 930.0;
  h.min_us = 15.0;
  h.max_us = 900.0;
  h.buckets[4] = 2;  // (10, 20] bucket: two 15 us observations
  h.buckets[9] = 1;  // (500, 1000] bucket: one 900 us observation
  snapshot.histograms["auth.latency"] = h;
  const std::string text = prometheus_text(snapshot);
  EXPECT_NE(text.find("# TYPE p2auth_auth_latency_us histogram\n"),
            std::string::npos);
  // Cumulative counts: 0 before the 20 us bound, 2 through 500 us, 3
  // from 1000 us on and at +Inf.
  EXPECT_NE(text.find("p2auth_auth_latency_us_bucket{le=\"10\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("p2auth_auth_latency_us_bucket{le=\"20\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("p2auth_auth_latency_us_bucket{le=\"500\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("p2auth_auth_latency_us_bucket{le=\"1000\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("p2auth_auth_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("p2auth_auth_latency_us_sum 930\n"),
            std::string::npos);
  EXPECT_NE(text.find("p2auth_auth_latency_us_count 3\n"),
            std::string::npos);
  // One bucket line per bound plus +Inf.
  std::size_t lines = 0, pos = 0;
  while ((pos = text.find("_bucket{le=", pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, kHistogramBoundsUs.size() + 1);
}

TEST(PrometheusText, NonFiniteGaugesUseExpositionSpellings) {
  MetricsSnapshot snapshot;
  snapshot.gauges["nan"] = std::nan("");
  snapshot.gauges["pinf"] = HUGE_VAL;
  snapshot.gauges["ninf"] = -HUGE_VAL;
  const std::string text = prometheus_text(snapshot);
  EXPECT_NE(text.find("p2auth_nan NaN\n"), std::string::npos);
  EXPECT_NE(text.find("p2auth_pinf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("p2auth_ninf -Inf\n"), std::string::npos);
}

TEST(PrometheusText, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(prometheus_text(MetricsSnapshot{}), "");
}

}  // namespace
}  // namespace p2auth::obs
