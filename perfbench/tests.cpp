// Unit tests for the benchmark's own code: the statistics helpers, the
// open-loop schedule and a smoke run of every workload.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::percentile;
using perfbench::quartiles;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankAndCount) {
  const perfbench::Percentile p50 = percentile({5, 1, 4, 2, 3}, 0.5);
  EXPECT_EQ(p50.value, 3.0);
  EXPECT_EQ(p50.count, 5u);
  EXPECT_EQ(p50.beyond, 2u);
  EXPECT_EQ(percentile(one_to(100), 0.99).value, 99.0);
  EXPECT_EQ(percentile(one_to(100), 1.0).value, 100.0);
  EXPECT_EQ(percentile(one_to(1), 0.01).value, 1.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples has exactly 10 above it; of 999, fewer.
  EXPECT_TRUE(percentile(one_to(1000), 0.99).supported);
  EXPECT_EQ(percentile(one_to(1000), 0.99).beyond, 10u);
  EXPECT_FALSE(percentile(one_to(999), 0.99).supported);
  EXPECT_TRUE(percentile(one_to(100), 0.90).supported);
  EXPECT_FALSE(percentile(one_to(99), 0.90).supported);
  EXPECT_EQ(perfbench::min_samples_for(0.99), 1000u);
  EXPECT_EQ(perfbench::min_samples_for(0.90), 100u);
  EXPECT_EQ(perfbench::min_samples_for(0.50), 20u);
}

TEST(Percentile, EmptyAndBadQuantile) {
  const perfbench::Percentile p = percentile({}, 0.5);
  EXPECT_EQ(p.count, 0u);
  EXPECT_FALSE(p.supported);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

// 5000 samples in five blocks of 1..1000 µs; the blocks in `slow` are 10x.
std::vector<double> five_blocks(const std::vector<int>& slow) {
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) {
    const bool is_slow = std::find(slow.begin(), slow.end(), b) != slow.end();
    for (int i = 1; i <= 1000; ++i) v.push_back(is_slow ? 10.0 * i : i);
  }
  return v;
}

TEST(BlockedPercentile, LowerQuartileOfSupportedBlocks) {
  // Five blocks of 1000 each support p99; slow stretches in up to three of
  // them do not move the result.
  const perfbench::Blocked p99 =
      perfbench::blocked_percentile(five_blocks({1, 2, 4}), 0.99);
  EXPECT_EQ(p99.blocks, 5u);
  EXPECT_EQ(p99.block.count, 1000u);
  EXPECT_TRUE(p99.block.supported);
  EXPECT_EQ(p99.value, 990.0);
  ASSERT_EQ(p99.values.size(), 5u);
  EXPECT_EQ(p99.values[2], 9900.0);
  // A slowdown in four of five blocks (every block's fast quarter) shows.
  EXPECT_EQ(perfbench::blocked_percentile(five_blocks({0, 1, 2, 4}), 0.99).value,
            9900.0);
  // 1999 samples cannot give two blocks of 1000: one block.
  EXPECT_EQ(perfbench::blocked_percentile(one_to(1999), 0.99).blocks, 1u);
  EXPECT_EQ(perfbench::blocked_percentile(one_to(3000), 0.99).blocks, 3u);
  EXPECT_EQ(perfbench::blocked_percentile(one_to(100000), 0.5).blocks, 9u);
}

TEST(BlockedPercentile, BlocksHoldWholeRounds) {
  // 7 rounds of 24 plus 5 extra: p50 needs 20 per block, so 7 blocks of one
  // round each; the samples past the last whole round are left out.
  const std::vector<std::vector<double>> blocks =
      perfbench::split_blocks(one_to(7 * 24 + 5), 20, 24);
  ASSERT_EQ(blocks.size(), 7u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(blocks.back().back(), 7.0 * 24);
  // p90 needs 100: one block of the 4 whole rounds.
  const std::vector<std::vector<double>> tail =
      perfbench::split_blocks(one_to(4 * 24 + 5), 100, 24);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].size(), 96u);
  // Fewer samples than one round: one block of all of them.
  EXPECT_EQ(perfbench::split_blocks(one_to(10), 20, 24).at(0).size(), 10u);
}

TEST(Rates, BlockedAndWindowed) {
  // 1000 us per operation -> 1000 operations per second in every block.
  EXPECT_DOUBLE_EQ(
      perfbench::blocked_rate(std::vector<double>(50, 1000.0), 1), 1000.0);
  EXPECT_EQ(perfbench::blocked_rate({}, 1), 0.0);
  // Rates are taken in the fast quarter of the blocks: the upper quartile.
  const std::vector<std::vector<double>> blocks = {
      {1000.0}, {4000.0}, {2000.0}, {4000.0}, {4000.0}};
  EXPECT_DOUBLE_EQ(perfbench::rate_over_blocks(blocks), 500.0);
  const std::vector<double> rates =
      perfbench::window_rates({0.1, 0.2, 1.5, 2.9, 3.0}, 3.0, 3);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 1.0);
  EXPECT_DOUBLE_EQ(rates[2], 2.0);  // t == wall lands in the last window
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const perfbench::Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.relative_iqr(), 1.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const perfbench::Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
  const perfbench::Quartiles five = quartiles({3, 1, 4, 1, 5});
  EXPECT_DOUBLE_EQ(five.q1, 1.0);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(PoissonSchedule, DeterministicUnderFixedSeed) {
  const std::vector<double> a = perfbench::poisson_schedule(300.0, 5.0, 42);
  const std::vector<double> b = perfbench::poisson_schedule(300.0, 5.0, 42);
  const std::vector<double> c = perfbench::poisson_schedule(300.0, 5.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 5.0);
  // 1500 expected arrivals; a Poisson count stays within 5 sigma.
  EXPECT_NEAR(static_cast<double>(a.size()), 1500.0, 5.0 * std::sqrt(1500.0));
  EXPECT_THROW(perfbench::poisson_schedule(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Zipf, SkewedAndInRange) {
  const perfbench::ZipfSampler zipf(64, 1.1);
  p2auth::util::Rng rng(7);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 20000; ++i) ++hits.at(zipf.draw(rng));
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[10]);
  EXPECT_GT(hits[63], 0);
}

class Smoke : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(Smoke, RunsEndToEnd) {
  perfbench::RunOptions options;
  options.workload = std::get<0>(GetParam());
  options.trace = std::get<1>(GetParam());
  options.smoke = true;
  options.seconds = 0.6;
  options.seed = 5;
  options.workdir = "perfbench_tests_work";  // under ctest's build directory
  const perfbench::RunResult r = perfbench::run_workload(options);
  EXPECT_TRUE(r.correct);
  EXPECT_GE(r.attempted, 1u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_FALSE(r.metrics.empty());
  for (const perfbench::Metric& m : r.metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_FALSE(m.unit.empty()) << m.name;
  }
  const std::string first = options.trace ? "core.prepare_us" : "setup_s";
  EXPECT_EQ(r.metrics.front().name, first);
  std::filesystem::remove_all(options.workdir);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Smoke,
    ::testing::Combine(::testing::Values("auth_mixed", "enroll"),
                       ::testing::Bool()));

TEST(Workloads, UnknownNameThrows) {
  perfbench::RunOptions options;
  options.workload = "nope";
  EXPECT_THROW(perfbench::run_workload(options), std::invalid_argument);
}

}  // namespace
