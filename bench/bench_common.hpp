// Shared helpers for the per-figure bench binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "backend/policy.hpp"
#include "core/evaluation.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::bench {

// Formats a probability as a percentage string.
inline std::string pct(double p, int precision = 1) {
  return util::format_double(100.0 * p, precision) + "%";
}

// Adds the standard (accuracy, TRR-RA, TRR-EA) row for one experiment.
inline void add_result_row(util::Table& table, const std::string& label,
                           const core::ExperimentResult& result) {
  table.begin_row()
      .cell(label)
      .cell(pct(result.mean_accuracy()))
      .cell(pct(result.mean_trr_random()))
      .cell(pct(result.mean_trr_emulating()));
}

// Wall-clock time of one callable on the shared Stopwatch (replaces
// per-bench std::chrono boilerplate).
template <typename F>
double timed_s(F&& f) {
  const util::Stopwatch clock;
  std::forward<F>(f)();
  return clock.seconds();
}

// Machine-readable companion to the text output: every bench builds one
// BenchReport, renders its tables through `table()` (which both prints
// the familiar ASCII form and embeds the data), and calls `write()` to
// produce BENCH_<name>.json with the run's telemetry attached.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : report_(std::move(name)) {}

  // Prints `table` (as Table::print did) and embeds it under `key`.
  void table(const util::Table& table, const std::string& key,
             const std::string& title = "") {
    table.print(std::cout, title);
    report_.add_table(key, table);
  }

  // Scalar results worth tracking across commits (timings, ratios).
  void value(const std::string& key, obs::Json value) {
    report_.set(key, std::move(value));
  }

  obs::Report& report() noexcept { return report_; }

  // Concurrent benches drive their own thread/shard topology instead of
  // the shared pool's default; record the actual values so the report's
  // "threads" field means the same thing across every bench.  `shards`
  // stays unset (and unreported) for the single-tenant benches.
  void concurrency(std::size_t threads, std::size_t shards = 0) {
    threads_override_ = threads;
    shards_ = shards;
  }

  // Attaches the current metrics (one histogram per span among them) and
  // writes BENCH_<name>.json into the working directory (next to the
  // CSVs).
  void write() {
    // Thread count the pool-backed stages ran with, so BENCH json from
    // different machines / P2AUTH_THREADS settings stay comparable.
    report_.set("threads",
                static_cast<std::uint64_t>(
                    threads_override_ != 0 ? threads_override_
                                           : util::resolve_threads(0)));
    if (shards_ != 0) {
      report_.set("shards", static_cast<std::uint64_t>(shards_));
    }
    // SIMD backend the kernels dispatched to, so numbers from hosts with
    // different ISAs (or forced P2AUTH_BACKEND runs) stay attributable.
    report_.set("backend", std::string(backend::kernels().name));
    report_.attach_metrics(obs::snapshot_metrics());
    const std::string path = "BENCH_" + report_.name() + ".json";
    report_.write_file(path);
    std::printf("\njson report written to %s\n", path.c_str());
  }

 private:
  obs::Report report_;
  std::size_t threads_override_ = 0;
  std::size_t shards_ = 0;
};

}  // namespace p2auth::bench
