// The benchmark's workloads (see README.md for why each exists):
//
//   auth_mixed — serial core::authenticate, one closed-loop client, over a
//                seeded attempt mix against a few in-memory users;
//   enroll     — core::enroll_user for a sequence of seeded users against
//                the raw third-party pool.
//
// A run with trace off reports the end-to-end metrics; a run with trace
// on reports the per-layer metrics of the outside-in stage ledger.  The
// traced runs also serve their attempts through service::AuthService over
// a P2MDL001 mmap store: an open loop at a fixed offered rate (phase A),
// then 2 closed-loop clients (phase B).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Phase A offered load of the traced service pass, requests per second.
// Fixed, never derived from a measurement, so every commit sees the same
// arrivals.
inline constexpr double kOpenLoopRateHz = 100.0;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny fixtures and feature budget, for the unit tests.
  bool smoke = false;
  // Directory for the model store and the span trace.
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // exceptions + refusals + mismatches
  // End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  // Accuracy against ground-truth labels and the failure fraction; printed
  // in both modes and used as correctness gates.
  std::vector<Metric> quality;
  // Seed, host and build facts that make the numbers attributable.
  std::vector<std::pair<std::string, std::string>> attribution;
  // Human-readable detail lines (sample counts, gates, ledger flags).
  std::vector<std::string> notes;
};

// Runs one workload.  Throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
