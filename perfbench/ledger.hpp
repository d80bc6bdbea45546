// Outside-in stage ledger: spans recorded by the benchmark around calls
// into each layer's public functions, and the replays that produce them.
//
// Nothing here reaches inside src/: the authentication ledger replays an
// attempt as prepare_authentication -> WaveformModel::decision per unit ->
// finish_authentication -> commit_decision and checks the replay against
// core::authenticate bit for bit; the enrollment ledger replays
// enroll_user as extract_observation -> WaveformModel::train (full, then
// the per-key models on the shared pool) and checks the trained models
// against enroll_user's.  Drill-downs below those stages (signal filters,
// MiniRocket, ridge) are timed on the same inputs and checked against the
// stage outputs, but are not part of the ledger sums.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "service/source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// In-memory span log.  Recording is thread-safe; when disabled, `add`
// does nothing, so the same code paths run in timed and traced runs.
class SpanLog {
 public:
  struct Event {
    const char* name = "";
    const char* parent = "";   // name of the enclosing span ("" = root)
    std::uint64_t request = 0; // spans of one attempt share this id
    std::uint32_t thread = 0;
    double start_us = 0.0;     // from the log's origin
    double dur_us = 0.0;
  };

  SpanLog() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void add(const char* name, const char* parent, std::uint64_t request,
           Clock::time_point start, Clock::time_point end);

  // Durations (µs) of every span named `name`.
  std::vector<double> durations(std::string_view name) const;

  // Chrome trace-event JSON (viewable in chrome://tracing / Perfetto);
  // keeps the first `max_events` spans.
  void write_chrome_trace(const std::string& path,
                          std::size_t max_events) const;

 private:
  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

// Times `fn()` as span `name` under `parent`; returns fn's result.  The
// elapsed time is also written to `*elapsed_us` when given, whether or
// not the log is enabled (the ledger sums need it either way).
template <typename F>
auto timed(SpanLog& log, const char* name, const char* parent,
           std::uint64_t request, F&& fn, double* elapsed_us = nullptr) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const Clock::time_point t1 = Clock::now();
    log.add(name, parent, request, t0, t1);
    if (elapsed_us != nullptr) *elapsed_us = us_between(t0, t1);
  } else {
    auto out = fn();
    const Clock::time_point t1 = Clock::now();
    log.add(name, parent, request, t0, t1);
    if (elapsed_us != nullptr) *elapsed_us = us_between(t0, t1);
    return out;
  }
}

// Bench-owned ModelSource wrapper: times every materialization as span
// "io.materialize" and counts loads.  Safe to call from service workers.
class TimedSource : public p2auth::service::ModelSource {
 public:
  TimedSource(std::shared_ptr<p2auth::service::ModelSource> inner,
              SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::optional<p2auth::core::EnrolledUser> load(
      std::string_view name) override;
  std::size_t num_users() const override { return inner_->num_users(); }

  std::uint64_t loads() const { return loads_.load(); }

 private:
  std::shared_ptr<p2auth::service::ModelSource> inner_;
  SpanLog& log_;
  std::atomic<std::uint64_t> loads_{0};
};

// Which decision path an attempt took.
enum class AuthPath { kFull, kPerKey, kDecidedEarly };
inline constexpr std::size_t kAuthPaths = 3;
const char* path_slug(AuthPath path);

struct AuthLedger {
  struct PathSums {
    double stage_sum_us = 0.0;  // prepare + score + finish + commit
    double total_us = 0.0;      // core::authenticate of the same attempt
    std::size_t attempts = 0;
  };
  PathSums paths[kAuthPaths];
  std::size_t attempts = 0;
  std::size_t units = 0;
  std::size_t mismatches = 0;  // replay != authenticate, or drill-down
                               // output != stage output
  std::vector<double> authenticate_us;
};

// Replays one attempt through the public phases and the drill-down
// stages, recording spans under request id `request`.  `authenticate_first`
// alternates which of the two runs sees warm caches.  Returns
// core::authenticate's result.
p2auth::core::AuthResult ledger_attempt(SpanLog& log, std::uint64_t request,
                    const p2auth::core::EnrolledUser& user,
                    const p2auth::core::Observation& observation,
                    bool authenticate_first, AuthLedger& ledger);

struct EnrollLedger {
  double stage_sum_us = 0.0;  // extract + full train + per-key train
  double total_us = 0.0;      // enroll_user of the same inputs
  std::size_t users = 0;
  std::size_t mismatches = 0;
  std::vector<double> enroll_us;
};

// Enrolls through enroll_user and through the outside-in replay, checks
// the models agree bit for bit, and returns enroll_user's result.
p2auth::core::EnrolledUser ledger_enroll(
    SpanLog& log, std::uint64_t request, const p2auth::keystroke::Pin& pin,
    const std::vector<p2auth::core::Observation>& positives,
    const std::vector<p2auth::core::Observation>& negatives,
    const p2auth::core::EnrollmentConfig& config, bool enroll_first,
    EnrollLedger& ledger);

// Bit-exact digest of every trained model's ridge weights, bias and
// threshold (equal digests = identical decision functions on the machine
// that computed both).
std::uint64_t model_digest(const p2auth::core::EnrolledUser& user);

}  // namespace perfbench
