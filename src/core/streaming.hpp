// Streaming (on-device) authentication front-end.
//
// The batch API (core/authenticator.hpp) takes a complete Observation.
// On a real watch the PPG arrives sample by sample and the phone's
// keystroke log event by event; this class buffers both, decides when an
// attempt is complete (all expected keystrokes seen and the artifact tail
// fully captured) and then runs the standard pipeline.  It also enforces
// an attempt timeout so a half-typed PIN cannot pin memory forever.
//
// Hardening (degraded-sensor resilience):
//   * the attempt timeout runs on an injectable monotonic clock, so a
//     *stalled* stream (watch stops pushing samples mid-PIN) times out
//     on wall time instead of waiting forever on stream time;
//   * non-finite samples are rejected at ingest (previous-sample hold),
//     keeping the buffer finite end to end;
//   * the sample buffer is bounded; overflow rejects the attempt loudly
//     instead of growing without limit;
//   * after `lockout_threshold` consecutive rejections the instance
//     locks out further attempts with exponential backoff, bounding an
//     attacker's guess rate on a stolen watch.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "obs/drift.hpp"

namespace p2auth::core {

struct StreamingOptions {
  AuthOptions auth{};
  // Seconds of PPG required after the last keystroke before deciding
  // (must cover the artifact tail and the segmentation window).
  double tail_s = 0.9;
  // An attempt older than this is abandoned with a rejection.  Age is the
  // larger of the buffered stream time and the monotonic-clock time since
  // the attempt's first push, so both a runaway stream and a stalled one
  // hit the limit.
  double timeout_s = 30.0;
  // Keystrokes expected per attempt; 0 = derive from the enrolled PIN
  // (or 4 in no-PIN mode).
  std::size_t expected_keystrokes = 0;
  // Monotonic clock in seconds.  Empty = std::chrono::steady_clock.
  // Injectable so tests and simulations can drive stalled-stream
  // timeouts and lockout backoff deterministically.
  std::function<double()> clock{};
  // Hard cap on buffered samples per attempt; 0 derives
  // 2 * timeout_s * rate_hz.  Overflow drops the excess samples and the
  // next poll() rejects the attempt with RejectReason::kBufferOverflow.
  std::size_t max_buffer_samples = 0;
  // Lockout: after this many consecutive rejected attempts the instance
  // refuses new attempts for lockout_base_s, doubling on every further
  // lockout up to lockout_max_s.  0 disables the lockout.
  std::size_t lockout_threshold = 5;
  double lockout_base_s = 30.0;
  double lockout_max_s = 3600.0;
  // Online drift monitoring: compare live decision-score sketches
  // against the user's enrollment-time baseline and raise typed alerts
  // (see obs/drift.hpp).  Disabled instances pay nothing per decision.
  bool monitor_drift = false;
  obs::DriftOptions drift{};
};

// Lifetime health counters of one StreamingAuthenticator (never reset by
// reset()/poll(); mirrors the global obs counters per instance).
struct StreamingStats {
  std::uint64_t samples = 0;     // PPG samples pushed
  std::uint64_t keystrokes = 0;  // keystroke events pushed
  std::uint64_t attempts = 0;    // decisions returned by poll()
  std::uint64_t accepted = 0;
  std::uint64_t timeouts = 0;  // attempts abandoned by the timeout
  // Non-finite sample values sanitised at ingest (previous-sample hold).
  std::uint64_t nonfinite_values = 0;
  // Samples dropped because the bounded buffer was full.
  std::uint64_t overflow_dropped = 0;
  // Attempts refused while the lockout backoff was in force.
  std::uint64_t lockout_rejects = 0;
  std::uint64_t lockouts = 0;  // times the lockout engaged
  // New drift alerts raised by the monitor (edge-triggered; 0 when
  // monitoring is off).
  std::uint64_t drift_alerts = 0;
  // Rejections keyed by typed reason (RejectReason::kTimeout, ...).
  std::map<RejectReason, std::uint64_t> rejects_by_reason;
  // SIMD backend the hot kernels dispatched to when this instance was
  // constructed ("scalar", "avx2", "avx512") — ops triage needs to
  // know which code path produced a stream of decisions.
  std::string backend;

  std::uint64_t rejected() const noexcept { return attempts - accepted; }
};

class StreamingAuthenticator {
 public:
  // `user` must outlive the authenticator.  `rate_hz` and `channels`
  // describe the incoming PPG stream.  Throws std::invalid_argument on a
  // non-positive rate, zero channels or bad time limits.
  StreamingAuthenticator(const EnrolledUser& user, double rate_hz,
                         std::size_t channels,
                         StreamingOptions options = {});

  // Pushes one multi-channel PPG sample (size must equal `channels`).
  // Non-finite values are sanitised (previous-sample hold) and counted;
  // samples beyond the buffer cap are dropped and flag the attempt for a
  // kBufferOverflow rejection.
  void push_sample(std::span<const double> sample);

  // Pushes one keystroke event from the phone (recorded timestamp is on
  // the stream clock: seconds since the first pushed sample).  Throws
  // std::invalid_argument on a non-digit or non-finite timestamp and
  // leaves the attempt state untouched.
  void push_keystroke(char digit, double recorded_time_s);

  // Checks whether an attempt is decidable; returns the decision and
  // resets for the next attempt, or std::nullopt while incomplete.  A
  // timed-out attempt yields a rejection with RejectReason::kTimeout;
  // during a lockout backoff any pending attempt is rejected with
  // RejectReason::kLockedOut.
  std::optional<AuthResult> poll();

  // Drops all buffered data (keeps lifetime stats and lockout state).
  void reset();

  double buffered_seconds() const noexcept;
  std::size_t num_keystrokes() const noexcept {
    return entry_.events.size();
  }

  // Lockout status on the configured clock.
  bool locked_out() const;
  double lockout_remaining_s() const;

  // Lifetime health counters (see StreamingStats).
  const StreamingStats& stats() const noexcept { return stats_; }

  // Drift monitor, when options.monitor_drift enabled it (else nullptr).
  // The mutable overload lets callers with out-of-band labels (evaluation
  // harnesses, honeypot entries) feed the imposter side directly.
  const obs::DriftMonitor* drift_monitor() const noexcept {
    return drift_ ? &*drift_ : nullptr;
  }
  obs::DriftMonitor* drift_monitor() noexcept {
    return drift_ ? &*drift_ : nullptr;
  }

 private:
  // Bookkeeping shared by the timeout and regular decision paths; also
  // advances the consecutive-reject lockout state machine.
  AuthResult finish_attempt(AuthResult result);
  // Builds a rejection with the given typed reason.
  static AuthResult make_reject(RejectReason reason);
  // Current time on the configured monotonic clock.
  double now() const;
  // True while samples or keystrokes of an undecided attempt are buffered.
  bool attempt_active() const noexcept {
    return trace_.length() > 0 || !entry_.events.empty();
  }

  const EnrolledUser& user_;
  double rate_hz_;
  std::size_t channels_;
  StreamingOptions options_;
  std::size_t max_buffer_samples_;
  ppg::MultiChannelTrace trace_;
  keystroke::EntryRecord entry_;
  StreamingStats stats_;
  // Clock time of the attempt's first push; NaN while no attempt is open.
  double attempt_start_ = -1.0;
  bool attempt_open_ = false;
  bool overflowed_ = false;
  // Lockout state machine.
  std::size_t consecutive_rejects_ = 0;
  std::size_t lockout_level_ = 0;  // exponent of the next backoff
  double locked_until_ = 0.0;
  bool locked_ = false;
  std::optional<obs::DriftMonitor> drift_;
};

}  // namespace p2auth::core
