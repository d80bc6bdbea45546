#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/dataset.hpp"

namespace p2auth::core {
namespace {

struct Enrolled {
  sim::Population population;
  keystroke::Pin pin{"1628"};
  EnrolledUser user;

  Enrolled() {
    sim::PopulationConfig cfg;
    cfg.num_users = 1;
    cfg.seed = 314;
    population = sim::make_population(cfg);
    util::Rng rng(159);
    sim::TrialOptions options;
    std::vector<Observation> pos, neg;
    util::Rng er = rng.fork("enroll");
    for (sim::Trial& t :
         sim::make_trials(population.users[0], pin, 6, options, er)) {
      pos.push_back({std::move(t.entry), std::move(t.trace)});
    }
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 30, options, pr)) {
      neg.push_back({std::move(t.entry), std::move(t.trace)});
    }
    EnrollmentConfig config;
    config.rocket.num_features = 2000;
    user = enroll_user(pin, pos, neg, config);
  }

  sim::Trial fresh_trial(std::uint64_t seed) const {
    util::Rng r(seed);
    sim::TrialOptions options;
    return sim::make_trial(population.users[0], pin, options, r);
  }
};

const Enrolled& fixture() {
  static const Enrolled instance;
  return instance;
}

// Streams a simulated trial into the authenticator sample by sample,
// interleaving keystroke events at their recorded times; returns the
// decision from poll().
std::optional<AuthResult> stream_trial(StreamingAuthenticator& auth,
                                       const sim::Trial& trial,
                                       int poll_every = 50) {
  const auto& trace = trial.trace;
  std::size_t next_event = 0;
  std::vector<double> sample(trace.num_channels());
  for (std::size_t i = 0; i < trace.length(); ++i) {
    const double t = static_cast<double>(i) / trace.rate_hz;
    while (next_event < trial.entry.events.size() &&
           trial.entry.events[next_event].recorded_time_s <= t) {
      auth.push_keystroke(trial.entry.events[next_event].digit,
                          trial.entry.events[next_event].recorded_time_s);
      ++next_event;
    }
    for (std::size_t c = 0; c < trace.num_channels(); ++c) {
      sample[c] = trace.channels[c][i];
    }
    auth.push_sample(sample);
    if (i % static_cast<std::size_t>(poll_every) == 0) {
      if (auto r = auth.poll()) return r;
    }
  }
  return auth.poll();
}

TEST(Streaming, MatchesBatchDecision) {
  const Enrolled& f = fixture();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const sim::Trial trial = f.fresh_trial(seed);
    const AuthResult batch =
        authenticate(f.user, {trial.entry, trial.trace});
    StreamingAuthenticator streaming(f.user, trial.trace.rate_hz,
                                     trial.trace.num_channels());
    const auto result = stream_trial(streaming, trial);
    ASSERT_TRUE(result.has_value()) << "seed " << seed;
    // The streamed trace may be cut slightly earlier than the batch one
    // (poll fires as soon as the tail is covered), so compare the
    // decision, not the raw score.
    EXPECT_EQ(result->accepted, batch.accepted) << "seed " << seed;
  }
}

TEST(Streaming, NoDecisionBeforeAllKeystrokes) {
  const Enrolled& f = fixture();
  const sim::Trial trial = f.fresh_trial(10);
  StreamingAuthenticator auth(f.user, trial.trace.rate_hz,
                              trial.trace.num_channels());
  // Push the whole trace but only 3 of 4 keystroke events.
  std::vector<double> sample(trial.trace.num_channels());
  for (std::size_t i = 0; i < trial.trace.length(); ++i) {
    for (std::size_t c = 0; c < sample.size(); ++c) {
      sample[c] = trial.trace.channels[c][i];
    }
    auth.push_sample(sample);
  }
  for (int k = 0; k < 3; ++k) {
    auth.push_keystroke(trial.entry.events[k].digit,
                        trial.entry.events[k].recorded_time_s);
  }
  EXPECT_FALSE(auth.poll().has_value());
  EXPECT_EQ(auth.num_keystrokes(), 3u);
}

TEST(Streaming, NoDecisionBeforeTailArrives) {
  const Enrolled& f = fixture();
  const sim::Trial trial = f.fresh_trial(11);
  StreamingAuthenticator auth(f.user, trial.trace.rate_hz,
                              trial.trace.num_channels());
  // All keystrokes, but samples only up to the last keystroke.
  for (const auto& e : trial.entry.events) {
    auth.push_keystroke(e.digit, e.recorded_time_s);
  }
  const auto cutoff = static_cast<std::size_t>(
      trial.entry.events.back().recorded_time_s * trial.trace.rate_hz);
  std::vector<double> sample(trial.trace.num_channels());
  for (std::size_t i = 0; i < cutoff; ++i) {
    for (std::size_t c = 0; c < sample.size(); ++c) {
      sample[c] = trial.trace.channels[c][i];
    }
    auth.push_sample(sample);
  }
  EXPECT_FALSE(auth.poll().has_value());
}

TEST(Streaming, TimeoutRejectsAndResets) {
  const Enrolled& f = fixture();
  StreamingOptions options;
  options.timeout_s = 0.5;
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  const std::vector<double> sample(4, 0.0);
  for (int i = 0; i < 100; ++i) auth.push_sample(sample);  // 1 s > timeout
  const auto result = auth.poll();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_EQ(result->reason, RejectReason::kTimeout);
  EXPECT_EQ(auth.buffered_seconds(), 0.0);  // reset happened
}

TEST(Streaming, ResetClearsState) {
  const Enrolled& f = fixture();
  StreamingAuthenticator auth(f.user, 100.0, 4);
  auth.push_sample(std::vector<double>(4, 1.0));
  auth.push_keystroke('1', 0.0);
  auth.reset();
  EXPECT_EQ(auth.buffered_seconds(), 0.0);
  EXPECT_EQ(auth.num_keystrokes(), 0u);
  EXPECT_FALSE(auth.poll().has_value());
}

TEST(Streaming, SupportsConsecutiveAttempts) {
  const Enrolled& f = fixture();
  StreamingAuthenticator auth(f.user, 100.0, 4);
  for (std::uint64_t seed = 20; seed < 22; ++seed) {
    const sim::Trial trial = f.fresh_trial(seed);
    const auto result = stream_trial(auth, trial);
    ASSERT_TRUE(result.has_value());
    // After each decision the stream is ready for the next attempt.
    EXPECT_EQ(auth.buffered_seconds(), 0.0);
  }
}

TEST(Streaming, StatsCountTimedOutAttempts) {
  const Enrolled& f = fixture();
  StreamingOptions options;
  options.timeout_s = 0.5;
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  EXPECT_EQ(auth.stats().attempts, 0u);
  // Ops triage field: the SIMD backend the hot kernels dispatched to.
  EXPECT_FALSE(auth.stats().backend.empty());
  const std::vector<double> sample(4, 0.0);
  for (int i = 0; i < 100; ++i) auth.push_sample(sample);  // 1 s > timeout
  ASSERT_TRUE(auth.poll().has_value());
  const StreamingStats& stats = auth.stats();
  EXPECT_EQ(stats.samples, 100u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected(), 1u);
  ASSERT_EQ(stats.rejects_by_reason.count(RejectReason::kTimeout), 1u);
  EXPECT_EQ(stats.rejects_by_reason.at(RejectReason::kTimeout), 1u);
}

TEST(Streaming, StatsCountDecisionsAndSurviveReset) {
  const Enrolled& f = fixture();
  const sim::Trial trial = f.fresh_trial(30);
  StreamingAuthenticator auth(f.user, trial.trace.rate_hz,
                              trial.trace.num_channels());
  const auto result = stream_trial(auth, trial);
  ASSERT_TRUE(result.has_value());
  const StreamingStats& stats = auth.stats();
  EXPECT_EQ(stats.keystrokes, trial.entry.events.size());
  EXPECT_GT(stats.samples, 0u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.accepted + stats.rejected(), 1u);
  EXPECT_EQ(stats.accepted, result->accepted ? 1u : 0u);
  if (!result->accepted) {
    EXPECT_EQ(stats.rejects_by_reason.count(result->reason), 1u);
  }
  // reset() clears the attempt buffers, not the lifetime counters.
  auth.reset();
  EXPECT_EQ(auth.stats().attempts, 1u);
  EXPECT_EQ(auth.stats().samples, stats.samples);
}

TEST(Streaming, ValidatesConstructionAndInput) {
  const Enrolled& f = fixture();
  EXPECT_THROW(StreamingAuthenticator(f.user, 0.0, 4),
               std::invalid_argument);
  EXPECT_THROW(StreamingAuthenticator(f.user, 100.0, 0),
               std::invalid_argument);
  StreamingOptions bad;
  bad.timeout_s = 0.0;
  EXPECT_THROW(StreamingAuthenticator(f.user, 100.0, 4, bad),
               std::invalid_argument);
  StreamingAuthenticator auth(f.user, 100.0, 4);
  EXPECT_THROW(auth.push_sample(std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(auth.push_keystroke('x', 0.0), std::invalid_argument);
}

// Regression: a rejected push_keystroke (non-digit, bad timestamp) must
// leave the half-typed attempt untouched — the original code appended
// the event before Pin construction threw, leaving events and PIN out of
// sync for the rest of the attempt.
TEST(Streaming, InvalidKeystrokeLeavesAttemptStateIntact) {
  const Enrolled& f = fixture();
  StreamingAuthenticator auth(f.user, 100.0, 4);
  auth.push_keystroke('1', 0.10);
  auth.push_keystroke('6', 0.45);
  EXPECT_THROW(auth.push_keystroke('x', 0.80), std::invalid_argument);
  EXPECT_THROW(auth.push_keystroke(
                   '2', std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // Still exactly the two valid keystrokes, and the attempt continues.
  EXPECT_EQ(auth.num_keystrokes(), 2u);
  EXPECT_EQ(auth.stats().keystrokes, 2u);
  auth.push_keystroke('2', 0.80);
  auth.push_keystroke('8', 1.15);
  EXPECT_EQ(auth.num_keystrokes(), 4u);
}

// A stalled stream (no samples arriving) must hit the timeout on the
// injected monotonic clock, within timeout_s of clock time — it must not
// wait for buffered_seconds() to grow, which never happens when the
// watch stops pushing.
TEST(Streaming, StalledStreamTimesOutOnInjectedClock) {
  const Enrolled& f = fixture();
  double fake_now = 100.0;
  StreamingOptions options;
  options.timeout_s = 5.0;
  options.clock = [&fake_now] { return fake_now; };
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  // Half-typed PIN: two keystrokes, a handful of samples, then silence.
  const std::vector<double> sample(4, 0.5);
  for (int i = 0; i < 20; ++i) auth.push_sample(sample);
  auth.push_keystroke('1', 0.05);
  auth.push_keystroke('6', 0.15);
  // Within the timeout: still pending.
  fake_now += 4.9;
  EXPECT_FALSE(auth.poll().has_value());
  // Just past the timeout: rejected with the timeout reason.
  fake_now += 0.2;
  const auto result = auth.poll();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_EQ(result->reason, RejectReason::kTimeout);
  EXPECT_EQ(auth.stats().timeouts, 1u);
  EXPECT_EQ(auth.buffered_seconds(), 0.0);
}

// Keystrokes with no PPG at all (sensor died before the entry) still age
// out instead of pinning the attempt forever.
TEST(Streaming, KeystrokesOnlyAttemptTimesOut) {
  const Enrolled& f = fixture();
  double fake_now = 0.0;
  StreamingOptions options;
  options.timeout_s = 2.0;
  options.clock = [&fake_now] { return fake_now; };
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  auth.push_keystroke('1', 0.1);
  EXPECT_FALSE(auth.poll().has_value());
  fake_now = 2.5;
  const auto result = auth.poll();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->reason, RejectReason::kTimeout);
}

TEST(Streaming, BufferOverflowRejectsLoudly) {
  const Enrolled& f = fixture();
  StreamingOptions options;
  options.max_buffer_samples = 50;
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  const std::vector<double> sample(4, 0.5);
  for (int i = 0; i < 60; ++i) auth.push_sample(sample);
  EXPECT_EQ(auth.stats().overflow_dropped, 10u);
  EXPECT_EQ(auth.buffered_seconds(), 0.5);  // cap held
  const auto result = auth.poll();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_EQ(result->reason, RejectReason::kBufferOverflow);
  // The overflow flag clears with the attempt: a fresh, in-cap attempt
  // is pending again instead of rejecting a second time.
  EXPECT_EQ(auth.buffered_seconds(), 0.0);
  for (int i = 0; i < 10; ++i) auth.push_sample(sample);
  EXPECT_FALSE(auth.poll().has_value());
}

// A PIN is at most kMaxPinDigits keystrokes (the longest the model store
// holds).  A keystroke past it is dropped and the attempt rejects as an
// overflow on the next poll, even before any PPG has arrived.
TEST(Streaming, OverlongPinRejectsAsOverflow) {
  const Enrolled& f = fixture();
  StreamingAuthenticator auth(f.user, 100.0, 4);
  for (std::size_t i = 0; i <= kMaxPinDigits; ++i) {
    auth.push_keystroke('1', 0.1 * static_cast<double>(i));
  }
  EXPECT_EQ(auth.num_keystrokes(), kMaxPinDigits);
  const auto result = auth.poll();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_EQ(result->reason, RejectReason::kBufferOverflow);
  EXPECT_EQ(auth.num_keystrokes(), 0u);
}

// Samples are buffered as the sensor sent them, so a channel that
// delivers non-finite readings is judged exactly as the batch API judges
// the same samples: gating masks the channel and the strict policy
// rejects the attempt with kDegradedEvidence.
TEST(Streaming, NonFiniteSamplesDecideAsBatchDoes) {
  const Enrolled& f = fixture();
  const sim::Trial trial = f.fresh_trial(41);
  StreamingAuthenticator auth(f.user, trial.trace.rate_hz,
                              trial.trace.num_channels());
  // Everything pushed until the decision, for the batch replay.
  Observation pushed{trial.entry, trial.trace};
  for (auto& channel : pushed.trace.channels) channel.clear();
  std::size_t next_event = 0;
  std::vector<double> sample(trial.trace.num_channels());
  std::optional<AuthResult> decision;
  for (std::size_t i = 0; i < trial.trace.length() && !decision; ++i) {
    const double t = static_cast<double>(i) / trial.trace.rate_hz;
    while (next_event < trial.entry.events.size() &&
           trial.entry.events[next_event].recorded_time_s <= t) {
      auth.push_keystroke(trial.entry.events[next_event].digit,
                          trial.entry.events[next_event].recorded_time_s);
      ++next_event;
    }
    for (std::size_t c = 0; c < sample.size(); ++c) {
      sample[c] = trial.trace.channels[c][i];
    }
    // A flaky link garbles channel 1 every 50th sample.
    if (i % 50 == 0) {
      sample[1] = (i % 100 == 0)
                      ? std::numeric_limits<double>::quiet_NaN()
                      : std::numeric_limits<double>::infinity();
    }
    auth.push_sample(sample);
    for (std::size_t c = 0; c < sample.size(); ++c) {
      pushed.trace.channels[c].push_back(sample[c]);
    }
    if (i % 25 == 0) decision = auth.poll();
  }
  if (!decision) decision = auth.poll();
  ASSERT_TRUE(decision.has_value());
  ASSERT_EQ(next_event, trial.entry.events.size());
  const AuthResult batch = authenticate(f.user, pushed);
  EXPECT_EQ(batch.reason, RejectReason::kDegradedEvidence);
  EXPECT_EQ(decision->accepted, batch.accepted);
  EXPECT_EQ(decision->reason, batch.reason);
  EXPECT_EQ(decision->model_path, batch.model_path);
  EXPECT_EQ(decision->channel_mask, batch.channel_mask);
}

// The streaming layer's own rejects are committed like pipeline
// decisions: once each in the shared auth.* counters and once each in
// the decision flight recorder, in order.
TEST(Streaming, OwnRejectsAreCommittedOnce) {
  const Enrolled& f = fixture();
  const std::string path = "/tmp/p2auth_test_streaming_audit_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".bin";
  obs::reset_metrics();
  double fake_now = 0.0;
  StreamingOptions options;
  options.timeout_s = 1.0;
  options.max_buffer_samples = 50;
  options.lockout_threshold = 2;
  options.lockout_base_s = 10.0;
  options.clock = [&fake_now] { return fake_now; };
  const std::vector<RejectReason> expected = {RejectReason::kBufferOverflow,
                                              RejectReason::kTimeout,
                                              RejectReason::kLockedOut};
  std::vector<RejectReason> reasons;
  {
    obs::AuditRecorder recorder(path);
    obs::install_audit_recorder(&recorder);
    StreamingAuthenticator auth(f.user, 100.0, 4, options);
    const std::vector<double> sample(4, 0.5);
    auto decide = [&] {
      const std::optional<AuthResult> result = auth.poll();
      reasons.push_back(result ? result->reason : RejectReason::kNone);
    };
    for (int i = 0; i < 60; ++i) auth.push_sample(sample);
    decide();  // overflow
    for (int i = 0; i < 10; ++i) auth.push_sample(sample);
    fake_now += 1.5;
    decide();  // timeout; the second reject in a row arms the lockout
    auth.push_sample(sample);
    decide();  // locked out
    obs::install_audit_recorder(nullptr);
    recorder.flush();
  }
  const obs::AuditReadResult log = obs::read_audit_log(path);
  std::remove(path.c_str());
  EXPECT_EQ(reasons, expected);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log.records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.records[i].reason, audit_code(expected[i])) << i;
    EXPECT_EQ(log.records[i].accepted, 0) << i;
    EXPECT_EQ(log.records[i].user_id, f.user.user_id) << i;
  }
  if (!obs::enabled()) return;  // counters compiled out
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.counter("auth.attempts"), 3u);
  EXPECT_EQ(snap.counter("auth.reject"), 3u);
  EXPECT_EQ(snap.counter("auth.reject.buffer_overflow"), 1u);
  EXPECT_EQ(snap.counter("auth.reject.timeout"), 1u);
  EXPECT_EQ(snap.counter("auth.reject.locked_out"), 1u);
}

TEST(Streaming, LockoutEngagesAndBacksOffExponentially) {
  const Enrolled& f = fixture();
  double fake_now = 0.0;
  StreamingOptions options;
  options.timeout_s = 1.0;
  options.lockout_threshold = 2;
  options.lockout_base_s = 10.0;
  options.lockout_max_s = 1000.0;
  options.clock = [&fake_now] { return fake_now; };
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  const std::vector<double> sample(4, 0.5);

  auto force_timeout = [&] {
    for (int i = 0; i < 10; ++i) auth.push_sample(sample);
    fake_now += 1.5;
    const auto r = auth.poll();
    ASSERT_TRUE(r.has_value());
  };

  // Two consecutive rejects arm the first lockout (10 s).
  force_timeout();
  EXPECT_FALSE(auth.locked_out());
  force_timeout();
  EXPECT_TRUE(auth.locked_out());
  EXPECT_NEAR(auth.lockout_remaining_s(), 10.0, 1e-9);
  EXPECT_EQ(auth.stats().lockouts, 1u);

  // Attempts during the backoff are refused with kLockedOut and do not
  // re-arm the lockout.
  for (int i = 0; i < 10; ++i) auth.push_sample(sample);
  const auto refused = auth.poll();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->reason, RejectReason::kLockedOut);
  EXPECT_EQ(auth.stats().lockout_rejects, 1u);

  // After the backoff expires the gate reopens...
  fake_now += 20.0;
  EXPECT_FALSE(auth.locked_out());
  // ...and the next lockout doubles the backoff.
  force_timeout();
  force_timeout();
  EXPECT_TRUE(auth.locked_out());
  EXPECT_NEAR(auth.lockout_remaining_s(), 20.0, 1e-9);
  EXPECT_EQ(auth.stats().lockouts, 2u);
}

// Satellite regression: the timeout path must clear the
// streaming.buffer_samples gauge and account the dropped samples, like
// the decide path always did.
TEST(Streaming, TimeoutClearsBufferGaugeAndCountsDroppedSamples) {
  if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
  const Enrolled& f = fixture();
  obs::reset_metrics();
  StreamingOptions options;
  options.timeout_s = 0.5;
  StreamingAuthenticator auth(f.user, 100.0, 4, options);
  const std::vector<double> sample(4, 0.0);
  for (int i = 0; i < 100; ++i) auth.push_sample(sample);
  ASSERT_TRUE(auth.poll().has_value());  // timeout
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  ASSERT_EQ(snap.gauges.count("streaming.buffer_samples"), 1u);
  EXPECT_EQ(snap.gauges.at("streaming.buffer_samples"), 0.0);
  EXPECT_EQ(snap.counter("streaming.dropped_samples"), 100u);
  EXPECT_EQ(snap.counter("auth.attempts"), 1u);
  EXPECT_EQ(snap.counter("auth.reject.timeout"), 1u);
}

}  // namespace
}  // namespace p2auth::core
