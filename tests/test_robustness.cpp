// Failure-injection tests: the pipeline under degraded or corrupted
// sensor input.  The invariant throughout: degradation may cost
// legitimate acceptance, but must never grant an attacker acceptance via
// a crash-less garbage path, and corrupted input must be rejected loudly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "sim/faults.hpp"

namespace p2auth::core {
namespace {

struct Enrolled {
  sim::Population population;
  keystroke::Pin pin{"3570"};
  EnrolledUser user;

  Enrolled() {
    sim::PopulationConfig cfg;
    cfg.num_users = 1;
    cfg.seed = 808;
    population = sim::make_population(cfg);
    util::Rng rng(909);
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

  Observation fresh_entry(std::uint64_t seed) const {
    util::Rng r(seed);
    sim::TrialOptions options;
    sim::Trial t = sim::make_trial(population.users[0], pin, options, r);
    return {std::move(t.entry), std::move(t.trace)};
  }
};

const Enrolled& fixture() {
  static const Enrolled instance;
  return instance;
}

TEST(Robustness, NanChannelMaskedAndAttemptStillDecides) {
  // Channel-health gating: a NaN-poisoned channel is masked (zeroed) and
  // the attempt proceeds on the surviving channels — no throw, and the
  // gating is visible in the preprocess report.  Channel 0 is the
  // configured reference, so the gate must also fall back to a healthy
  // reference channel.
  Observation obs = fixture().fresh_entry(1);
  obs.trace.channels[0][100] = std::numeric_limits<double>::quiet_NaN();
  const PreprocessedEntry pre = preprocess_entry(obs);
  ASSERT_EQ(pre.health.channels.size(), obs.trace.num_channels());
  EXPECT_FALSE(pre.health.channels[0].usable);
  EXPECT_EQ(pre.health.usable_count(), obs.trace.num_channels() - 1);
  EXPECT_NE(pre.reference_channel_used, 0u);
  for (const double v : pre.filtered[0]) EXPECT_EQ(v, 0.0);  // masked
  // The strict channel policy: the models never score partial evidence
  // (a zeroed channel is off-manifold input that can raise FAR), so the
  // attempt decides — no throw — with a typed degraded-evidence reject.
  const AuthResult r = authenticate(fixture().user, obs);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, RejectReason::kDegradedEvidence);
  // The permissive ablation policy scores the survivors anyway.
  AuthOptions permissive;
  permissive.allow_degraded_evidence = true;
  EXPECT_NO_THROW({
    const AuthResult p = authenticate(fixture().user, obs, permissive);
    EXPECT_NE(p.reason, RejectReason::kDegradedEvidence);
  });
}

TEST(Robustness, InfinityChannelMaskedAndAttemptStillDecides) {
  Observation obs = fixture().fresh_entry(2);
  obs.trace.channels[2][50] = std::numeric_limits<double>::infinity();
  const PreprocessedEntry pre = preprocess_entry(obs);
  EXPECT_FALSE(pre.health.channels[2].usable);
  const AuthResult r = authenticate(fixture().user, obs);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, RejectReason::kDegradedEvidence);
}

TEST(Robustness, AllChannelsPoisonedRejectsWithTypedReason) {
  // When gating masks every channel there is no biometric evidence left:
  // the attempt rejects with kNoUsableChannel instead of crashing or
  // scoring garbage.
  Observation obs = fixture().fresh_entry(12);
  for (auto& ch : obs.trace.channels) {
    for (std::size_t i = 0; i < ch.size(); i += 3) {
      ch[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const PreprocessedEntry pre = preprocess_entry(obs);
  EXPECT_TRUE(pre.no_usable_channel());
  EXPECT_EQ(pre.detected_case, DetectedCase::kRejected);
  const AuthResult r = authenticate(fixture().user, obs);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, RejectReason::kNoUsableChannel);
}

TEST(Robustness, RaggedChannelsRejected) {
  Observation obs = fixture().fresh_entry(3);
  obs.trace.channels[1].resize(obs.trace.channels[1].size() - 10);
  EXPECT_THROW(preprocess_entry(obs), std::invalid_argument);
}

TEST(Robustness, FlatlinedSensorDoesNotAuthenticate) {
  // A dead sensor (constant output on every channel) carries no
  // keystroke evidence: the case identifier must reject the entry rather
  // than route garbage to a classifier.
  Observation obs = fixture().fresh_entry(4);
  for (auto& ch : obs.trace.channels) {
    std::fill(ch.begin(), ch.end(), 0.7);
  }
  const AuthResult r = authenticate(fixture().user, obs);
  EXPECT_FALSE(r.accepted);
}

TEST(Robustness, DroppedSegmentStillHandled) {
  // A 0.5 s dropout (zeros) over the second keystroke: the pipeline must
  // complete and at worst reject.
  Observation obs = fixture().fresh_entry(5);
  const auto start = static_cast<std::size_t>(
      obs.entry.events[1].recorded_time_s * obs.trace.rate_hz);
  for (auto& ch : obs.trace.channels) {
    for (std::size_t i = start; i < std::min(ch.size(), start + 50); ++i) {
      ch[i] = 0.0;
    }
  }
  EXPECT_NO_THROW({
    const AuthResult r = authenticate(fixture().user, obs);
    (void)r;
  });
}

TEST(Robustness, SaturatedSensorClipsWithoutCrash) {
  // ADC saturation: clip the trace at a low ceiling.
  Observation obs = fixture().fresh_entry(6);
  for (auto& ch : obs.trace.channels) {
    for (double& v : ch) v = std::clamp(v, -1.0, 1.0);
  }
  EXPECT_NO_THROW({
    const AuthResult r = authenticate(fixture().user, obs);
    (void)r;
  });
}

TEST(Robustness, WrongChannelCountRejectedByModels) {
  // The watch streams fewer channels than the model was enrolled with.
  Observation obs = fixture().fresh_entry(7);
  obs.trace.channels.resize(2);
  const auto pre = preprocess_entry(obs);
  const auto full = extract_full_waveform(
      pre.filtered, pre.calibrated_indices.front(), pre.rate_hz);
  EXPECT_THROW((void)fixture().user.full_model->decision(full),
               std::invalid_argument);
}

TEST(Robustness, MismatchedSamplingRateRejectedByModels) {
  // Models are enrolled at 100 Hz; a 50 Hz stream yields rate-scaled
  // segment lengths and must fail loudly, not silently misclassify.
  util::Rng r(77);
  sim::TrialOptions options;
  options.sensors.rate_hz = 50.0;
  sim::Trial t = sim::make_trial(fixture().population.users[0],
                                 fixture().pin, options, r);
  EXPECT_THROW(
      (void)authenticate(fixture().user,
                         {std::move(t.entry), std::move(t.trace)}),
      std::invalid_argument);
}

TEST(Robustness, EmptyEventLogIsRejected) {
  Observation obs = fixture().fresh_entry(8);
  obs.entry.events.clear();
  obs.entry.pin = keystroke::Pin("3570");  // PIN typed but no event log
  const AuthResult r = authenticate(fixture().user, obs);
  EXPECT_FALSE(r.accepted);
}

TEST(Robustness, TimestampsBeyondTraceClampAndReject) {
  Observation obs = fixture().fresh_entry(9);
  for (auto& e : obs.entry.events) e.recorded_time_s += 100.0;
  EXPECT_NO_THROW({
    const AuthResult r = authenticate(fixture().user, obs);
    EXPECT_FALSE(r.accepted);
  });
}

TEST(Robustness, ExtremeGainStillDeterministicallyHandled) {
  // A pathological per-entry gain (e.g. firmware AGC bug) scales the
  // trace by 1000x; the pipeline completes without numeric blowup.
  Observation obs = fixture().fresh_entry(10);
  for (auto& ch : obs.trace.channels) {
    for (double& v : ch) v *= 1000.0;
  }
  EXPECT_NO_THROW({
    const AuthResult r = authenticate(fixture().user, obs);
    (void)r;
  });
}

TEST(Robustness, WearingPositionDegradesButDoesNotBreak) {
  // Back-of-wrist wearing (paper section VI): entries still process; the
  // legitimate acceptance rate may drop but attacker acceptance must not
  // rise above legitimate acceptance.
  util::Rng rng(42);
  sim::TrialOptions back;
  back.wearing = ppg::WearingPosition::kBackOfWrist;
  int legit_accepts = 0, attacker_accepts = 0;
  for (int i = 0; i < 6; ++i) {
    util::Rng r = rng.fork(i);
    sim::Trial t = sim::make_trial(fixture().population.users[0],
                                   fixture().pin, back, r);
    legit_accepts +=
        authenticate(fixture().user, {std::move(t.entry), std::move(t.trace)})
            .accepted;
  }
  for (int i = 0; i < 6; ++i) {
    util::Rng r = rng.fork(100 + i);
    sim::Trial t = sim::make_emulating_attack(
        fixture().population.attackers[i %
                                       fixture().population.attackers.size()],
        fixture().population.users[0], fixture().pin, back,
        sim::EmulationOptions{}, r);
    attacker_accepts +=
        authenticate(fixture().user, {std::move(t.entry), std::move(t.trace)})
            .accepted;
  }
  EXPECT_LE(attacker_accepts, legit_accepts);
  EXPECT_LE(attacker_accepts, 2);
}

TEST(Robustness, FaultSweepNeverRaisesAttackerAcceptance) {
  // Security invariant of the resilience layer: injected sensor faults
  // may cost legitimate acceptance (FRR) but must NEVER buy an attacker
  // acceptance.  The same attack trials (same seeds) are authenticated
  // clean and under increasing fault severity; faulted acceptances must
  // not exceed clean acceptances, and nothing may throw.
  const Enrolled& f = fixture();
  constexpr int kAttacks = 8;
  util::Rng rng(4242);

  std::vector<Observation> attacks;
  for (int i = 0; i < kAttacks; ++i) {
    util::Rng r = rng.fork(i);
    sim::Trial t = sim::make_emulating_attack(
        f.population.attackers[i % f.population.attackers.size()],
        f.population.users[0], f.pin, sim::TrialOptions{},
        sim::EmulationOptions{}, r);
    attacks.push_back({std::move(t.entry), std::move(t.trace)});
  }

  int clean_accepts = 0;
  for (const Observation& obs : attacks) {
    clean_accepts += authenticate(f.user, obs).accepted;
  }

  for (const double severity : {0.3, 0.7, 1.0}) {
    sim::FaultConfig cfg;
    cfg.severity = severity;
    int faulted_accepts = 0;
    for (int i = 0; i < kAttacks; ++i) {
      Observation obs = attacks[static_cast<std::size_t>(i)];
      sim::FaultPlan plan(cfg, rng.fork("faults").fork(i));
      const sim::FaultLog log = plan.apply(obs.trace, obs.entry);
      if (severity >= 0.7) {
        EXPECT_GT(log.total(), 0u);
      }
      EXPECT_NO_THROW({
        const AuthResult r = authenticate(f.user, obs);
        faulted_accepts += r.accepted;
      });
    }
    EXPECT_LE(faulted_accepts, clean_accepts)
        << "faults bought attacker acceptance at severity " << severity;
  }
}

}  // namespace
}  // namespace p2auth::core
