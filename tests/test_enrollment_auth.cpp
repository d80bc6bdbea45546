// Integration tests: enrollment + authentication across the P2Auth
// pipeline on simulated hardware.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::core {
namespace {

struct Fixture {
  sim::Population population;
  keystroke::Pin pin{"1628"};
  EnrolledUser user;
  EnrollmentConfig config;
  util::Rng rng{12345};
  // enroll_user's inputs, kept for re-enrolling the same user.
  keystroke::Pin enrolled_pin;
  std::vector<Observation> positives, negatives;

  explicit Fixture(bool privacy_boost = false, bool no_pin = false) {
    sim::PopulationConfig pop_cfg;
    pop_cfg.num_users = 1;
    pop_cfg.seed = 77;
    population = sim::make_population(pop_cfg);
    config.privacy_boost = privacy_boost;

    sim::TrialOptions options;
    util::Rng er = rng.fork("enroll");
    if (no_pin) {
      const auto& pins = keystroke::paper_pins();
      for (int e = 0; e < 15; ++e) {
        util::Rng r = er.fork(e);
        sim::Trial t = sim::make_trial(population.users[0],
                                       pins[e % pins.size()], options, r);
        positives.push_back({std::move(t.entry), std::move(t.trace)});
      }
    } else {
      for (sim::Trial& t : sim::make_trials(population.users[0], pin, 9,
                                            options, er)) {
        positives.push_back({std::move(t.entry), std::move(t.trace)});
      }
    }
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 60, options, pr)) {
      negatives.push_back({std::move(t.entry), std::move(t.trace)});
    }
    enrolled_pin = no_pin ? keystroke::Pin() : pin;
    user = enroll_user(enrolled_pin, positives, negatives, config);
  }

  Observation legit_entry(std::uint64_t seed,
                          keystroke::InputCase input_case =
                              keystroke::InputCase::kOneHanded,
                          const keystroke::Pin* entry_pin = nullptr) {
    util::Rng r = rng.fork(0x7e57000ULL + seed);
    sim::TrialOptions options;
    options.input_case = input_case;
    sim::Trial t = sim::make_trial(population.users[0],
                                   entry_pin ? *entry_pin : pin, options, r);
    return {std::move(t.entry), std::move(t.trace)};
  }
};

TEST(Enrollment, TrainsExpectedModels) {
  Fixture f;
  EXPECT_TRUE(f.user.full_model.has_value());
  EXPECT_TRUE(f.user.full_model->trained());
  EXPECT_FALSE(f.user.boost_model.has_value());
  // The PIN 1628 has 4 distinct digits -> 4 key models.
  EXPECT_EQ(f.user.stats.key_models_trained, 4u);
  EXPECT_TRUE(f.user.has_key_model('1'));
  EXPECT_TRUE(f.user.has_key_model('6'));
  EXPECT_TRUE(f.user.has_key_model('2'));
  EXPECT_TRUE(f.user.has_key_model('8'));
  EXPECT_FALSE(f.user.has_key_model('9'));
  EXPECT_EQ(f.user.stats.full_positives, 9u);
  EXPECT_EQ(f.user.stats.full_negatives, 60u);
  EXPECT_GT(f.user.stats.segment_positives, 30u);
}

TEST(Enrollment, PrivacyBoostTrainsBoostModel) {
  Fixture f(/*privacy_boost=*/true);
  ASSERT_TRUE(f.user.boost_model.has_value());
  EXPECT_TRUE(f.user.boost_model->trained());
  EXPECT_TRUE(f.user.privacy_boost);
}

TEST(Enrollment, ErrorsOnMissingData) {
  EnrollmentConfig config;
  EXPECT_THROW(enroll_user(keystroke::Pin("1111"), std::vector<Observation>{},
                           std::vector<Observation>{}, config),
               std::invalid_argument);
}

// A malformed entry fails extraction on a pool worker; enroll_user must
// still surface extraction's own std::invalid_argument, not the pool's
// util::ParallelForError wrapper.
TEST(Enrollment, MalformedObservationThrowsInvalidArgument) {
  sim::PopulationConfig pop_cfg;
  pop_cfg.num_users = 1;
  pop_cfg.seed = 77;
  const sim::Population population = sim::make_population(pop_cfg);
  const keystroke::Pin pin("1628");
  util::Rng rng(4242);
  sim::TrialOptions options;
  std::vector<Observation> positives, negatives;
  for (sim::Trial& t :
       sim::make_trials(population.users[0], pin, 3, options, rng)) {
    positives.push_back({std::move(t.entry), std::move(t.trace)});
  }
  for (sim::Trial& t :
       sim::make_third_party_pool(population, 12, options, rng)) {
    negatives.push_back({std::move(t.entry), std::move(t.trace)});
  }
  EnrollmentConfig config;
  config.rocket.num_features = 500;

  std::vector<Observation> bad_negatives = negatives;
  bad_negatives.insert(bad_negatives.begin() + 7, Observation{});
  EXPECT_THROW(enroll_user(pin, positives, bad_negatives, config),
               std::invalid_argument);
  std::vector<Observation> bad_positives = positives;
  bad_positives.push_back(Observation{});
  EXPECT_THROW(enroll_user(pin, bad_positives, negatives, config),
               std::invalid_argument);
  EXPECT_THROW(extract_observations(bad_negatives, config),
               std::invalid_argument);
}

// Bit patterns, so -0.0 vs 0.0 or any last-bit drift fails the match.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_model(const std::optional<WaveformModel>& pooled,
                       const std::optional<WaveformModel>& serial,
                       const std::string& what) {
  ASSERT_EQ(pooled.has_value(), serial.has_value()) << what;
  if (!pooled) return;
  EXPECT_EQ(bits(pooled->ridge().weights()), bits(serial->ridge().weights()))
      << what;
  const double pooled_scalars[] = {pooled->ridge().bias(),
                                   pooled->ridge().chosen_lambda(),
                                   pooled->threshold()};
  const double serial_scalars[] = {serial->ridge().bias(),
                                   serial->ridge().chosen_lambda(),
                                   serial->threshold()};
  EXPECT_EQ(bits(pooled_scalars), bits(serial_scalars)) << what;
  ASSERT_EQ(pooled->rocket().num_channels(), serial->rocket().num_channels());
  for (std::size_t c = 0; c < pooled->rocket().num_channels(); ++c) {
    EXPECT_EQ(bits(pooled->rocket().channel(c).biases()),
              bits(serial->rocket().channel(c).biases()))
        << what << " channel " << c;
  }
}

// enroll_user on the calling thread runs extraction, the MiniRocket fits
// and the Gram builds on the pool; inside a pool task every nested
// parallel_for runs inline, i.e. serially.  Both must train the same bits.
void expect_pooled_matches_inline(const Fixture& f) {
  EnrolledUser serial;
  util::parallel_for(1, 1, [&](std::size_t) {
    ASSERT_TRUE(util::in_parallel_task());
    serial = enroll_user(f.enrolled_pin, f.positives, f.negatives, f.config);
  });
  expect_same_model(f.user.full_model, serial.full_model, "full");
  expect_same_model(f.user.boost_model, serial.boost_model, "boost");
  for (std::size_t k = 0; k < f.user.key_models.size(); ++k) {
    expect_same_model(f.user.key_models[k], serial.key_models[k],
                      "key " + std::to_string(k));
  }
}

TEST(Enrollment, PooledMatchesInlineForPinUser) {
  const Fixture f(/*privacy_boost=*/true);
  ASSERT_TRUE(f.user.boost_model.has_value());
  expect_pooled_matches_inline(f);
}

TEST(Enrollment, PooledMatchesInlineForNoPinUser) {
  const Fixture f(/*privacy_boost=*/false, /*no_pin=*/true);
  ASSERT_GT(f.user.stats.key_models_trained, 0u);
  expect_pooled_matches_inline(f);
}

TEST(Authenticate, AcceptsLegitimateOneHanded) {
  Fixture f;
  int accepted = 0;
  for (int i = 0; i < 6; ++i) {
    const AuthResult r = authenticate(f.user, f.legit_entry(i));
    accepted += r.accepted ? 1 : 0;
    EXPECT_TRUE(r.pin_checked);
    EXPECT_TRUE(r.pin_ok);
  }
  EXPECT_GE(accepted, 5);
}

TEST(Authenticate, RejectsWrongPinBeforeBiometrics) {
  Fixture f;
  const keystroke::Pin wrong("9999");
  const AuthResult r =
      authenticate(f.user, f.legit_entry(100, keystroke::InputCase::kOneHanded,
                                         &wrong));
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.pin_checked);
  EXPECT_FALSE(r.pin_ok);
  EXPECT_EQ(r.reason, RejectReason::kWrongPin);
  EXPECT_EQ(r.model_path, ModelPath::kNone);
  // Biometric stage never ran.
  EXPECT_EQ(r.detected_case, DetectedCase::kRejected);
  EXPECT_TRUE(r.votes.empty());
}

TEST(Authenticate, SkipPinCheckOptionBypassesFactorOne) {
  Fixture f;
  const keystroke::Pin wrong("9999");
  AuthOptions options;
  options.skip_pin_check = true;
  const AuthResult r = authenticate(
      f.user, f.legit_entry(101, keystroke::InputCase::kOneHanded, &wrong),
      options);
  EXPECT_FALSE(r.pin_checked);
  // Biometric stage ran (one-handed case detected or not, but not "wrong
  // PIN").
  EXPECT_NE(r.reason, RejectReason::kWrongPin);
}

TEST(Authenticate, TwoHandedUsesVotes) {
  Fixture f;
  int accepted = 0, with_votes = 0;
  for (int i = 0; i < 8; ++i) {
    const AuthResult r = authenticate(
        f.user, f.legit_entry(200 + i, keystroke::InputCase::kTwoHandedThree));
    if (r.detected_case == DetectedCase::kTwoHandedThree) {
      ++with_votes;
      EXPECT_EQ(r.votes.size(), 3u);
      accepted += r.accepted ? 1 : 0;
    }
  }
  EXPECT_GT(with_votes, 4);
  EXPECT_GE(accepted * 10, with_votes * 6);
}

TEST(Authenticate, RejectsEmulatingAttackers) {
  Fixture f;
  int rejected = 0;
  util::Rng rng(999);
  for (int i = 0; i < 8; ++i) {
    util::Rng r = rng.fork(i);
    sim::Trial t = sim::make_emulating_attack(
        f.population.attackers[i % f.population.attackers.size()],
        f.population.users[0], f.pin, sim::TrialOptions{},
        sim::EmulationOptions{}, r);
    const AuthResult result =
        authenticate(f.user, {std::move(t.entry), std::move(t.trace)});
    rejected += result.accepted ? 0 : 1;
  }
  EXPECT_GE(rejected, 6);
}

TEST(Authenticate, PrivacyBoostPathUsed) {
  Fixture f(/*privacy_boost=*/true);
  const AuthResult r = authenticate(f.user, f.legit_entry(300));
  if (r.detected_case == DetectedCase::kOneHanded) {
    EXPECT_EQ(r.model_path, ModelPath::kBoost);
    EXPECT_EQ(r.reason, r.accepted ? RejectReason::kNone
                                   : RejectReason::kModelRejected);
  }
}

TEST(Authenticate, NoPinModeSkipsPinAndVotes) {
  Fixture f(/*privacy_boost=*/false, /*no_pin=*/true);
  EXPECT_TRUE(f.user.pin.empty());
  // All ten digits should have key models after covering enrollment.
  EXPECT_GE(f.user.stats.key_models_trained, 9u);
  const keystroke::Pin fresh("3570");
  const AuthResult r = authenticate(
      f.user, f.legit_entry(400, keystroke::InputCase::kOneHanded, &fresh));
  EXPECT_FALSE(r.pin_checked);
  if (r.detected_case == DetectedCase::kOneHanded) {
    EXPECT_EQ(r.votes.size(), 4u);
  }
}

TEST(Authenticate, MissingKeyModelVotesAgainst) {
  Fixture f;
  // Attacker-style entry typing digits outside the enrolled PIN with the
  // PIN check bypassed: every vote must fail.
  const keystroke::Pin other("3570");
  AuthOptions options;
  options.skip_pin_check = true;
  const AuthResult r = authenticate(
      f.user,
      f.legit_entry(500, keystroke::InputCase::kTwoHandedThree, &other),
      options);
  if (!r.votes.empty()) {
    for (const int v : r.votes) EXPECT_EQ(v, -1);
    EXPECT_FALSE(r.accepted);
  }
}

TEST(Authenticate, IntegrationPolicyChangesTwoHandedDecision) {
  Fixture f;
  // Find a two-handed entry with a mixed vote (some pass, some fail).
  for (int i = 0; i < 30; ++i) {
    const Observation obs =
        f.legit_entry(600 + i, keystroke::InputCase::kTwoHandedThree);
    AuthOptions paper, all, any;
    all.integration = IntegrationPolicy::kAll;
    any.integration = IntegrationPolicy::kAny;
    const AuthResult rp = authenticate(f.user, obs, paper);
    if (rp.votes.size() < 2) continue;
    const std::size_t pass = static_cast<std::size_t>(
        std::count(rp.votes.begin(), rp.votes.end(), 1));
    if (pass == 0 || pass == rp.votes.size()) continue;
    const AuthResult ra = authenticate(f.user, obs, all);
    const AuthResult ry = authenticate(f.user, obs, any);
    // Mixed vote: "all" rejects, "any" accepts, paper sits between.
    EXPECT_FALSE(ra.accepted);
    EXPECT_TRUE(ry.accepted);
    return;  // one mixed-vote entry is enough
  }
  GTEST_SKIP() << "no mixed-vote entry found in 30 draws";
}

TEST(Authenticate, DisablingCalibrationStillRuns) {
  Fixture f;
  AuthOptions options;
  options.preprocess.calibrate = false;
  const AuthResult r = authenticate(f.user, f.legit_entry(700), options);
  // Decision may differ, but the pipeline completes and reports an
  // outcome: accepted, or rejected with a concrete typed reason.
  EXPECT_TRUE(r.accepted || r.reason != RejectReason::kNone);
  EXPECT_FALSE(r.reason_text().empty());
}

TEST(WaveformModelUnit, QualityEstimateReflectsSeparability) {
  util::Rng rng(77);
  auto make = [&](double shift, std::uint64_t seed) {
    util::Rng r(seed);
    std::vector<Series> w(1, Series(100));
    for (double& v : w[0]) v = r.normal(shift, 1.0);
    return w;
  };
  // Well-separated classes: the LOO quality estimate must be high.
  std::vector<std::vector<Series>> pos, neg;
  for (int i = 0; i < 6; ++i) pos.push_back(make(3.0, 100 + i));
  for (int i = 0; i < 30; ++i) neg.push_back(make(0.0, 200 + i));
  WaveformModel good;
  ml::MiniRocketOptions rocket;
  rocket.num_features = 500;
  good.train(pos, neg, rocket, linalg::RidgeOptions{}, rng);
  const auto gq = good.estimate_quality();
  EXPECT_GE(gq.estimated_accuracy, 0.8);
  EXPECT_GE(gq.estimated_trr, 0.8);

  // Identical classes: the estimate must be visibly worse on at least
  // one axis (the midpoint threshold splits chance performance).
  std::vector<std::vector<Series>> pos2, neg2;
  for (int i = 0; i < 6; ++i) pos2.push_back(make(0.0, 300 + i));
  for (int i = 0; i < 30; ++i) neg2.push_back(make(0.0, 400 + i));
  WaveformModel bad;
  util::Rng rng2(78);
  bad.train(pos2, neg2, rocket, linalg::RidgeOptions{}, rng2);
  const auto bq = bad.estimate_quality();
  EXPECT_LT(std::min(bq.estimated_accuracy, bq.estimated_trr),
            std::min(gq.estimated_accuracy, gq.estimated_trr));
}

TEST(WaveformModelUnit, QualityEstimateRequiresFreshModel) {
  WaveformModel model;
  EXPECT_THROW(model.estimate_quality(), std::logic_error);
}

TEST(WaveformModelUnit, TrainValidatesInput) {
  WaveformModel model;
  util::Rng rng(1);
  EXPECT_THROW(model.train({}, {}, ml::MiniRocketOptions{},
                           linalg::RidgeOptions{}, rng),
               std::invalid_argument);
  EXPECT_FALSE(model.trained());
  EXPECT_THROW(model.decision({{1.0, 2.0}}), std::logic_error);
}

TEST(WaveformModelUnit, SeparatesSyntheticClasses) {
  // Positive waveforms carry a bump; negatives are flat noise.
  util::Rng rng(2);
  auto make = [&](bool bump, std::uint64_t seed) {
    util::Rng r(seed);
    std::vector<Series> w(1, Series(120));
    for (std::size_t i = 0; i < 120; ++i) {
      w[0][i] = r.normal(0.0, 0.3);
      if (bump && i > 40 && i < 70) w[0][i] += 3.0;
    }
    return w;
  };
  std::vector<std::vector<Series>> pos, neg;
  for (int i = 0; i < 8; ++i) pos.push_back(make(true, 100 + i));
  for (int i = 0; i < 20; ++i) neg.push_back(make(false, 200 + i));
  WaveformModel model;
  ml::MiniRocketOptions rocket;
  rocket.num_features = 1000;
  model.train(pos, neg, rocket, linalg::RidgeOptions{}, rng);
  int correct = 0;
  for (int i = 0; i < 10; ++i) {
    correct += model.accept(make(true, 300 + i)) ? 1 : 0;
    correct += model.accept(make(false, 400 + i)) ? 0 : 1;
  }
  EXPECT_GE(correct, 17);
}

TEST(WaveformModelUnit, ThresholdRecenteringShiftsOperatingPoint) {
  util::Rng rng(3);
  auto make = [&](double shift, std::uint64_t seed) {
    util::Rng r(seed);
    std::vector<Series> w(1, Series(100));
    for (std::size_t i = 0; i < 100; ++i) {
      w[0][i] = r.normal(shift, 1.0);
    }
    return w;
  };
  std::vector<std::vector<Series>> pos, neg;
  for (int i = 0; i < 4; ++i) pos.push_back(make(0.8, 500 + i));
  for (int i = 0; i < 40; ++i) neg.push_back(make(0.0, 600 + i));
  WaveformModel recentered, raw;
  util::Rng r1(4), r2(4);
  ml::MiniRocketOptions rocket;
  rocket.num_features = 500;
  recentered.train(pos, neg, rocket, linalg::RidgeOptions{}, r1, true);
  raw.train(pos, neg, rocket, linalg::RidgeOptions{}, r2, false);
  EXPECT_EQ(raw.threshold(), 0.0);
  EXPECT_NE(recentered.threshold(), 0.0);
  // Recentersing must make acceptance of borderline positives at least as
  // likely as the raw operating point.
  int rec_accepts = 0, raw_accepts = 0;
  for (int i = 0; i < 10; ++i) {
    const auto probe = make(0.8, 700 + i);
    rec_accepts += recentered.accept(probe) ? 1 : 0;
    raw_accepts += raw.accept(probe) ? 1 : 0;
  }
  EXPECT_GE(rec_accepts, raw_accepts);
}

}  // namespace
}  // namespace p2auth::core
