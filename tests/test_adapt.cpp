// Guarded adaptive re-enrollment tests (core/adapt.hpp).  The contract
// under test: genuine high-margin accepts feed refreshes that track
// drift, while every poisoning channel — gated or forced past the gates
// — leaves the enrolled threshold bit-identical and the pool FAR proxy
// no worse.  bench_scenarios enforces the same invariants at scale; these
// are the fast deterministic unit teeth.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/adapt.hpp"
#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"

namespace p2auth::core {
namespace {

struct Fixture {
  sim::Population population;
  keystroke::Pin pin{"3570"};
  EnrollmentConfig enrollment_cfg;
  std::vector<Observation> enroll_obs;
  std::vector<ExtractedEntry> negative_pool;
  EnrolledUser user;

  Fixture() {
    sim::PopulationConfig cfg;
    cfg.num_users = 1;
    cfg.seed = 808;
    population = sim::make_population(cfg);
    enrollment_cfg.rocket.num_features = 2000;
    util::Rng rng(909);
    sim::TrialOptions options;
    util::Rng er = rng.fork("enroll");
    for (sim::Trial& t :
         sim::make_trials(population.users[0], pin, 6, options, er)) {
      enroll_obs.push_back({std::move(t.entry), std::move(t.trace)});
    }
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 30, options, pr)) {
      negative_pool.push_back(extract_observation(
          {std::move(t.entry), std::move(t.trace)}, enrollment_cfg));
    }
    user = enroll_user(pin, enroll_obs, negative_pool, enrollment_cfg);
  }

  AdaptOptions adapt_options() const {
    AdaptOptions o;
    o.enrollment = enrollment_cfg;
    o.margin_quantile = 0.05;
    o.candidate_capacity = 8;
    o.min_candidates = 4;
    o.max_positives = 12;
    o.consensus_fraction = 0.75;  // unanimity for a 4-digit PIN
    return o;
  }

  TemplateAdapter make_adapter() const {
    return TemplateAdapter(user, enroll_obs, negative_pool, adapt_options());
  }

  Observation fresh_entry(std::uint64_t seed) const {
    util::Rng r(seed);
    sim::TrialOptions options;
    sim::Trial t = sim::make_trial(population.users[0], pin, options, r);
    return {std::move(t.entry), std::move(t.trace)};
  }

  Observation attack_entry(std::uint64_t seed) const {
    util::Rng r(seed);
    sim::TrialOptions options;
    sim::Trial t = sim::make_emulating_attack(
        population.attackers[0], population.users[0], pin, options,
        sim::EmulationOptions{}, r);
    return {std::move(t.entry), std::move(t.trace)};
  }

  int pool_accepts(const EnrolledUser& u) const {
    int accepts = 0;
    for (const ExtractedEntry& e : negative_pool) {
      accepts += u.full_model->decision(e.full) >= 0.0;
    }
    return accepts;
  }
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

// Feeds genuine attempts until the buffer can refresh; returns admitted.
std::size_t feed_genuine(TemplateAdapter& adapter, std::uint64_t seed_base,
                         int attempts) {
  for (int i = 0; i < attempts; ++i) {
    adapter.attempt(fixture().fresh_entry(seed_base + i),
                    TemplateAdapter::Truth::kGenuine);
  }
  return adapter.buffered_candidates();
}

TEST(Adapt, CtorValidatesInputs) {
  const Fixture& f = fixture();
  EnrolledUser no_model = f.user;
  no_model.full_model.reset();
  EXPECT_THROW(TemplateAdapter(no_model, f.enroll_obs, f.negative_pool),
               std::invalid_argument);
  EnrolledUser no_baseline = f.user;
  no_baseline.score_baseline = {};
  EXPECT_THROW(TemplateAdapter(no_baseline, f.enroll_obs, f.negative_pool),
               std::invalid_argument);
  EXPECT_THROW(TemplateAdapter(f.user, {}, f.negative_pool),
               std::invalid_argument);
  EXPECT_THROW(TemplateAdapter(f.user, f.enroll_obs, {}),
               std::invalid_argument);
}

TEST(Adapt, GenuineAcceptsFeedCandidateBuffer) {
  TemplateAdapter adapter = fixture().make_adapter();
  EXPECT_EQ(adapter.buffered_candidates(), 0u);
  const std::size_t buffered = feed_genuine(adapter, 100, 10);
  EXPECT_GE(buffered, adapter.options().min_candidates);
  EXPECT_EQ(adapter.stats().attempts, 10u);
  EXPECT_EQ(adapter.stats().admitted, buffered);
  EXPECT_FALSE(adapter.stale());
}

TEST(Adapt, RefreshNotReadyWithStarvedBuffer) {
  TemplateAdapter adapter = fixture().make_adapter();
  EXPECT_EQ(adapter.try_refresh(), RefreshOutcome::kNotReady);
  EXPECT_EQ(adapter.stats().refreshes, 0u);
}

TEST(Adapt, RefreshKeepsPoolFarAndConsumesBuffer) {
  const Fixture& f = fixture();
  TemplateAdapter adapter = f.make_adapter();
  ASSERT_GE(feed_genuine(adapter, 100, 10), adapter.options().min_candidates);
  const int far_before = f.pool_accepts(adapter.user());
  ASSERT_EQ(adapter.try_refresh(), RefreshOutcome::kRefreshed);
  EXPECT_EQ(adapter.stats().refreshes, 1u);
  EXPECT_EQ(adapter.buffered_candidates(), 0u);
  // Post-retrain guard + operating-point calibration: the refreshed model
  // accepts no more of the third-party pool than the outgoing one.
  EXPECT_LE(f.pool_accepts(adapter.user()), far_before);
  // The refreshed model still authenticates fresh genuine entries.
  int accepts = 0;
  for (int i = 0; i < 4; ++i) {
    accepts += adapter.attempt(f.fresh_entry(500 + i),
                               TemplateAdapter::Truth::kGenuine)
                   .accepted;
  }
  EXPECT_GT(accepts, 0);
}

TEST(Adapt, GatedPoisoningNeverRefreshes) {
  // Realistic channel: every attacker attempt flows through the gated
  // attempt path.  The margin/quality/consensus gates must starve the
  // buffer below min_candidates, so no refresh fires and the threshold
  // stays bit-identical.
  const Fixture& f = fixture();
  TemplateAdapter adapter = f.make_adapter();
  const double threshold_before = adapter.user().full_model->threshold();
  for (int i = 0; i < 10; ++i) {
    adapter.attempt(f.attack_entry(9000 + i),
                    TemplateAdapter::Truth::kImposter);
  }
  EXPECT_NE(adapter.try_refresh(), RefreshOutcome::kRefreshed);
  EXPECT_EQ(adapter.stats().refreshes, 0u);
  EXPECT_EQ(adapter.user().full_model->threshold(), threshold_before);
  EXPECT_EQ(f.pool_accepts(adapter.user()), f.pool_accepts(f.user));
}

TEST(Adapt, ForcedPoisoningDiesAtRevalidation) {
  // Compromised ingest: candidates injected past every admission gate
  // (force_candidate).  Refresh-time re-validation plus the post-retrain
  // guard must still keep the threshold and pool FAR unchanged.
  const Fixture& f = fixture();
  TemplateAdapter adapter = f.make_adapter();
  const double threshold_before = adapter.user().full_model->threshold();
  const int far_before = f.pool_accepts(adapter.user());
  for (int i = 0; i < 8; ++i) {
    adapter.force_candidate(f.attack_entry(9100 + i));
  }
  EXPECT_EQ(adapter.buffered_candidates(), 8u);
  EXPECT_NE(adapter.try_refresh(), RefreshOutcome::kRefreshed);
  EXPECT_EQ(adapter.stats().refreshes, 0u);
  EXPECT_GT(adapter.stats().revalidation_evicted, 0u);
  EXPECT_EQ(adapter.user().full_model->threshold(), threshold_before);
  EXPECT_EQ(f.pool_accepts(adapter.user()), far_before);
}

TEST(Adapt, RollbackRestoresModelAndCommittee) {
  const Fixture& f = fixture();
  TemplateAdapter adapter = f.make_adapter();
  EXPECT_FALSE(adapter.rollback_last_refresh());  // nothing to restore yet
  ASSERT_GE(feed_genuine(adapter, 100, 10), adapter.options().min_candidates);
  const double threshold_before = adapter.user().full_model->threshold();
  std::vector<std::pair<std::size_t, double>> key_thresholds_before;
  for (std::size_t k = 0; k < adapter.user().key_models.size(); ++k) {
    if (adapter.user().key_models[k]) {
      key_thresholds_before.emplace_back(
          k, adapter.user().key_models[k]->threshold());
    }
  }
  ASSERT_EQ(adapter.try_refresh(), RefreshOutcome::kRefreshed);
  ASSERT_TRUE(adapter.rollback_last_refresh());
  EXPECT_EQ(adapter.user().full_model->threshold(), threshold_before);
  // The committee snapshot is part of the rollback: co-adapted members
  // revert with the full model, never drifting ahead of it.
  for (const auto& [k, threshold] : key_thresholds_before) {
    ASSERT_TRUE(adapter.user().key_models[k].has_value());
    EXPECT_EQ(adapter.user().key_models[k]->threshold(), threshold);
  }
  EXPECT_FALSE(adapter.rollback_last_refresh());  // single-level undo
}

TEST(Adapt, AdmissionMarginTracksBaselineQuantile) {
  const Fixture& f = fixture();
  TemplateAdapter adapter = f.make_adapter();
  const double margin = adapter.admission_margin();
  EXPECT_TRUE(std::isfinite(margin));
  AdaptOptions stricter = f.adapt_options();
  stricter.margin_quantile = 0.9;
  TemplateAdapter strict_adapter(f.user, f.enroll_obs, f.negative_pool,
                                 stricter);
  EXPECT_GT(strict_adapter.admission_margin(), margin);
}

// The stale path: attackers who hold the PIN, fed in as genuine, starve
// the candidate buffer and drag the live genuine scores below the accept
// boundary, so the FRR-rise alert declares the templates stale.  The
// next attempt is refused unscored and committed like any decision.
TEST(Adapt, StaleTemplatesRejectTypedAndCommitted) {
  const Fixture& f = fixture();
  TemplateAdapter adapter = f.make_adapter();
  obs::reset_metrics();
  for (std::size_t i = 0; i < kStaleAttemptWindow; ++i) {
    adapter.attempt(f.attack_entry(9200 + i),
                    TemplateAdapter::Truth::kGenuine);
  }
  ASSERT_EQ(adapter.stats().admitted, 0u);
  ASSERT_TRUE(adapter.stale());
  const AuthResult result = adapter.attempt(
      f.fresh_entry(600), TemplateAdapter::Truth::kGenuine);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kTemplateStale);
  EXPECT_EQ(result.model_path, ModelPath::kNone);
  EXPECT_EQ(adapter.stats().attempts, kStaleAttemptWindow + 1);
  EXPECT_EQ(adapter.stats().stale_rejects, 1u);
  if (!obs::enabled()) return;  // counters compiled out
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  EXPECT_EQ(snap.counter("auth.reject.template_stale"), 1u);
  EXPECT_EQ(snap.counter("auth.attempts"), kStaleAttemptWindow + 1);
}

}  // namespace
}  // namespace p2auth::core
