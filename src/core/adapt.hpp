// Guarded adaptive re-enrollment (template-aging countermeasure).
//
// The paper's 8-week pilot shows per-user templates age; frozen models
// slowly trade FRR for nothing.  This module closes the loop: high-margin
// *accepted* attempts feed a bounded candidate buffer, and the enrolled
// full-waveform model is periodically retrained on a sliding window of
// those candidates anchored by the original enrollment entries.
//
// The dangerous failure mode of any self-updating biometric is template
// poisoning: an attacker who slips samples into the update set walks the
// decision boundary toward their own physiology.  Every update here is
// therefore guarded, and the robustness bench (bench_scenarios) enforces
// the FAR-never-rises invariant as a hard assertion:
//
//   1. Admission margin — only attempts the *current* model accepts with
//      a score above a quantile of the enrollment-time genuine LOO
//      baseline enter the buffer (low-margin accepts are exactly where
//      an imposter distribution overlaps).
//   2. Quality + consensus gates — candidates must pass core/quality
//      channel health on every channel (degraded evidence never trains),
//      and the per-keystroke consensus committee — independent
//      classifiers voting on individual segments — must accept the
//      candidate's segments.  An emulating attacker who slips past the
//      full-waveform margin rarely convinces the per-key models too.
//      The committee co-adapts: each member refreshes only as part of an
//      accepted guarded refresh, trained solely on segments of
//      candidates the *previous* committee itself admitted, and each
//      member refresh carries its own pool-FAR clamp.  The chain of
//      admissions keeps the committee anchored to the enrolled identity
//      while letting it track the same honest drift the full model
//      adapts to (a frozen committee slowly vetoes every aged candidate,
//      starving adaptation exactly when it is needed).
//   3. Refresh-time re-validation — immediately before retraining, every
//      buffered candidate is re-scored by the *outgoing* model (margin
//      and per-key consensus) and evicted if it no longer clears both.
//      Candidates injected past the admission gate (a compromised ingest
//      path) die here.
//   4. Post-retrain guard with rollback — the candidate model must not
//      accept more of the retained third-party negative pool than the
//      outgoing model (FAR proxy must never rise) and must not lose
//      enrollment anchors (no drift away from the enrolled identity).
//      Violation rolls the refresh back; the outgoing model, threshold
//      and baseline stay live.
//
// A refresh that passes the guards is re-calibrated before it goes live:
// retraining recenters its threshold at the LOO midpoint, which creeps
// stricter as margin-filtered candidates tighten the genuine class, so
// the threshold is shifted to accept *exactly* as many third-party pool
// samples as the outgoing model.  Adaptation refreshes the features; the
// deployed FAR budget never moves.
//
// Wiring: every attempt feeds the drift monitor through core::feed_drift,
// and refreshes rebuild the user's drift-monitor ScoreBaseline from the
// new model's LOO scores.  Staleness (an FRR-rise drift alert after
// kStaleAttemptWindow attempts without an admission) makes the adapter
// reject attempts with RejectReason::kTemplateStale without scoring,
// committed through core::commit_decision like every other decision.
// Both the enrolled committee and its refreshes train on the one per-key
// recipe of core/enrollment.hpp (key_model_negatives).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "core/quality.hpp"
#include "core/types.hpp"
#include "obs/drift.hpp"
#include "util/rng.hpp"

namespace p2auth::core {

struct AdaptOptions {
  // Authentication options for attempts routed through the adapter.
  AuthOptions auth{};
  // Retraining recipe; must match the recipe the user was enrolled with
  // (same preprocess/segmentation/rocket/ridge options) or the refreshed
  // model scores a different feature space than its baseline.
  EnrollmentConfig enrollment{};
  // Candidate-admission margin: an accepted attempt enters the buffer
  // only when its threshold-adjusted score is at or above this quantile
  // of the enrollment-time genuine LOO baseline.
  double margin_quantile = 0.35;
  // Bounded FIFO candidate buffer (oldest evicted first).
  std::size_t candidate_capacity = 16;
  // Minimum buffered candidates before try_refresh() will retrain.
  std::size_t min_candidates = 4;
  // Sliding-window cap on retrain positives (anchors + newest candidates).
  std::size_t max_positives = 16;
  // Channel-health gate applied to candidates at admission.
  QualityOptions quality{};
  // Per-key consensus gate: the fraction of the candidate's segments the
  // single-keystroke committee must accept (strictly more than this
  // fraction of the voting models; 0.75 demands unanimity from a 4-digit
  // PIN's four voters).  Committee members refresh only inside an
  // accepted guarded refresh, on segments the previous committee itself
  // admitted.  Skipped when the user has no key models (no-PIN or
  // full-only enrollments).
  double consensus_fraction = 0.5;
  // Drift-monitor thresholds (staleness signal).
  obs::DriftOptions drift{};
};

// Attempts with zero admissions after which a firing FRR-rise drift
// alert declares the templates stale.
inline constexpr std::size_t kStaleAttemptWindow = 64;

// Why the last try_refresh() did or did not replace the model.
enum class RefreshOutcome {
  kNotReady,     // buffer below min_candidates (after re-validation)
  kRefreshed,    // guard passed; model + baseline replaced
  kRolledBack,   // guard failed; outgoing model retained
};

struct AdaptStats {
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;          // candidates buffered
  std::uint64_t rejected_margin = 0;   // accepted but below margin
  std::uint64_t rejected_quality = 0;  // accepted but failed quality gate
  std::uint64_t rejected_consensus = 0;  // failed the per-key vote
  std::uint64_t revalidation_evicted = 0;  // died at refresh re-validation
  std::uint64_t refreshes = 0;
  std::uint64_t key_models_refreshed = 0;  // committee members replaced
  std::uint64_t rollbacks = 0;
  std::uint64_t stale_rejects = 0;
};

// Owns an EnrolledUser and adapts its full-waveform model in place.
//
// The adapter retains (a) the user's original enrollment entries as
// permanent anchors and (b) the extracted third-party negative pool —
// both are needed to retrain, and (b) doubles as the FAR-proxy probe set
// for the poisoning guard.  Anchors and pool must be the ones the user
// was enrolled from (same preprocess/segmentation options).
class TemplateAdapter {
 public:
  // Ground truth for drift bookkeeping only (never consulted by the
  // admission gates: the adapter must resist poisoning without an
  // oracle).  kUnknown treats PIN-passed model-scored attempts as
  // genuine, matching obs/drift's deployment label model.
  using Truth = DriftLabel;

  TemplateAdapter(EnrolledUser user,
                  std::vector<Observation> enrollment_anchors,
                  std::vector<ExtractedEntry> negative_pool,
                  AdaptOptions options = {});

  // Authenticates `obs` against the (possibly refreshed) user, feeds the
  // drift monitor, and admits high-margin accepted attempts into the
  // candidate buffer.  While the templates are stale, returns a
  // kTemplateStale reject without scoring, committed like a pipeline
  // decision.
  AuthResult attempt(const Observation& obs, Truth truth = Truth::kUnknown);

  // Retrains the full-waveform model on anchors + buffered candidates if
  // the buffer is deep enough, subject to the poisoning guard.  On
  // kRefreshed the candidate buffer is consumed, the score baseline is
  // rebuilt from the new model's LOO scores and the drift monitor is
  // re-seeded (live sketches reset).  On kRolledBack the poisoned buffer
  // is dropped and the outgoing model stays live.
  RefreshOutcome try_refresh();

  // Restores the model, threshold and baseline from before the last
  // successful refresh (manual operator override).  False when there is
  // no previous state to restore.
  bool rollback_last_refresh();

  // TEST/ATTACK HOOK: force a waveform into the candidate buffer,
  // bypassing the admission gates — models an attacker who compromised
  // the ingest path.  The refresh-time re-validation and post-retrain
  // guards must still keep the threshold and FAR unchanged; the scripted
  // poisoning attack in bench_scenarios drives exactly this entry point.
  void force_candidate(const Observation& obs);

  bool stale() const noexcept { return stale_; }
  // Threshold-adjusted admission margin under the current baseline.
  double admission_margin() const;

  const EnrolledUser& user() const noexcept { return user_; }
  const obs::DriftMonitor& drift() const noexcept { return drift_; }
  const AdaptStats& stats() const noexcept { return stats_; }
  std::size_t buffered_candidates() const noexcept {
    return candidates_.size();
  }
  const AdaptOptions& options() const noexcept { return options_; }

 private:
  struct Snapshot {
    WaveformModel model;
    obs::ScoreBaseline baseline;
    std::array<std::optional<WaveformModel>, 10> key_models;
  };

  void admit_if_eligible(const Observation& obs, const AuthResult& result);
  void update_staleness();
  void reseed_drift(obs::ScoreBaseline baseline);
  bool candidate_consensus(const ExtractedEntry& entry) const;
  void refresh_key_models(std::size_t window_begin, util::Rng& rng);
  std::vector<std::vector<Series>> negative_fulls() const;

  EnrolledUser user_;
  // The enrollment anchors' full waveforms and their segments by key.
  std::vector<std::vector<Series>> anchor_fulls_;
  KeySegments anchor_segments_;
  std::vector<ExtractedEntry> negative_pool_;
  AdaptOptions options_;
  obs::DriftMonitor drift_;
  std::deque<ExtractedEntry> candidates_;  // FIFO (segments kept for the
                                           // consensus re-validation)
  std::optional<Snapshot> previous_;            // pre-refresh state
  AdaptStats stats_;
  bool stale_ = false;
  std::uint64_t refresh_count_ = 0;
  // Median decision of the enrolled model over its own anchors — the
  // fixed operating-point reference every refresh is calibrated back to.
  double enrolled_anchor_margin_ = 0.0;
  // Same fixed reference per committee member: the enrolled key model's
  // median decision over the enrolled anchor segments of its key.
  std::array<double, 10> enrolled_key_margin_{};
  // Genuine-side attempts since the last admission (staleness signal).
  std::uint64_t attempts_since_admission_ = 0;
};

}  // namespace p2auth::core
