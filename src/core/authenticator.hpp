// Authentication Phase (paper section IV-B 3): PIN verification, input
// case dispatch, per-case classification and results integration.
//
// Decision policy (paper):
//   * wrong PIN (when one is registered)        -> reject;
//   * <= 1 keystroke detected in the PPG        -> reject (too little
//     biometric evidence for a safe decision);
//   * 4 detected (one-handed): full-waveform model, or the privacy-boost
//     (fused) model when the user opted in;
//   * 3 detected: per-key single-waveform models; accept when >= 2 pass;
//   * 2 detected: both must pass;
//   * no-PIN mode: the PIN check is skipped and all detected keystrokes
//     are verified with per-key models (>= 3 of 4 must pass for a
//     one-handed entry; two-handed rules as above).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/enrollment.hpp"
#include "core/types.hpp"

namespace p2auth::core {

// Results-integration policy for two-handed cases (the paper's choice is
// kPaper; the others are ablation baselines).
enum class IntegrationPolicy {
  kPaper,  // 3 detected: >= 2 pass; 2 detected: all pass
  kAll,    // every detected keystroke must pass
  kAny,    // any passing keystroke accepts (insecure baseline)
};

struct AuthOptions {
  PreprocessOptions preprocess{};
  SegmentationOptions segmentation{};
  IntegrationPolicy integration = IntegrationPolicy::kPaper;
  // Factor-isolation switch used by the attack experiments: when true the
  // PIN check is skipped so the PPG factor alone is evaluated (see
  // EXPERIMENTS.md on how the paper's random-attack TRR is interpreted).
  bool skip_pin_check = false;
  // Channel-health policy for the biometric factor.  The enrolled models
  // are fit on full-channel evidence; a masked (zeroed) channel is
  // off-manifold input they were never calibrated for, and scoring it
  // can *raise* the false-accept rate (measured by
  // bench_robustness_degradation).  With the default strict policy an
  // attempt with any masked model channel rejects with
  // RejectReason::kDegradedEvidence; true scores it anyway (research /
  // ablation use only — never production).
  bool allow_degraded_evidence = false;
};

// Per-stage wall-time breakdown of one attempt (microseconds).  Zeros
// when observability is disabled or the stage was never reached.
struct AuthStageLatencies {
  double pin_us = 0.0;         // factor-1 PIN verification
  double preprocess_us = 0.0;  // filtering + case identification + gating
  double model_us = 0.0;       // biometric scoring + results integration
  double total_us = 0.0;       // end-to-end authenticate() wall time
};

struct AuthResult {
  bool accepted = false;
  bool pin_checked = false;  // false in no-PIN mode
  bool pin_ok = false;
  DetectedCase detected_case = DetectedCase::kRejected;
  // Per detected keystroke: +1 (model accepted), -1 (model rejected).
  std::vector<int> votes;
  // Decision value of the full/boost model when it was consulted.
  double waveform_score = 0.0;
  // Typed rejection reason (kNone when accepted) and the model family
  // that produced the biometric decision (kNone when none was reached).
  RejectReason reason = RejectReason::kNone;
  ModelPath model_path = ModelPath::kNone;
  // Channel-health view of the attempt: bit c set when PPG channel c
  // stayed healthy; `channels_assessed` == 0 means preprocessing was
  // never reached (wrong PIN, malformed entry).
  std::uint32_t channel_mask = 0;
  std::uint8_t channels_assessed = 0;
  // Stage latency breakdown for the decision flight recorder.
  AuthStageLatencies latencies;

  // Human-readable reason ("wrong PIN", "attempt timed out", ...).
  std::string reason_text() const { return to_string(reason); }
};

// Runs two-factor authentication of `observation` against `user`.
AuthResult authenticate(const EnrolledUser& user,
                        const Observation& observation,
                        const AuthOptions& options = {});

// ---------------------------------------------------------------------------
// Decision phases.
//
// `authenticate` is prepare -> score -> finish -> commit in one call, and
// every front end (streaming, adapt, evaluation, the registry, the
// service) decides through it.  The phases are public so the benchmark's
// stage ledger can replay one attempt phase by phase and time each
// stage; a replay that scores each unit with `WaveformModel::decision`
// equals `authenticate`, bit for bit.

// One deferred biometric scoring job: `waveform` is to be scored by
// `model`; the signed decision value is handed back to
// `finish_authentication` in unit order.
struct ScoringUnit {
  static constexpr std::size_t kScoreSlot = static_cast<std::size_t>(-1);

  const WaveformModel* model = nullptr;
  std::vector<Series> waveform;
  // Index into PreparedAuth::votes this unit's accept/reject vote lands
  // in, or kScoreSlot for the one-handed full/boost waveform score.
  std::size_t vote_slot = kScoreSlot;
};

// Product of `prepare_authentication`: either an already-decided result
// (wrong PIN, gating, timeout-class rejects) or the scoring plan of a
// still-open attempt.
struct PreparedAuth {
  // Staged result: PIN flags, detected case, channel health and the
  // pin/preprocess stage latencies are already filled in.
  AuthResult result;
  // True when the attempt decided before reaching a model: `units` is
  // empty and `finish_authentication` returns `result` unchanged.
  bool decided = false;
  std::vector<ScoringUnit> units;
  // Vote vector template for the per-key paths, in detected-keystroke
  // order: slots addressed by ScoringUnit::vote_slot are overwritten by
  // finish; slots whose key model was missing are pre-filled with -1
  // (fail safe), exactly as the fused path votes.
  std::vector<int> votes;
  // Integration inputs captured at prepare time.
  IntegrationPolicy integration = IntegrationPolicy::kPaper;
  // One-handed no-PIN attempts integrate votes as >= 3-of-4 instead of
  // the two-handed policy table.
  bool no_pin_votes = false;
};

// Phase 1: PIN verification, preprocessing, case identification,
// channel/evidence gating and waveform extraction.  Performs no model
// scoring.
PreparedAuth prepare_authentication(const EnrolledUser& user,
                                    const Observation& observation,
                                    const AuthOptions& options = {});

// Phase 3: applies the signed decision values (`decisions[i]` belongs to
// `prepared.units[i]`; size must match) and runs results integration.
// Throws std::invalid_argument on a size mismatch.  Does not record the
// outcome — callers pair it with `commit_decision`.
AuthResult finish_authentication(PreparedAuth prepared,
                                 std::span<const double> decisions);

// Records one decided attempt exactly once: the `auth.*` obs counters
// plus one record for the installed decision flight recorder (obs/audit).
// `authenticate` runs it last; every front end calls it for the attempts
// it decides without the pipeline: the streaming layer's timeout,
// overflow and lockout rejects, the template adapter's stale-template
// reject and the service's reject of an observation the pipeline threw
// on.
void commit_decision(std::uint32_t user_id, const AuthResult& result);

// ---------------------------------------------------------------------------
// Drift feed.

// Who produced a decided attempt, as far as the drift monitor is told.
// kUnknown is the deployment label model of obs/drift.hpp: a
// model-scored attempt whose PIN factor passed counts as genuine (an
// attacker without the PIN never reaches the model).
enum class DriftLabel { kUnknown, kGenuine, kImposter };

// Feeds one decided attempt to `monitor`: its channel-health view, and
// its full/boost waveform score on the side `label` names.  Attempts no
// waveform model scored feed the channel view only.
void feed_drift(obs::DriftMonitor& monitor, const AuthResult& result,
                DriftLabel label);

}  // namespace p2auth::core
