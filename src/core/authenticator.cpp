#include "core/authenticator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "keystroke/pinpad.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2auth::core {

namespace {

std::size_t passing(const std::vector<int>& votes) {
  return static_cast<std::size_t>(
      std::count(votes.begin(), votes.end(), 1));
}

// Decision-path and outcome counters for one completed attempt.
void record_outcome(const AuthResult& result) {
  obs::add_counter("auth.attempts");
  switch (result.detected_case) {
    case DetectedCase::kOneHanded:
      obs::add_counter("auth.case.one_handed");
      break;
    case DetectedCase::kTwoHandedThree:
      obs::add_counter("auth.case.two_handed_3");
      break;
    case DetectedCase::kTwoHandedTwo:
      obs::add_counter("auth.case.two_handed_2");
      break;
    case DetectedCase::kRejected:
      obs::add_counter("auth.case.rejected");
      break;
  }
  if (result.accepted) {
    obs::add_counter("auth.accept");
    return;
  }
  static const auto kRejectCounters = reject_counter_names("auth.reject.");
  obs::add_counter("auth.reject");
  obs::add_counter(kRejectCounters[audit_code(result.reason)]);
}

// Builds the per-key vote plan: one ScoringUnit per detected keystroke
// with an enrolled key model, a pre-filled -1 vote (fail safe) for the
// rest, in detected-keystroke order.
void plan_votes(const EnrolledUser& user, const PreprocessedEntry& pre,
                const Observation& observation, const AuthOptions& options,
                PreparedAuth& prepared) {
  for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
    if (!pre.keystroke_present[i]) continue;
    const char digit = observation.entry.pin.at(i);
    if (!user.has_key_model(digit)) {
      prepared.votes.push_back(-1);
      continue;
    }
    const std::size_t k = keystroke::key_index(digit);
    ScoringUnit unit;
    unit.model = &*user.key_models[k];
    unit.waveform =
        extract_segment(pre.filtered, pre.calibrated_indices[i], pre.rate_hz,
                        options.segmentation);
    unit.vote_slot = prepared.votes.size();
    prepared.votes.push_back(0);  // decided by finish_authentication
    prepared.units.push_back(std::move(unit));
  }
}

PreparedAuth prepare_impl(const EnrolledUser& user,
                          const Observation& observation,
                          const AuthOptions& options, bool timed) {
  PreparedAuth prepared;
  prepared.integration = options.integration;
  AuthResult& result = prepared.result;
  prepared.decided = true;  // cleared when a scoring plan is produced

  // --- Structural sanity: the phone's keystroke log must agree with the
  // typed PIN.  A duplicated or dropped log event would otherwise index
  // per-key models out of range; reject loudly instead.
  if (observation.entry.events.size() != observation.entry.pin.length()) {
    result.reason = RejectReason::kMalformedEntry;
    return prepared;
  }

  // --- Factor 1: PIN verification. ---
  {
    const obs::Span pin_span("auth.pin_check", "core");
    const std::int64_t pin_start = timed ? obs::now_us() : 0;
    bool wrong_pin = false;
    if (!user.pin.empty() && !options.skip_pin_check) {
      result.pin_checked = true;
      result.pin_ok = (observation.entry.pin == user.pin);
      wrong_pin = !result.pin_ok;
    } else {
      result.pin_ok = true;  // no-PIN mode: factor 1 not used
    }
    if (timed) {
      result.latencies.pin_us =
          static_cast<double>(obs::now_us() - pin_start);
    }
    if (wrong_pin) {
      result.reason = RejectReason::kWrongPin;
      return prepared;
    }
  }

  // --- Preprocessing & input case identification. ---
  const std::int64_t pre_start = timed ? obs::now_us() : 0;
  const PreprocessedEntry pre =
      preprocess_entry(observation, options.preprocess);
  result.detected_case = pre.detected_case;
  // Channel-health view for the flight recorder: bit c set = channel c
  // survived gating.
  if (!pre.health.channels.empty()) {
    result.channels_assessed = static_cast<std::uint8_t>(
        std::min<std::size_t>(pre.health.channels.size(), 32));
    for (std::size_t c = 0; c < result.channels_assessed; ++c) {
      if (pre.health.channels[c].usable) {
        result.channel_mask |= (1u << c);
      }
    }
  }
  if (timed) {
    result.latencies.preprocess_us =
        static_cast<double>(obs::now_us() - pre_start);
  }
  if (pre.detected_case == DetectedCase::kRejected) {
    result.reason = pre.no_usable_channel()
                        ? RejectReason::kNoUsableChannel
                        : RejectReason::kTooFewKeystrokes;
    return prepared;
  }

  // Channel-health policy gate.  Preprocessing proceeded on the
  // surviving channels (calibration, case identification and telemetry
  // all completed above), but the enrolled models were fit on
  // full-channel evidence: a zeroed masked channel is off-manifold input
  // that measurably raises the false-accept rate when scored (the
  // robustness-degradation bench demonstrates this).  Under the default
  // strict policy the biometric factor refuses to vouch on partial
  // evidence — degradation costs legitimate acceptance, never buys an
  // attacker's.
  if (!options.allow_degraded_evidence && !pre.health.channels.empty() &&
      pre.health.usable_count() < pre.health.channels.size()) {
    obs::add_counter("auth.degraded_evidence");
    result.reason = RejectReason::kDegradedEvidence;
    return prepared;
  }

  // --- Factor 2: keystroke-induced PPG verification — plan building.
  // Covers evidence validation and waveform extraction; the model
  // scoring itself is left to the caller (authenticate scores each unit
  // in turn).
  const obs::Span integration("auth.integration", "core");

  // Scoring-window evidence checks (strict policy only).  Channel-level
  // gating above bounds global corruption; these catch faults localized
  // inside the exact raw samples a model is about to score — a dropout
  // hold or rail clip there can drift a borderline decision score across
  // the accept boundary even though the channel as a whole stayed under
  // every health budget.
  const bool strict = !options.allow_degraded_evidence;
  const double rate = pre.rate_hz;
  auto segment_evidence_ok = [&](std::size_t idx) {
    const auto before = static_cast<std::size_t>(
        options.segmentation.segment_before_s * rate);
    const auto after = static_cast<std::size_t>(
        options.segmentation.segment_after_s * rate);
    return window_evidence_ok(observation.trace, pre.health,
                              idx > before ? idx - before : 0, idx + after,
                              options.preprocess.quality);
  };
  auto used_segments_ok = [&] {
    for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
      if (pre.keystroke_present[i] &&
          !segment_evidence_ok(pre.calibrated_indices[i])) {
        return false;
      }
    }
    return true;
  };

  if (pre.detected_case == DetectedCase::kOneHanded) {
    if (user.pin.empty()) {
      // No-PIN mode: verify each keystroke; >= 3 of 4 must pass.
      if (strict && !used_segments_ok()) {
        result.reason = RejectReason::kDegradedEvidence;
        return prepared;
      }
      prepared.no_pin_votes = true;
      result.model_path = ModelPath::kPerKeyVotes;
      plan_votes(user, pre, observation, options, prepared);
      prepared.decided = false;
      return prepared;
    }
    if (user.privacy_boost && user.boost_model.has_value()) {
      // Fused single-keystroke waveform (privacy boost).
      if (strict && !used_segments_ok()) {
        result.reason = RejectReason::kDegradedEvidence;
        return prepared;
      }
      std::vector<std::vector<Series>> segments;
      for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
        if (!pre.keystroke_present[i]) continue;
        segments.push_back(extract_segment(pre.filtered,
                                           pre.calibrated_indices[i],
                                           pre.rate_hz, options.segmentation));
      }
      ScoringUnit unit;
      unit.model = &*user.boost_model;
      unit.waveform = fuse_segments(segments);
      result.model_path = ModelPath::kBoost;
      prepared.units.push_back(std::move(unit));
      prepared.decided = false;
      return prepared;
    }
    if (!user.full_model.has_value()) {
      result.reason = RejectReason::kNoModel;
      return prepared;
    }
    std::size_t first = pre.calibrated_indices.front();
    for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
      if (pre.keystroke_present[i]) {
        first = pre.calibrated_indices[i];
        break;
      }
    }
    const auto lead = static_cast<std::size_t>(
        options.segmentation.full_lead_s * rate);
    const auto span = static_cast<std::size_t>(
        options.segmentation.full_span_s * rate);
    const std::size_t window_begin = first > lead ? first - lead : 0;
    if (strict && !window_evidence_ok(observation.trace, pre.health,
                                      window_begin, window_begin + span,
                                      options.preprocess.quality)) {
      result.reason = RejectReason::kDegradedEvidence;
      return prepared;
    }
    ScoringUnit unit;
    unit.model = &*user.full_model;
    unit.waveform = extract_full_waveform(pre.filtered, first, pre.rate_hz,
                                          options.segmentation);
    result.model_path = ModelPath::kFullWaveform;
    prepared.units.push_back(std::move(unit));
    prepared.decided = false;
    return prepared;
  }

  // Two-handed cases: single-waveform models + results integration.
  if (strict && !used_segments_ok()) {
    result.reason = RejectReason::kDegradedEvidence;
    return prepared;
  }
  result.model_path = ModelPath::kPerKeyVotes;
  plan_votes(user, pre, observation, options, prepared);
  prepared.decided = false;
  return prepared;
}

AuthResult authenticate_impl(const EnrolledUser& user,
                             const Observation& observation,
                             const AuthOptions& options, bool timed) {
  PreparedAuth prepared = prepare_impl(user, observation, options, timed);
  if (prepared.decided) {
    return finish_authentication(std::move(prepared), {});
  }

  // Serial scoring: one MiniRocket scratch and one feature buffer serve
  // every model scored in this attempt (up to four per-key models or one
  // waveform model); warmed on the first attempt per thread, later
  // attempts allocate nothing in the scoring hot path.
  ml::TransformScratch& scratch = ml::thread_transform_scratch();
  thread_local linalg::Vector features;
  std::vector<double> decisions(prepared.units.size(), 0.0);
  for (std::size_t i = 0; i < prepared.units.size(); ++i) {
    decisions[i] = prepared.units[i].model->decision(
        prepared.units[i].waveform, scratch, features);
  }
  return finish_authentication(std::move(prepared), decisions);
}

}  // namespace

PreparedAuth prepare_authentication(const EnrolledUser& user,
                                    const Observation& observation,
                                    const AuthOptions& options) {
  const bool timed = obs::enabled() || obs::audit_recorder() != nullptr;
  return prepare_impl(user, observation, options, timed);
}

AuthResult finish_authentication(PreparedAuth prepared,
                                 std::span<const double> decisions) {
  AuthResult result = std::move(prepared.result);
  if (prepared.decided) {
    return result;
  }
  if (decisions.size() != prepared.units.size()) {
    throw std::invalid_argument(
        "finish_authentication: decision count does not match scoring plan");
  }

  // Scatter decision values: waveform paths carry a signed score, vote
  // paths an accept/reject vote per scored keystroke.
  for (std::size_t i = 0; i < prepared.units.size(); ++i) {
    const ScoringUnit& unit = prepared.units[i];
    if (unit.vote_slot == ScoringUnit::kScoreSlot) {
      result.waveform_score = decisions[i];
    } else {
      prepared.votes[unit.vote_slot] = decisions[i] >= 0.0 ? 1 : -1;
    }
  }

  if (result.model_path == ModelPath::kFullWaveform ||
      result.model_path == ModelPath::kBoost) {
    result.accepted = result.waveform_score >= 0.0;
    result.reason =
        result.accepted ? RejectReason::kNone : RejectReason::kModelRejected;
    return result;
  }

  // Per-key votes + results integration.
  result.votes = std::move(prepared.votes);
  for (const int v : result.votes) {
    obs::add_counter(v == 1 ? "auth.votes.pass" : "auth.votes.fail");
  }
  const std::size_t pass = passing(result.votes);
  if (prepared.no_pin_votes) {
    result.accepted = pass >= 3;
  } else {
    switch (prepared.integration) {
      case IntegrationPolicy::kPaper:
        if (result.detected_case == DetectedCase::kTwoHandedThree) {
          result.accepted = pass >= 2;  // 2-of-3
        } else {
          result.accepted =
              (pass == result.votes.size()) && !result.votes.empty();
        }
        break;
      case IntegrationPolicy::kAll:
        result.accepted =
            (pass == result.votes.size()) && !result.votes.empty();
        break;
      case IntegrationPolicy::kAny:
        result.accepted = pass >= 1;
        break;
    }
  }
  result.reason =
      result.accepted ? RejectReason::kNone : RejectReason::kVotesRejected;
  return result;
}

void commit_decision(std::uint32_t user_id, const AuthResult& result) {
  record_outcome(result);
  audit_decision(user_id, result);
}

AuthResult authenticate(const EnrolledUser& user,
                        const Observation& observation,
                        const AuthOptions& options) {
  const obs::Span span("authenticate", "core");
  const obs::ScopedLatency latency("auth.latency_us");
  // Stage timing is paid only when someone will consume it: the obs
  // runtime switch or an installed flight recorder.
  const bool timed = obs::enabled() || obs::audit_recorder() != nullptr;
  const std::int64_t start = timed ? obs::now_us() : 0;
  AuthResult result = authenticate_impl(user, observation, options, timed);
  if (timed) {
    result.latencies.total_us = static_cast<double>(obs::now_us() - start);
    // The model stage is everything past preprocessing (scoring +
    // results integration); attempts that never reach it get 0.
    const double staged =
        result.latencies.pin_us + result.latencies.preprocess_us;
    result.latencies.model_us =
        std::max(0.0, result.latencies.total_us - staged);
  }
  commit_decision(user.user_id, result);
  return result;
}

void audit_decision(std::uint32_t user_id, const AuthResult& result) {
  obs::AuditRecorder* recorder = obs::audit_recorder();
  if (recorder == nullptr) return;
  obs::DecisionRecord record;
  record.timestamp_us = obs::now_us();
  record.user_id = user_id;
  record.accepted = result.accepted ? 1 : 0;
  record.pin_checked = result.pin_checked ? 1 : 0;
  record.pin_ok = result.pin_ok ? 1 : 0;
  record.reason = audit_code(result.reason);
  record.model_path = audit_code(result.model_path);
  record.detected_case = audit_code(result.detected_case);
  const std::size_t votes =
      std::min(result.votes.size(), obs::kAuditMaxVotes);
  record.num_votes = static_cast<std::uint8_t>(votes);
  for (std::size_t i = 0; i < votes && i < obs::kAuditMaxVotes; ++i) {
    record.votes[i] = static_cast<std::int8_t>(result.votes[i]);
  }
  record.channels = result.channels_assessed;
  record.channel_mask = result.channel_mask;
  // Models are threshold-adjusted at training time, so every recorded
  // score is compared against an accept boundary at 0.
  record.score = static_cast<float>(result.waveform_score);
  record.threshold = 0.0f;
  record.pin_us = static_cast<float>(result.latencies.pin_us);
  record.preprocess_us = static_cast<float>(result.latencies.preprocess_us);
  record.model_us = static_cast<float>(result.latencies.model_us);
  record.total_us = static_cast<float>(result.latencies.total_us);
  recorder->record(record);
}

}  // namespace p2auth::core
