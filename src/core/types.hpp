// Shared types of the P2Auth core pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "keystroke/events.hpp"
#include "ppg/simulator.hpp"

namespace p2auth::core {

using Series = std::vector<double>;

// What the deployed system observes for one authentication attempt: the
// smartphone's keystroke log and the wearable's raw PPG stream.
//
// NOTE: keystroke::EntryRecord carries simulator ground truth
// (true_time_s, hand) used only by tests and data-generation code.  The
// pipeline reads nothing but `entry.pin` digits and
// `events[i].recorded_time_s`.
struct Observation {
  keystroke::EntryRecord entry;
  ppg::MultiChannelTrace trace;
};

// Input case decided by the PIN Input Case Identification module.
enum class DetectedCase {
  kOneHanded,       // 4 keystrokes detected in the PPG
  kTwoHandedThree,  // 3 detected
  kTwoHandedTwo,    // 2 detected
  kRejected,        // <= 1 detected: too little evidence, reject
};

std::string to_string(DetectedCase c);

// Why an attempt was rejected.  Typed so stats maps, obs counters and
// callers branch on an enum instead of free-form strings; `kNone` marks
// an accepted (or not-yet-decided) attempt.
enum class RejectReason {
  kNone,             // accepted / no rejection recorded
  kWrongPin,         // factor 1 failed
  kMalformedEntry,   // keystroke log inconsistent with the typed PIN
  kTooFewKeystrokes, // <= 1 keystroke detected in the PPG
  kNoUsableChannel,  // channel-health gating masked every PPG channel
  kDegradedEvidence,  // some model channel masked; strict policy refuses
                      // to score partial biometric evidence
  kNoModel,          // required model not enrolled
  kModelRejected,    // full/boost waveform model voted no
  kVotesRejected,    // per-key vote integration failed
  kTimeout,          // streaming: attempt aged past timeout_s
  kBufferOverflow,   // streaming: bounded sample buffer overflowed
  kLockedOut,        // streaming: lockout backoff in force
  kIncomplete,       // stream ended before the attempt became decidable
  kTemplateStale,    // adaptive re-enrollment declared the enrolled
                     // templates stale (drift alert + starved candidate
                     // buffer); caller should trigger re-enrollment
};

// Human-readable form ("wrong PIN", "attempt timed out", ...).
std::string to_string(RejectReason r);

// Stable snake_case slug used to key the obs counters
// ("auth.reject.<slug>").
const char* reject_reason_slug(RejectReason r) noexcept;

// Which model family produced the biometric decision (kNone when the
// attempt never reached a model: wrong PIN, gating, timeout, ...).
enum class ModelPath {
  kNone,
  kFullWaveform,  // one-handed full-waveform model
  kBoost,         // privacy-boost fused model
  kPerKeyVotes,   // per-key single-waveform models + integration
};

std::string to_string(ModelPath p);

// Stable snake_case slugs for ModelPath / DetectedCase, mirroring
// reject_reason_slug (obs counter keys, audit-log exports).
const char* model_path_slug(ModelPath p) noexcept;
const char* detected_case_slug(DetectedCase c) noexcept;

// ---------------------------------------------------------------------------
// Audit-log codes.  obs/audit.hpp stores these enums as raw u8 codes (obs
// layers below core and cannot see the enums); the codes are the
// declaration order above and are part of the on-disk audit format:
// append new enumerators, never reorder or remove.  Pinned by
// tests/test_audit.cpp.

inline constexpr std::uint8_t kRejectReasonCodes = 14;
inline constexpr std::uint8_t kDetectedCaseCodes = 4;
inline constexpr std::uint8_t kModelPathCodes = 4;

inline constexpr std::uint8_t audit_code(RejectReason r) noexcept {
  return static_cast<std::uint8_t>(r);
}
inline constexpr std::uint8_t audit_code(DetectedCase c) noexcept {
  return static_cast<std::uint8_t>(c);
}
inline constexpr std::uint8_t audit_code(ModelPath p) noexcept {
  return static_cast<std::uint8_t>(p);
}

// "auth.reject.<slug>" for every RejectReason, indexed by audit_code:
// the obs counter names, built once instead of once per rejected
// decision.
std::array<std::string, kRejectReasonCodes> reject_counter_names();

// Decoders for audit-log codes; out-of-range codes (logs written by a
// newer build) come back as the slug "unknown".
const char* reject_reason_slug_from_code(std::uint8_t code) noexcept;
const char* detected_case_slug_from_code(std::uint8_t code) noexcept;
const char* model_path_slug_from_code(std::uint8_t code) noexcept;

}  // namespace p2auth::core
