// Decision checksums: one 64-bit digest over every decision-bearing
// field of an AuthResult.
//
// A concurrent service decision must be *bit-identical* to a serial
// per-request replay; the load harness and the integration tests prove
// it by checksumming each response and comparing against a hidden
// ground-truth digest computed from serial `core::authenticate` on the
// same (user, observation).  Wall-clock fields (stage latencies) are
// deliberately excluded — they are measurements, not decision state.
#pragma once

#include <bit>
#include <cstdint>

#include "core/authenticator.hpp"

namespace p2auth::service {

inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ull;

inline std::uint64_t checksum_mix(std::uint64_t h, std::uint64_t v) noexcept {
  // FNV-1a over the value's eight bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Digest of the decision state of one authentication result.  Two
// results with equal digests agree on the accept bit, the typed reason,
// the detected case, the model path, the per-key votes, the channel
// health view, the PIN flags and the exact waveform-score bit pattern.
inline std::uint64_t decision_checksum(const core::AuthResult& r) noexcept {
  std::uint64_t h = kChecksumSeed;
  h = checksum_mix(h, r.accepted ? 1 : 0);
  h = checksum_mix(h, r.pin_checked ? 1 : 0);
  h = checksum_mix(h, r.pin_ok ? 1 : 0);
  h = checksum_mix(h, core::audit_code(r.detected_case));
  h = checksum_mix(h, core::audit_code(r.reason));
  h = checksum_mix(h, core::audit_code(r.model_path));
  h = checksum_mix(h, r.channel_mask);
  h = checksum_mix(h, r.channels_assessed);
  h = checksum_mix(h, static_cast<std::uint64_t>(r.votes.size()));
  for (const int v : r.votes) {
    h = checksum_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  h = checksum_mix(h, std::bit_cast<std::uint64_t>(r.waveform_score));
  return h;
}

}  // namespace p2auth::service
