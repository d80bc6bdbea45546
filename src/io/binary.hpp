// Binary (P2MDL001) persistence of models, users and registries.
//
// The library's only model format.  Three tiers of access, all sharing
// one record codec and the typed util::SerializeError surface:
//
//   * save_*/load_* — eager stream/file round trips;
//   * build_user_record / parse_user_record / materialize_user — the
//     record-level building blocks (a record is a self-contained,
//     CRC-trailed byte string, so the same parser serves buffers read
//     from a stream and spans into an mmap);
//   * the Mapped* view structs — zero-copy reads of a record: dilations,
//     biases and ridge weights are spans pointing straight into the
//     record bytes (the writer lays them out 8-byte aligned), so a
//     mapped model can be inspected — and its ridge evaluated — without
//     parsing or copying the arrays.
//
// See io/format.hpp for the byte-level layout and io/mmap_registry.hpp
// for the arena-backed registry built on these records.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/format.hpp"

namespace p2auth::io {

// ---- zero-copy record views -------------------------------------------

// One channel's MiniRocket parameters viewed in place.
struct MappedMiniRocket {
  ml::MiniRocketOptions options;
  std::uint64_t input_length = 0;
  std::uint64_t biases_per_combo = 0;
  std::span<const std::int32_t> dilations;  // into the record bytes
  std::span<const double> biases;           // 8-aligned, usable in place
};

// Ridge weights viewed in place (no parse, no copy).  Scoring goes
// through linalg::RidgeClassifier, whose striped dot product pins the
// decision bits.
struct MappedRidge {
  double bias = 0.0;
  double lambda = 0.0;
  std::span<const double> weights;
};

struct MappedWaveformModel {
  double threshold = 0.0;
  // The multi-channel wrapper's own options (each channel additionally
  // carries its per-channel split of the feature budget).
  ml::MiniRocketOptions mc_options;
  std::vector<MappedMiniRocket> channels;
  MappedRidge ridge;
};

// A structurally validated view over one user record.  Spans and
// string_views borrow the record bytes: they are valid only while the
// backing buffer / mapping is alive.
struct MappedUser {
  std::string_view pin;
  bool privacy_boost = false;
  std::uint32_t user_id = 0;
  core::EnrollmentStats stats;
  std::optional<MappedWaveformModel> full_model;
  std::optional<MappedWaveformModel> boost_model;
  std::array<std::optional<MappedWaveformModel>, 10> key_models;
  // The whole record (header..CRC trailer), for deferred verification.
  std::span<const std::uint8_t> record;
};

// ---- record codec -----------------------------------------------------

// Serializes one user into a self-contained CRC-trailed record.  Throws
// std::logic_error when an engaged model is untrained.
std::vector<std::uint8_t> build_user_record(const core::EnrolledUser& user);

// Builds a zero-copy view; validates structure and, when `verify_crc`,
// the integrity trailer first (so flipped bits surface as kBadCrc before
// any structural decoding).  Throws util::SerializeError.
MappedUser parse_user_record(std::span<const std::uint8_t> record,
                             bool verify_crc);

// Checks the CRC trailer alone.  Throws util::SerializeError on
// truncation, a bad trailer tag, or a checksum mismatch.
void verify_record_crc(std::span<const std::uint8_t> record);

// Deep-copies a view into an owning EnrolledUser through the from_parts
// validators.
core::EnrolledUser materialize_user(const MappedUser& view);

// ---- eager stream / file round trips ----------------------------------

void save_enrolled_user_binary(const core::EnrolledUser& user,
                               std::ostream& os);
void save_enrolled_user_binary_file(const core::EnrolledUser& user,
                                    const std::string& path);
core::EnrolledUser load_enrolled_user_binary(std::istream& is);
core::EnrolledUser load_enrolled_user_binary_file(const std::string& path);

// Registry writers emit records in name order plus the trailing name
// index.  The ostream overload assembles the file in memory; the file
// overload streams record-by-record (constant memory) and back-patches
// the header, producing byte-identical output.
void save_user_registry_binary(const core::UserRegistry& registry,
                               std::ostream& os);
void save_user_registry_binary_file(const core::UserRegistry& registry,
                                    const std::string& path);
// Registry loading needs a seekable stream (the name index lives at the
// tail); non-seekable streams get kIoError.
core::UserRegistry load_user_registry_binary(std::istream& is);
core::UserRegistry load_user_registry_binary_file(const std::string& path);

// Reads and validates a P2MDL001 file header, returning the file kind.
// Rewinds the stream to where it started.  Throws util::SerializeError
// (kBadMagic / kVersionSkew) when the bytes are not this format.
FileKind probe_file_kind(std::istream& is);

}  // namespace p2auth::io
