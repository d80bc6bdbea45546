// Binary (P2MDL001) persistence of models, users and registries.
//
// The library's only model format.  One record codec, with the typed
// util::SerializeError surface, serves every reader and writer:
//
//   * build_user_record / decode_user_record — a record is a
//     self-contained, CRC-trailed byte string, so the same decoder
//     serves buffers read from a stream and spans into an mmap;
//   * save_*/load_* — eager stream/file round trips.
//
// See io/format.hpp for the byte-level layout and io/mmap_registry.hpp
// for the lazily opened registry built on these records.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/format.hpp"

namespace p2auth::io {

// ---- record codec -----------------------------------------------------

// Serializes one user into a self-contained CRC-trailed record.  Throws
// std::logic_error when an engaged model is untrained.
std::vector<std::uint8_t> build_user_record(const core::EnrolledUser& user);

// Decodes one record into an owning EnrolledUser.  Checks the integrity
// trailer first (so flipped bits surface as kBadCrc before any
// structural decoding), then the structure, then each model through the
// from_parts validators.  Throws util::SerializeError.
core::EnrolledUser decode_user_record(std::span<const std::uint8_t> record);

// ---- eager stream / file round trips ----------------------------------

void save_enrolled_user_binary(const core::EnrolledUser& user,
                               std::ostream& os);
void save_enrolled_user_binary_file(const core::EnrolledUser& user,
                                    const std::string& path);
core::EnrolledUser load_enrolled_user_binary(std::istream& is);
core::EnrolledUser load_enrolled_user_binary_file(const std::string& path);

// Writes the records in name order, one resident at a time, then the
// trailing name index, and back-patches the header's index offset; the
// stream is left at the end of the image.  Needs a seekable stream
// (kIoError otherwise).  The file overload opens `path` and calls it.
void save_user_registry_binary(const core::UserRegistry& registry,
                               std::ostream& os);
void save_user_registry_binary_file(const core::UserRegistry& registry,
                                    const std::string& path);
// Reads the rest of a seekable stream (the name index lives at the
// tail; non-seekable streams get kIoError) and decodes every record
// through a MappedRegistry over those bytes.
core::UserRegistry load_user_registry_binary(std::istream& is);

// Reads and validates a P2MDL001 file header, returning the file kind.
// Rewinds the stream to where it started.  Throws util::SerializeError
// (kBadMagic / kVersionSkew) when the bytes are not this format.
FileKind probe_file_kind(std::istream& is);

}  // namespace p2auth::io
