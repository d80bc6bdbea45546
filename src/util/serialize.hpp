// The typed error of the model store.
//
// Enrolled models must persist across reboots of the wearable/phone; the
// P2MDL001 reader in src/io/ parses untrusted bytes, so a corrupted or
// hostile store must fail with a typed SerializeError, never crash, hang
// or OOM.  The read-only v1 text parser that model_convert uses to
// migrate old stores (tools/text_v1) throws the same error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace p2auth::util {

// What went wrong while reading or writing a model store.  One enum
// covers the P2MDL001 reader and the v1 text parser so callers can
// switch on the cause without string-matching messages.
enum class SerializeErrc {
  kTruncated,       // stream ended inside a field / record
  kBadTag,          // tag word or section/record tag mismatch
  kBadValue,        // token failed numeric/shape validation
  kBadSeparator,    // length-prefixed string missing its separator byte
  kLengthOverflow,  // length prefix exceeds the remaining stream bytes
  kBadMagic,        // binary file does not start with the format magic
  kVersionSkew,     // binary format version not understood by this build
  kBadCrc,          // integrity trailer mismatch (bytes were modified)
  kBadShape,        // structurally valid but internally inconsistent
  kDuplicateName,   // registry contains the same user name twice
  kBadAlignment,    // binary section violates the 8-byte layout contract
  kIoError,         // underlying file open/read/write/map failure
};

// Human-readable slug for an error code ("truncated", "bad-crc", ...).
std::string_view serialize_errc_slug(SerializeErrc code) noexcept;

// Typed error thrown by every model store path.  Derives from
// std::runtime_error so pre-existing catch sites keep working.
class SerializeError : public std::runtime_error {
 public:
  SerializeError(SerializeErrc code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  SerializeErrc code() const noexcept { return code_; }

 private:
  SerializeErrc code_;
};

// Bytes left between the stream's current position and its end, when the
// stream is seekable (files, stringstreams); nullopt otherwise.  Readers
// use this to bound length-prefixed allocations before making them.
std::optional<std::uint64_t> remaining_bytes(std::istream& is);

}  // namespace p2auth::util
