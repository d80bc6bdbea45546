// Read-only parser of the legacy v1 text model store.
//
// Before P2MDL001, enrolled users and registries were stored as
// whitespace-separated tokens: each field is a tag word followed by its
// value, doubles at round-trip precision, strings and vectors behind a
// length prefix ("p2auth-enrolled-user.v1", "p2auth-registry.v1").  The
// library neither reads nor writes that format any more; this parser is
// kept only so model_convert can migrate old stores.  Every model it
// builds goes through the same from_parts validators as the P2MDL001
// reader, and every failure is a typed util::SerializeError naming the
// offending tag.
//
// Hardening invariants (the input is untrusted bytes — a corrupted or
// hostile store must fail with a typed error, never crash, hang or OOM):
//   * length prefixes are validated against the bytes actually remaining
//     in the stream before any allocation, so a short corrupted file
//     cannot demand exabytes (a pipe, which cannot report what remains,
//     is held to a fixed element cap instead);
//   * unsigned fields reject negative tokens ("-1" must not wrap to
//     2^64-1 and drive a ~2e19-iteration load loop);
//   * numeric parsing uses std::from_chars and is therefore independent
//     of the host's LC_NUMERIC locale;
//   * a string's length prefix and its bytes are separated by exactly
//     one space.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/enrollment.hpp"
#include "core/registry.hpp"

namespace p2auth::text_v1 {

// Parses a "p2auth-enrolled-user.v1" store.
core::EnrolledUser read_enrolled_user(std::istream& is);

// Parses a "p2auth-registry.v1" store; empty and duplicate user names
// are rejected.
core::UserRegistry read_user_registry(std::istream& is);

// The field readers the two above are built from.  Each expects `tag`
// as the next token and throws util::SerializeError on a tag mismatch
// or a malformed value.
std::uint64_t read_u64(std::istream& is, std::string_view tag);
double read_double(std::istream& is, std::string_view tag);
std::string read_string(std::istream& is, std::string_view tag);
std::vector<double> read_vector(std::istream& is, std::string_view tag);

}  // namespace p2auth::text_v1
