#include "util/serialize.hpp"

#include <istream>

namespace p2auth::util {

std::string_view serialize_errc_slug(SerializeErrc code) noexcept {
  switch (code) {
    case SerializeErrc::kTruncated: return "truncated";
    case SerializeErrc::kBadTag: return "bad-tag";
    case SerializeErrc::kBadValue: return "bad-value";
    case SerializeErrc::kBadSeparator: return "bad-separator";
    case SerializeErrc::kLengthOverflow: return "length-overflow";
    case SerializeErrc::kBadMagic: return "bad-magic";
    case SerializeErrc::kVersionSkew: return "version-skew";
    case SerializeErrc::kBadCrc: return "bad-crc";
    case SerializeErrc::kBadShape: return "bad-shape";
    case SerializeErrc::kDuplicateName: return "duplicate-name";
    case SerializeErrc::kBadAlignment: return "bad-alignment";
    case SerializeErrc::kIoError: return "io-error";
  }
  return "unknown";
}

std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  // tellg on an unseekable stream returns -1 without touching the
  // stream state, so the seekg round trip below only runs when seeking
  // is actually supported.
  const std::streampos pos = is.tellg();
  if (pos == std::streampos(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(pos);
  if (end == std::streampos(-1) || end < pos) return std::nullopt;
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace p2auth::util
