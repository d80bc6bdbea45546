// Corrupted-store fuzz suite shared by the text and binary loaders.
//
// Contract under corruption: a loader either succeeds (a mutation can
// land in a don't-care byte or produce a different-but-valid value — the
// text format especially) or throws util::SerializeError.  It must never
// crash, escape with another exception type, or attempt an allocation
// sized by a corrupted length field.  For the binary format the contract
// is stricter: every bit flip inside the CRC-covered region of a record
// (or the registry name index) must be rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialization.hpp"
#include "io/binary.hpp"
#include "io/bytes.hpp"
#include "io/format.hpp"
#include "io_fixtures.hpp"
#include "util/crc32.hpp"
#include "util/serialize.hpp"

namespace p2auth::io {
namespace {

using core::EnrolledUser;
using core::UserRegistry;
using util::SerializeErrc;
using util::SerializeError;

EnrolledUser fuzz_user() {
  util::Rng rng(77);
  return testing::make_test_user(rng, 9, "0413");
}

std::string binary_user_bytes() {
  std::stringstream ss;
  save_enrolled_user_binary(fuzz_user(), ss);
  return ss.str();
}

std::string binary_registry_bytes() {
  std::stringstream ss;
  save_user_registry_binary(testing::make_test_registry(11), ss);
  return ss.str();
}

std::string text_user_bytes() {
  std::ostringstream os;
  core::save_enrolled_user(fuzz_user(), os);
  return os.str();
}

// Result of one corrupted-load attempt.
enum class Outcome { kLoaded, kTypedError };

Outcome load_binary_user(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    (void)load_enrolled_user_binary(ss);
    return Outcome::kLoaded;
  } catch (const SerializeError&) {
    return Outcome::kTypedError;
  }
  // Any other exception type propagates and fails the test.
}

Outcome load_binary_registry(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    (void)load_user_registry_binary(ss);
    return Outcome::kLoaded;
  } catch (const SerializeError&) {
    return Outcome::kTypedError;
  }
}

Outcome load_text_user(const std::string& bytes) {
  std::istringstream ss(bytes);
  try {
    (void)core::load_enrolled_user(ss);
    return Outcome::kLoaded;
  } catch (const SerializeError&) {
    return Outcome::kTypedError;
  }
}

// Re-stamps the CRC trailer of a single-user file image after a
// deliberate field patch, so the structural validator (not the CRC) is
// what rejects the mutation.
void restamp_user_crc(std::string& file) {
  auto* bytes = reinterpret_cast<std::uint8_t*>(file.data());
  const std::span<const std::uint8_t> record(
      bytes + kFileHeaderBytes, file.size() - kFileHeaderBytes);
  const std::uint32_t crc =
      util::crc32(record.first(record.size() - kRecordTrailerBytes));
  std::memcpy(bytes + file.size() - 12, &crc, sizeof(crc));
}

void patch_u64(std::string& file, std::size_t offset, std::uint64_t v) {
  std::memcpy(file.data() + offset, &v, sizeof(v));
}

// ---- binary: truncation -----------------------------------------------

TEST(IoFuzz, BinaryUserTruncationIsAlwaysTyped) {
  const std::string good = binary_user_bytes();
  ASSERT_EQ(load_binary_user(good), Outcome::kLoaded);
  const std::size_t step = std::max<std::size_t>(1, good.size() / 409);
  for (std::size_t len = 0; len < good.size(); len += step) {
    EXPECT_EQ(load_binary_user(good.substr(0, len)), Outcome::kTypedError)
        << "prefix of " << len << " bytes loaded";
  }
  // The last 16 boundaries (inside the CRC trailer) individually.
  for (std::size_t cut = 1; cut <= 16; ++cut) {
    EXPECT_EQ(load_binary_user(good.substr(0, good.size() - cut)),
              Outcome::kTypedError);
  }
}

TEST(IoFuzz, BinaryRegistryTruncationIsAlwaysTyped) {
  const std::string good = binary_registry_bytes();
  ASSERT_EQ(load_binary_registry(good), Outcome::kLoaded);
  const std::size_t step = std::max<std::size_t>(1, good.size() / 211);
  for (std::size_t len = 0; len < good.size(); len += step) {
    EXPECT_EQ(load_binary_registry(good.substr(0, len)),
              Outcome::kTypedError)
        << "prefix of " << len << " bytes loaded";
  }
}

// ---- binary: bit flips in the CRC-covered region ----------------------

TEST(IoFuzz, BinaryUserBitFlipsAreAllRejected) {
  const std::string good = binary_user_bytes();
  // Everything from the first record byte on is CRC-covered (the file
  // header's validated fields are checked structurally instead).
  for (std::size_t i = kFileHeaderBytes; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1u << (i % 8)));
    EXPECT_EQ(load_binary_user(bad), Outcome::kTypedError)
        << "flip at byte " << i << " loaded";
  }
}

TEST(IoFuzz, BinaryRegistryBitFlipsAreAllRejected) {
  const std::string good = binary_registry_bytes();
  const std::size_t step = 7;  // records + index; sampled for speed
  for (std::size_t i = kFileHeaderBytes; i < good.size(); i += step) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1u << (i % 8)));
    EXPECT_EQ(load_binary_registry(bad), Outcome::kTypedError)
        << "flip at byte " << i << " loaded";
  }
}

TEST(IoFuzz, BinaryHeaderFieldCorruptionIsTyped) {
  const std::string good = binary_user_bytes();
  for (std::size_t i = 0; i < kFileHeaderBytes; ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1u << bit));
      // Header don't-care bytes (index_offset/reserved of a user file)
      // may load; everything else must fail typed.  Either way: no
      // crash, no foreign exception.
      (void)load_binary_user(bad);
    }
  }
  // The validated fields specifically:
  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    std::stringstream ss(bad);
    try {
      (void)load_enrolled_user_binary(ss);
      FAIL() << "bad magic loaded";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code(), SerializeErrc::kBadMagic);
    }
  }
  {
    std::string bad = good;
    bad[8] = 9;  // version
    std::stringstream ss(bad);
    try {
      (void)load_enrolled_user_binary(ss);
      FAIL() << "bad version loaded";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code(), SerializeErrc::kVersionSkew);
    }
  }
}

// ---- binary: hostile length fields (CRC re-stamped) -------------------

// Single-user file offsets (see io/format.hpp): record at 40, its
// record_len field at 48, first section (USRH) payload_len at 64, and
// the USRH pin_len 48 bytes into the section payload (at 120).
constexpr std::size_t kOffRecordLen = 48;
constexpr std::size_t kOffUsrhLen = 64;
constexpr std::size_t kOffPinLen = 120;

TEST(IoFuzz, OversizedRecordLengthRejectedWithoutAllocation) {
  std::string bad = binary_user_bytes();
  patch_u64(bad, kOffRecordLen, std::uint64_t{1} << 60);
  restamp_user_crc(bad);
  std::stringstream ss(bad);
  try {
    (void)load_enrolled_user_binary(ss);
    FAIL() << "oversized record_len loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadShape);
  }
}

TEST(IoFuzz, OversizedSectionLengthRejected) {
  std::string bad = binary_user_bytes();
  patch_u64(bad, kOffUsrhLen, std::uint64_t{1} << 50);
  restamp_user_crc(bad);
  std::stringstream ss(bad);
  try {
    (void)load_enrolled_user_binary(ss);
    FAIL() << "oversized section length loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kTruncated);
  }
}

TEST(IoFuzz, OversizedPinLengthRejected) {
  std::string bad = binary_user_bytes();
  patch_u64(bad, kOffPinLen, std::uint64_t{1} << 40);
  restamp_user_crc(bad);
  std::stringstream ss(bad);
  try {
    (void)load_enrolled_user_binary(ss);
    FAIL() << "oversized pin length loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadShape);
  }
}

// ---- binary: hostile name index ---------------------------------------

struct IndexEntry {
  std::uint64_t hash, offset, len, name_off, name_len;
};

// Hand-assembles a registry image holding `n_records` copies of one
// record plus an arbitrary name index — the knob the corruption tests
// turn.
std::string make_registry_image(std::size_t n_records,
                                const std::vector<IndexEntry>& entries,
                                std::string_view blob) {
  util::Rng rng(5);
  const std::vector<std::uint8_t> record =
      build_user_record(testing::make_test_user(rng, 1, "12"));
  const std::uint64_t index_offset =
      kFileHeaderBytes + n_records * record.size();
  ByteWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(FileKind::kUserRegistry));
  w.u64(entries.size());
  w.u64(index_offset);
  w.u64(0);
  for (std::size_t i = 0; i < n_records; ++i) {
    w.bytes(record.data(), record.size());
  }
  const std::size_t index_start = w.size();
  w.u32(kTagNameIndex);
  w.u32(0);
  const std::size_t len_pos = w.reserve_u64();
  w.u64(entries.size());
  for (const IndexEntry& e : entries) {
    w.u64(e.hash);
    w.u64(e.offset);
    w.u64(e.len);
    w.u64(e.name_off);
    w.u64(e.name_len);
  }
  w.str(blob);
  w.patch_u64(len_pos, w.size() - (len_pos + 8));
  w.pad8();
  const std::uint32_t crc = util::crc32(std::span<const std::uint8_t>(
      w.buffer().data() + index_start, w.size() - index_start));
  w.u32(kTagCrcTrailer);
  w.u32(crc);
  w.u64(0);
  return std::string(reinterpret_cast<const char*>(w.buffer().data()),
                     w.size());
}

std::uint64_t record_len_of() {
  util::Rng rng(5);
  return build_user_record(testing::make_test_user(rng, 1, "12")).size();
}

TEST(IoFuzz, DuplicateRegistryNamesRejected) {
  const std::uint64_t len = record_len_of();
  const std::vector<IndexEntry> dup = {
      {fnv1a64("dup"), kFileHeaderBytes, len, 0, 3},
      {fnv1a64("dup"), kFileHeaderBytes + len, len, 0, 3},
  };
  const std::string image = make_registry_image(2, dup, "dup");
  std::stringstream ss(image);
  try {
    (void)load_user_registry_binary(ss);
    FAIL() << "duplicate names loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kDuplicateName);
  }
}

TEST(IoFuzz, IndexEntryHashMismatchRejected) {
  const std::uint64_t len = record_len_of();
  const std::vector<IndexEntry> bad = {
      {fnv1a64("eve"), kFileHeaderBytes, len, 0, 3},  // blob says "abc"
  };
  const std::string image = make_registry_image(1, bad, "abc");
  std::stringstream ss(image);
  try {
    (void)load_user_registry_binary(ss);
    FAIL() << "hash mismatch loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadValue);
  }
}

TEST(IoFuzz, IndexEntrySpanOutOfBoundsRejected) {
  const std::uint64_t len = record_len_of();
  const std::vector<IndexEntry> bad = {
      {fnv1a64("abc"), kFileHeaderBytes + 8 * len, len, 0, 3},
  };
  const std::string image = make_registry_image(1, bad, "abc");
  std::stringstream ss(image);
  try {
    (void)load_user_registry_binary(ss);
    FAIL() << "out-of-bounds record span loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadShape);
  }
}

// ---- text loader under the same mutations -----------------------------

TEST(IoFuzz, TextTruncationNeverEscapesTyped) {
  const std::string good = text_user_bytes();
  ASSERT_EQ(load_text_user(good), Outcome::kLoaded);
  const std::size_t step = std::max<std::size_t>(1, good.size() / 307);
  for (std::size_t len = 0; len < good.size(); len += step) {
    // Truncated text must fail (every trailing token is load-bearing),
    // and must fail typed — load_text_user rethrows anything else.
    EXPECT_EQ(load_text_user(good.substr(0, len)), Outcome::kTypedError)
        << "prefix of " << len << " bytes loaded";
  }
}

TEST(IoFuzz, TextCharacterMutationsNeverEscapeTyped) {
  const std::string good = text_user_bytes();
  const char replacements[] = {'X', '-', '9', ' ', '\n'};
  const std::size_t step = std::max<std::size_t>(1, good.size() / 251);
  for (std::size_t i = 0; i < good.size(); i += step) {
    for (const char r : replacements) {
      if (good[i] == r) continue;
      std::string bad = good;
      bad[i] = r;
      // A mutation may still parse (e.g. a digit swapped inside a
      // mantissa); the contract is only "typed error or success".
      (void)load_text_user(bad);
    }
  }
}

TEST(IoFuzz, TextNegativeCountRejected) {
  std::string bad = text_user_bytes();
  const std::size_t pos = bad.find("stats.full_positives 9");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, std::strlen("stats.full_positives 9"),
              "stats.full_positives -9");
  std::istringstream ss(bad);
  try {
    (void)core::load_enrolled_user(ss);
    FAIL() << "negative count loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadValue);
  }
}

TEST(IoFuzz, TextOversizedStringLengthRejected) {
  // "pin <len>" claims far more bytes than the stream holds: the loader
  // must refuse before reserving a corrupted-length buffer.
  std::string bad = text_user_bytes();
  const std::size_t pos = bad.find("pin 4 ");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, std::strlen("pin 4 "), "pin 99999999999999 ");
  std::istringstream ss(bad);
  try {
    (void)core::load_enrolled_user(ss);
    FAIL() << "oversized string length loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kLengthOverflow);
  }
}

// ---- serialize-helper bounds (the text loader's first line of defense) -

TEST(IoFuzz, ReadU64RejectsNegativeTokens) {
  std::istringstream ss("count -1");
  try {
    (void)util::read_u64(ss, "count");
    FAIL() << "-1 parsed as u64";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadValue);
  }
}

TEST(IoFuzz, ReadVectorBoundsCountByStreamBytes) {
  std::istringstream ss("weights 1000000000000 1.0 2.0");
  try {
    (void)util::read_vector(ss, "weights");
    FAIL() << "absurd element count accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kLengthOverflow);
  }
}

TEST(IoFuzz, ReadStringValidatesSeparator) {
  // The length token is whitespace-delimited, so the exactly-one-space
  // separator rule is what a '\n' in its place violates.
  std::istringstream ss("name 3\nabcdef");
  try {
    (void)util::read_string(ss, "name");
    FAIL() << "bad separator accepted";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadSeparator);
  }
}

TEST(IoFuzz, ReadDoubleIsLocaleIndependent) {
  {
    std::istringstream ss("x 1.5 x -2.25e3 x nan x -inf x infinity");
    EXPECT_DOUBLE_EQ(util::read_double(ss, "x"), 1.5);
    EXPECT_DOUBLE_EQ(util::read_double(ss, "x"), -2250.0);
    EXPECT_TRUE(std::isnan(util::read_double(ss, "x")));
    EXPECT_TRUE(std::isinf(util::read_double(ss, "x")));
    EXPECT_TRUE(std::isinf(util::read_double(ss, "x")));
  }
  {
    // A comma mantissa (the de_DE strtod trap) must fail typed, not
    // silently parse its integer prefix.
    std::istringstream ss("x 1,5");
    try {
      (void)util::read_double(ss, "x");
      FAIL() << "comma mantissa accepted";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code(), SerializeErrc::kBadValue);
    }
  }
}

}  // namespace
}  // namespace p2auth::io
