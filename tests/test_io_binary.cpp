#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/format.hpp"
#include "io/mmap_registry.hpp"
#include "io_fixtures.hpp"
#include "text_v1.hpp"
#include "util/crc32.hpp"
#include "util/serialize.hpp"

namespace p2auth::io {
namespace {

using core::EnrolledUser;
using core::UserRegistry;
using util::SerializeErrc;
using util::SerializeError;

// The equality oracle: every stored field reaches the P2MDL001 bytes.
std::string bytes_of(const EnrolledUser& user) {
  std::ostringstream os;
  save_enrolled_user_binary(user, os);
  return os.str();
}

std::string bytes_of(const UserRegistry& registry) {
  std::ostringstream os;
  save_user_registry_binary(registry, os);
  return os.str();
}

EnrolledUser fixture_user() {
  util::Rng rng(101);
  return testing::make_test_user(rng, 7, "1628");
}

std::string data_path(const std::string& name) {
  return std::string(P2AUTH_TEST_DATA_DIR) + "/" + name;
}

// Scoped temp file that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(std::string name) : path(std::move(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// The CRC-32 stored in every P2MDL001 trailer and audit-log frame.  The
// fuzz suites recompute it with the same function, so only fixed
// vectors catch a change to its value: the IEEE check value of
// "123456789", the empty input, and two more standard strings.
TEST(Crc32, IeeeKnownVectors) {
  const auto crc_of = [](std::string_view s) {
    return util::crc32(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of(""), 0u);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

// crc32 consumes eight bytes per step and the rest one at a time; every
// length and alignment must give what the plain byte-at-a-time table
// loop gives.
TEST(Crc32, SliceBy8MatchesBytewiseOracle) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
    table[i] = c;
  }
  const auto bytewise = [&](std::span<const std::uint8_t> bytes) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : bytes) {
      c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
  };
  util::Rng rng(0xC3C32);
  std::vector<std::uint8_t> buffer(8 + 300);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.next_u32());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset, len);
      ASSERT_EQ(util::crc32(bytes), bytewise(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(IoBinary, UserRoundTripIsLossless) {
  const EnrolledUser user = fixture_user();
  std::stringstream ss;
  save_enrolled_user_binary(user, ss);
  const EnrolledUser restored = load_enrolled_user_binary(ss);
  EXPECT_EQ(bytes_of(restored), bytes_of(user));
}

TEST(IoBinary, UserFileRoundTripIsLossless) {
  const EnrolledUser user = fixture_user();
  TempFile tmp("io_user_roundtrip.p2mdl");
  save_enrolled_user_binary_file(user, tmp.path);
  const EnrolledUser restored = load_enrolled_user_binary_file(tmp.path);
  EXPECT_EQ(bytes_of(restored), bytes_of(user));
}

TEST(IoBinary, RegistryRoundTripIsLossless) {
  const UserRegistry registry = testing::make_test_registry();
  std::stringstream ss;
  save_user_registry_binary(registry, ss);
  const UserRegistry restored = load_user_registry_binary(ss);
  EXPECT_EQ(bytes_of(restored), bytes_of(registry));
}

TEST(IoBinary, FileWriterMatchesStreamWriterByteForByte) {
  const UserRegistry registry = testing::make_test_registry();
  std::stringstream ss;
  save_user_registry_binary(registry, ss);
  TempFile tmp("io_registry_writers.p2mdl");
  save_user_registry_binary_file(registry, tmp.path);
  std::ifstream in(tmp.path, std::ios::binary);
  std::stringstream file_bytes;
  file_bytes << in.rdbuf();
  EXPECT_EQ(file_bytes.str(), ss.str());
}

// The writer back-patches the index offset relative to where the image
// starts, and leaves the stream at its end.
TEST(IoBinary, RegistryWriterPatchesWhereTheImageStarts) {
  const UserRegistry registry = testing::make_test_registry();
  std::stringstream ss;
  ss << "prefix";
  save_user_registry_binary(registry, ss);
  ss << "suffix";
  const std::string written = ss.str();
  const std::string image = bytes_of(registry);
  ASSERT_EQ(written.size(), 6 + image.size() + 6);
  EXPECT_EQ(written.substr(6, image.size()), image);
  std::stringstream in(image);
  EXPECT_EQ(bytes_of(load_user_registry_binary(in)), image);
}

TEST(IoBinary, MappedRegistryLookupAndMaterialize) {
  const UserRegistry registry = testing::make_test_registry();
  TempFile tmp("io_mapped_registry.p2mdl");
  save_user_registry_binary_file(registry, tmp.path);

  const MappedRegistry mapped = MappedRegistry::open(tmp.path);
  EXPECT_EQ(mapped.size(), registry.size());
  EXPECT_TRUE(mapped.contains("alice"));
  EXPECT_TRUE(mapped.contains("carol"));
  EXPECT_FALSE(mapped.contains("mallory"));
  EXPECT_FALSE(mapped.find("mallory").has_value());

  const auto names = mapped.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alice");  // file order is the registry's sorted order

  UserRegistry rebuilt;
  for (const std::string_view name : names) {
    std::optional<EnrolledUser> user = mapped.find(name);
    ASSERT_TRUE(user.has_value()) << name;
    rebuilt.add(std::string(name), std::move(*user));
  }
  EXPECT_EQ(bytes_of(rebuilt), bytes_of(registry));
}

// A flipped byte fails its own checksum: inside a record on that
// record's lookup (the open validates only the index), inside the name
// index at open.
TEST(IoBinary, CorruptRecordAndIndexFailTheirChecksums) {
  std::ostringstream os;
  save_user_registry_binary(testing::make_test_registry(), os);
  const std::string good = os.str();
  const auto expect_bad_crc = [](const std::string& image,
                                 const std::string& what, auto&& load) {
    TempFile tmp("io_corrupt_registry.p2mdl");
    std::ofstream(tmp.path, std::ios::binary) << image;
    try {
      load(MappedRegistry::open(tmp.path));
      FAIL() << what << " corruption went unnoticed";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code(), SerializeErrc::kBadCrc) << e.what();
      EXPECT_NE(std::string(e.what()).find(what + " checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  };
  std::string bad_record = good;
  bad_record[kFileHeaderBytes + 160] ^= 0x01;  // alice's first model
  expect_bad_crc(bad_record, "record", [](const MappedRegistry& store) {
    EXPECT_TRUE(store.find("bob").has_value());
    (void)store.find("alice");
  });
  std::string bad_index = good;
  bad_index[good.size() - 20] ^= 0x01;  // the index's name blob
  expect_bad_crc(bad_index, "index", [](const MappedRegistry&) {});
}

TEST(IoBinary, ProbeFileKindDistinguishesStores) {
  std::stringstream user_ss;
  save_enrolled_user_binary(fixture_user(), user_ss);
  EXPECT_EQ(probe_file_kind(user_ss), FileKind::kEnrolledUser);
  // probe rewinds: the full load must still succeed afterwards.
  EXPECT_NO_THROW(load_enrolled_user_binary(user_ss));

  std::stringstream reg_ss;
  save_user_registry_binary(testing::make_test_registry(), reg_ss);
  EXPECT_EQ(probe_file_kind(reg_ss), FileKind::kUserRegistry);

  std::stringstream garbage("p2auth-enrolled-user.v1 0\npin 4 1628\n");
  try {
    probe_file_kind(garbage);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadMagic);
  }
}

TEST(IoBinary, EmptyRegistryRoundTrips) {
  const UserRegistry empty;
  std::stringstream ss;
  save_user_registry_binary(empty, ss);
  const UserRegistry restored = load_user_registry_binary(ss);
  EXPECT_EQ(restored.size(), 0u);
}

// ---- golden images: the P2MDL001 layout, pinned byte for byte --------
//
// tests/data/*_v1.p2mdl were written by model_convert from the v1 text
// fixtures beside them.  Each v1 fixture must still migrate to exactly
// its image, and each image must load and save back to itself.

std::string file_bytes(const std::string& name) {
  std::ifstream in(data_path(name), std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(IoBinary, GoldenUserTextFixtureLoadsAndRoundTrips) {
  std::ifstream text(data_path("enrolled_user_v1.txt"), std::ios::binary);
  ASSERT_TRUE(text) << "missing tests/data/enrolled_user_v1.txt";
  const std::string golden = file_bytes("enrolled_user_v1.p2mdl");
  ASSERT_EQ(golden.size(), 8720u) << "tests/data/enrolled_user_v1.p2mdl";

  EXPECT_EQ(bytes_of(text_v1::read_enrolled_user(text)), golden);
  std::stringstream image(golden);
  EXPECT_EQ(bytes_of(load_enrolled_user_binary(image)), golden);
}

TEST(IoBinary, GoldenRegistryTextFixtureLoadsAndRoundTrips) {
  std::ifstream text(data_path("registry_v1.txt"), std::ios::binary);
  ASSERT_TRUE(text) << "missing tests/data/registry_v1.txt";
  const std::string golden = file_bytes("registry_v1.p2mdl");
  ASSERT_EQ(golden.size(), 26256u) << "tests/data/registry_v1.p2mdl";

  const UserRegistry registry = text_v1::read_user_registry(text);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(bytes_of(registry), golden);
  std::stringstream image(golden);
  EXPECT_EQ(bytes_of(load_user_registry_binary(image)), golden);
}

}  // namespace
}  // namespace p2auth::io
