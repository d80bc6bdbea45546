#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
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

TEST(IoBinary, ZeroCopyViewMatchesSource) {
  const EnrolledUser user = fixture_user();
  const std::vector<std::uint8_t> record = build_user_record(user);
  const MappedUser view = parse_user_record(record, /*verify_crc=*/true);

  EXPECT_EQ(view.pin, user.pin.digits());
  EXPECT_EQ(view.user_id, user.user_id);
  EXPECT_TRUE(view.privacy_boost);
  EXPECT_EQ(view.stats.full_positives, user.stats.full_positives);
  EXPECT_EQ(view.stats.key_models_trained, user.stats.key_models_trained);
  ASSERT_TRUE(view.full_model.has_value());
  ASSERT_TRUE(view.boost_model.has_value());
  ASSERT_TRUE(view.key_models[1].has_value());  // pin starts with '1'
  EXPECT_FALSE(view.key_models[0].has_value());

  const core::WaveformModel& model = *user.full_model;
  const MappedWaveformModel& mapped = *view.full_model;
  EXPECT_EQ(mapped.threshold, model.threshold());
  ASSERT_EQ(mapped.channels.size(), model.rocket().num_channels());
  const ml::MiniRocket& ch = model.rocket().channel(0);
  ASSERT_EQ(mapped.channels[0].dilations.size(), ch.dilations().size());
  for (std::size_t i = 0; i < ch.dilations().size(); ++i) {
    EXPECT_EQ(mapped.channels[0].dilations[i], ch.dilations()[i]);
  }
  ASSERT_EQ(mapped.channels[0].biases.size(), ch.biases().size());
  for (std::size_t i = 0; i < ch.biases().size(); ++i) {
    EXPECT_EQ(mapped.channels[0].biases[i], ch.biases()[i]);
  }
  // The spans must point into the record, not at copies.
  const auto* lo = record.data();
  const auto* hi = record.data() + record.size();
  const auto* bias_ptr =
      reinterpret_cast<const std::uint8_t*>(mapped.channels[0].biases.data());
  EXPECT_GE(bias_ptr, lo);
  EXPECT_LT(bias_ptr, hi);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bias_ptr) % 8, 0u);

  // The mapped ridge holds the owning classifier's exact bits.
  EXPECT_EQ(mapped.ridge.bias, model.ridge().bias());
  EXPECT_EQ(mapped.ridge.lambda, model.ridge().chosen_lambda());
  const linalg::Vector& weights = model.ridge().weights();
  ASSERT_EQ(mapped.ridge.weights.size(), weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(mapped.ridge.weights[i], weights[i]) << "weight " << i;
  }
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
  EXPECT_THROW(mapped.at("mallory"), std::invalid_argument);
  EXPECT_NO_THROW(mapped.verify_all());

  const auto names = mapped.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alice");  // file order is the registry's sorted order

  UserRegistry rebuilt;
  for (const std::string_view name : names) {
    rebuilt.add(std::string(name), mapped.materialize(name));
  }
  EXPECT_EQ(bytes_of(rebuilt), bytes_of(registry));
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
