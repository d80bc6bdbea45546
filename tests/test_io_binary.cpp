#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/serialization.hpp"
#include "io/format.hpp"
#include "io/mmap_registry.hpp"
#include "io_fixtures.hpp"
#include "util/crc32.hpp"
#include "util/serialize.hpp"

namespace p2auth::io {
namespace {

using core::EnrolledUser;
using core::UserRegistry;
using util::SerializeErrc;
using util::SerializeError;

std::string text_of(const EnrolledUser& user) {
  std::ostringstream os;
  core::save_enrolled_user(user, os);
  return os.str();
}

std::string text_of(const UserRegistry& registry) {
  std::ostringstream os;
  registry.save(os);
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

TEST(IoBinary, UserRoundTripIsLossless) {
  const EnrolledUser user = fixture_user();
  std::stringstream ss;
  save_enrolled_user_binary(user, ss);
  const EnrolledUser restored = load_enrolled_user_binary(ss);
  EXPECT_EQ(text_of(restored), text_of(user));
}

TEST(IoBinary, UserFileRoundTripIsLossless) {
  const EnrolledUser user = fixture_user();
  TempFile tmp("io_user_roundtrip.p2mdl");
  save_enrolled_user_binary_file(user, tmp.path);
  const EnrolledUser restored = load_enrolled_user_binary_file(tmp.path);
  EXPECT_EQ(text_of(restored), text_of(user));
}

TEST(IoBinary, RegistryRoundTripIsLossless) {
  const UserRegistry registry = testing::make_test_registry();
  std::stringstream ss;
  save_user_registry_binary(registry, ss);
  const UserRegistry restored = load_user_registry_binary(ss);
  EXPECT_EQ(text_of(restored), text_of(registry));
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

  // Mapped ridge evaluates identically to the owning classifier.
  std::vector<double> probe(model.ridge().weights().size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe[i] = 0.01 * static_cast<double>(i % 17) - 0.05;
  }
  EXPECT_DOUBLE_EQ(mapped.ridge.decision(probe),
                   model.ridge().decision(probe));
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
  EXPECT_EQ(text_of(rebuilt), text_of(registry));
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

// ---- golden fixtures: the v1 text format must keep loading ------------

TEST(IoBinary, GoldenUserTextFixtureLoadsAndRoundTrips) {
  std::ifstream in(data_path("enrolled_user_v1.txt"), std::ios::binary);
  ASSERT_TRUE(in) << "missing tests/data/enrolled_user_v1.txt";
  std::stringstream fixture;
  fixture << in.rdbuf();

  fixture.seekg(0);
  const EnrolledUser user = core::load_enrolled_user(fixture);
  // Lossless parse/print: re-saving reproduces the fixture bytes.
  EXPECT_EQ(text_of(user), fixture.str());

  // Text -> binary -> text stays byte-identical (the model_convert
  // migration path is lossless).
  std::stringstream binary;
  save_enrolled_user_binary(user, binary);
  const EnrolledUser converted = load_enrolled_user_binary(binary);
  EXPECT_EQ(text_of(converted), fixture.str());
}

TEST(IoBinary, GoldenRegistryTextFixtureLoadsAndRoundTrips) {
  std::ifstream in(data_path("registry_v1.txt"), std::ios::binary);
  ASSERT_TRUE(in) << "missing tests/data/registry_v1.txt";
  std::stringstream fixture;
  fixture << in.rdbuf();

  fixture.seekg(0);
  const UserRegistry registry = UserRegistry::load(fixture);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(text_of(registry), fixture.str());

  std::stringstream binary;
  save_user_registry_binary(registry, binary);
  const UserRegistry converted = load_user_registry_binary(binary);
  EXPECT_EQ(text_of(converted), fixture.str());
}

}  // namespace
}  // namespace p2auth::io
