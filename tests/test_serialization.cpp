// A real enrollment through the P2MDL001 store: every decision and
// score of the reloaded user must equal the enrolled one bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "core/authenticator.hpp"
#include "io/binary.hpp"
#include "io/format.hpp"
#include "io_fixtures.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "util/serialize.hpp"

namespace p2auth::core {
namespace {

// One enrolled user + a few probe observations, built once (enrollment is
// the expensive part).
struct Enrolled {
  sim::Population population;
  keystroke::Pin pin{"1628"};
  EnrolledUser user;
  std::vector<Observation> probes;

  Enrolled() {
    sim::PopulationConfig cfg;
    cfg.num_users = 1;
    cfg.seed = 505;
    population = sim::make_population(cfg);
    util::Rng rng(606);
    sim::TrialOptions options;
    std::vector<Observation> pos, neg;
    util::Rng er = rng.fork("enroll");
    for (sim::Trial& t :
         sim::make_trials(population.users[0], pin, 6, options, er)) {
      pos.push_back({std::move(t.entry), std::move(t.trace)});
    }
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 30, options, pr)) {
      neg.push_back({std::move(t.entry), std::move(t.trace)});
    }
    EnrollmentConfig config;
    config.privacy_boost = true;
    config.rocket.num_features = 2000;
    user = enroll_user(pin, pos, neg, config);
    util::Rng tr = rng.fork("probes");
    for (int i = 0; i < 4; ++i) {
      util::Rng r = tr.fork(i);
      sim::Trial t = sim::make_trial(population.users[0], pin, options, r);
      probes.push_back({std::move(t.entry), std::move(t.trace)});
    }
  }
};

const Enrolled& fixture() {
  static const Enrolled instance;
  return instance;
}

std::string store_bytes(const EnrolledUser& user) {
  std::ostringstream os;
  io::save_enrolled_user_binary(user, os);
  return os.str();
}

EnrolledUser load_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  return io::load_enrolled_user_binary(is);
}

TEST(Serialization, WaveformModelRoundTripPreservesDecisions) {
  const Enrolled& f = fixture();
  const EnrolledUser restored_user = load_bytes(store_bytes(f.user));
  ASSERT_TRUE(restored_user.full_model.has_value());
  const WaveformModel& restored = *restored_user.full_model;
  // The restored model must produce bit-identical decision values.
  for (const auto& obs : f.probes) {
    const auto pre = preprocess_entry(obs);
    std::size_t first = pre.calibrated_indices.front();
    const auto full =
        extract_full_waveform(pre.filtered, first, pre.rate_hz);
    EXPECT_EQ(f.user.full_model->decision(full), restored.decision(full));
  }
  EXPECT_EQ(restored.threshold(), f.user.full_model->threshold());
}

TEST(Serialization, EnrolledUserRoundTripPreservesAuthDecisions) {
  const Enrolled& f = fixture();
  const EnrolledUser restored = load_bytes(store_bytes(f.user));
  EXPECT_EQ(restored.pin, f.user.pin);
  EXPECT_EQ(restored.privacy_boost, f.user.privacy_boost);
  EXPECT_EQ(restored.stats.key_models_trained,
            f.user.stats.key_models_trained);
  for (char d = '0'; d <= '9'; ++d) {
    EXPECT_EQ(restored.has_key_model(d), f.user.has_key_model(d));
  }
  AuthOptions auth;
  for (const auto& obs : f.probes) {
    const AuthResult a = authenticate(f.user, obs, auth);
    const AuthResult b = authenticate(restored, obs, auth);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.detected_case, b.detected_case);
    EXPECT_EQ(a.waveform_score, b.waveform_score);
  }
}

TEST(Serialization, FileRoundTrip) {
  const Enrolled& f = fixture();
  const std::string path = "serialization_user_roundtrip.p2mdl";
  io::save_enrolled_user_binary_file(f.user, path);
  const EnrolledUser restored = io::load_enrolled_user_binary_file(path);
  EXPECT_EQ(restored.pin, f.user.pin);
  EXPECT_EQ(store_bytes(restored), store_bytes(f.user));
  std::remove(path.c_str());
}

TEST(Serialization, FileErrorsThrow) {
  const Enrolled& f = fixture();
  EXPECT_THROW(
      io::save_enrolled_user_binary_file(f.user, "/no-such-dir/x.p2mdl"),
      std::runtime_error);
  EXPECT_THROW(io::load_enrolled_user_binary_file("/no-such-file.p2mdl"),
               std::runtime_error);
}

TEST(Serialization, CorruptedStreamThrows) {
  const Enrolled& f = fixture();
  const std::string bytes = store_bytes(f.user);
  // Truncate in the middle.
  EXPECT_THROW(load_bytes(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  // Corrupt the magic.
  std::string bad = bytes;
  bad.replace(0, 6, "broken");
  EXPECT_THROW(load_bytes(bad), std::runtime_error);
}

TEST(Serialization, NonFiniteValuesInStoreRejectLoudly) {
  // Flip the full model's stored ridge bias to inf and re-stamp the
  // record's CRC, so the value check (not the checksum) is what must
  // throw instead of restoring a model whose decision scores are
  // non-finite.
  const Enrolled& f = fixture();
  std::string bytes = store_bytes(f.user);
  const std::size_t ridge = bytes.find("RIDG");  // the full model's ridge
  ASSERT_NE(ridge, std::string::npos);
  ASSERT_EQ(ridge % 8, 0u);
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(bytes.data() + ridge + io::kSectionHeaderBytes, &inf,
              sizeof(inf));
  testing::restamp_user_crc(bytes);
  try {
    (void)load_bytes(bytes);
    FAIL() << "a non-finite ridge bias loaded";
  } catch (const util::SerializeError& e) {
    EXPECT_EQ(e.code(), util::SerializeErrc::kBadValue) << e.what();
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, UntrainedModelRefusesToSave) {
  EnrolledUser user;
  user.pin = keystroke::Pin("1628");
  user.full_model = WaveformModel{};  // engaged but untrained
  std::stringstream ss;
  EXPECT_THROW(io::save_enrolled_user_binary(user, ss), std::logic_error);
}

TEST(Serialization, LoadedModelRefusesQualityEstimate) {
  // The LOO diagnostics are fit-time-only; a restored model must not
  // silently report a stale/absent quality estimate.
  const Enrolled& f = fixture();
  const EnrolledUser restored = load_bytes(store_bytes(f.user));
  ASSERT_TRUE(restored.full_model.has_value());
  EXPECT_THROW((void)restored.full_model->estimate_quality(),
               std::logic_error);
}

}  // namespace
}  // namespace p2auth::core
