// Deterministic synthetic models for the persistence tests.
//
// Built directly via the from_parts validators (no enrollment pipeline),
// so constructing a structurally complete EnrolledUser costs microseconds
// and the same seed always produces byte-identical stores.  The layout
// itself is pinned by the golden images in tests/data/*.p2mdl.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/format.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace p2auth::testing {

inline core::WaveformModel make_test_model(util::Rng& rng,
                                           std::size_t n_channels) {
  std::vector<ml::MiniRocket> channels;
  std::size_t total_features = 0;
  for (std::size_t c = 0; c < n_channels; ++c) {
    ml::MiniRocketOptions options;
    options.num_features = 168;
    options.max_dilations = 2;
    std::vector<double> biases(84 * 2);
    for (double& b : biases) b = rng.normal(0.0, 1.0);
    channels.push_back(ml::MiniRocket::from_parts(
        options, /*input_length=*/64, {1, 3}, /*biases_per_combo=*/1,
        std::move(biases)));
    total_features += channels.back().num_features();
  }
  ml::MiniRocketOptions mc_options;
  mc_options.num_features = 168 * n_channels;
  mc_options.max_dilations = 2;
  auto rocket =
      ml::MultiChannelMiniRocket::from_parts(mc_options, std::move(channels));
  std::vector<double> weights(total_features);
  for (double& w : weights) w = rng.normal(0.0, 0.1);
  auto ridge = linalg::RidgeClassifier::from_parts(std::move(weights),
                                                   rng.normal(0.0, 0.5), 1.0);
  return core::WaveformModel::from_parts(std::move(rocket), std::move(ridge),
                                         rng.normal(0.0, 0.2));
}

inline core::EnrolledUser make_test_user(util::Rng& rng, std::uint32_t id,
                                         const std::string& pin) {
  core::EnrolledUser user;
  user.pin = keystroke::Pin(pin);
  user.privacy_boost = true;
  user.user_id = id;
  user.stats.full_positives = 9;
  user.stats.full_negatives = 30;
  user.stats.segment_positives = 36;
  user.stats.segment_negatives = 120;
  user.stats.key_models_trained = 1;
  user.full_model = make_test_model(rng, 1);
  user.boost_model = make_test_model(rng, 1);
  if (!pin.empty()) {
    user.key_models[static_cast<std::size_t>(pin[0] - '0')] =
        make_test_model(rng, 1);
  }
  return user;
}

inline core::UserRegistry make_test_registry(std::uint64_t seed = 20260808) {
  util::Rng rng(seed);
  core::UserRegistry registry;
  registry.add("alice", make_test_user(rng, 1, "1628"));
  registry.add("bob", make_test_user(rng, 2, "0413"));
  registry.add("carol", make_test_user(rng, 3, "77"));
  return registry;
}

// Re-stamps the CRC trailer of a single-user file image after a
// deliberate field patch, so the structural validator (not the CRC) is
// what rejects the mutation.
inline void restamp_user_crc(std::string& file) {
  auto* bytes = reinterpret_cast<std::uint8_t*>(file.data());
  const std::span<const std::uint8_t> record(
      bytes + io::kFileHeaderBytes, file.size() - io::kFileHeaderBytes);
  const std::uint32_t crc =
      util::crc32(record.first(record.size() - io::kRecordTrailerBytes));
  std::memcpy(bytes + file.size() - 12, &crc, sizeof(crc));
}

}  // namespace p2auth::testing
