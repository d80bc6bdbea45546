#include "ml/minirocket.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::ml {
namespace {

Series noise_series(std::size_t n, std::uint64_t seed, double shift = 0.0) {
  util::Rng rng(seed);
  Series x(n);
  for (double& v : x) v = rng.normal() + shift;
  return x;
}

// Reference dilated convolution written naively (weights -1 with three
// +2 taps, zero padding).
Series naive_convolution(const Series& x, const std::array<int, 3>& kernel,
                         int dilation) {
  const auto n = static_cast<long long>(x.size());
  Series out(x.size(), 0.0);
  for (long long i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < 9; ++j) {
      const long long idx = i + static_cast<long long>(j - 4) * dilation;
      if (idx < 0 || idx >= n) continue;
      const bool is_two =
          (j == kernel[0] || j == kernel[1] || j == kernel[2]);
      acc += (is_two ? 2.0 : -1.0) * x[static_cast<std::size_t>(idx)];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

TEST(MiniRocketKernels, ExactlyEightyFourUniqueTriples) {
  const auto& kernels = minirocket_kernels();
  ASSERT_EQ(kernels.size(), 84u);  // C(9,3)
  std::set<std::array<int, 3>> unique(kernels.begin(), kernels.end());
  EXPECT_EQ(unique.size(), 84u);
  for (const auto& k : kernels) {
    EXPECT_LT(k[0], k[1]);
    EXPECT_LT(k[1], k[2]);
    EXPECT_GE(k[0], 0);
    EXPECT_LT(k[2], 9);
  }
}

TEST(MiniRocketKernels, WeightsSumToZero) {
  // Each kernel has six -1 and three +2: response to a constant input
  // (away from edges) must be zero.
  const Series x(50, 3.0);
  for (const auto& k : minirocket_kernels()) {
    const Series out = dilated_convolution(x, k, 1);
    for (std::size_t i = 4; i + 4 < x.size(); ++i) {
      EXPECT_NEAR(out[i], 0.0, 1e-12);
    }
  }
}

TEST(DilatedConvolution, MatchesNaiveReference) {
  const Series x = noise_series(120, 1);
  for (const int dilation : {1, 2, 4, 8}) {
    for (const std::size_t ki : {0u, 17u, 45u, 83u}) {
      const auto& k = minirocket_kernels()[ki];
      const Series fast = dilated_convolution(x, k, dilation);
      const Series slow = naive_convolution(x, k, dilation);
      ASSERT_EQ(fast.size(), slow.size());
      for (std::size_t i = 0; i < fast.size(); ++i) {
        ASSERT_NEAR(fast[i], slow[i], 1e-10)
            << "dilation " << dilation << " kernel " << ki << " idx " << i;
      }
    }
  }
}

TEST(DilatedConvolution, BadDilationThrows) {
  EXPECT_THROW(
      dilated_convolution(Series(10, 0.0), minirocket_kernels()[0], 0),
      std::invalid_argument);
}

TEST(MiniRocket, FitChoosesExponentialDilations) {
  std::vector<Series> train = {noise_series(600, 2)};
  util::Rng rng(3);
  MiniRocket rocket;
  rocket.fit(train, rng);
  const auto& dilations = rocket.dilations();
  ASSERT_FALSE(dilations.empty());
  for (std::size_t i = 0; i < dilations.size(); ++i) {
    EXPECT_EQ(dilations[i], 1 << i);
    EXPECT_LT(8 * dilations[i], 600);
  }
}

TEST(MiniRocket, FeatureCountNearBudget) {
  std::vector<Series> train = {noise_series(600, 4)};
  util::Rng rng(5);
  MiniRocketOptions options;
  options.num_features = 9996;
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  EXPECT_GE(rocket.num_features(), 9996u);
  EXPECT_LE(rocket.num_features(), 9996u + 84u * rocket.dilations().size());
}

TEST(MiniRocket, FeaturesAreProportions) {
  std::vector<Series> train = {noise_series(200, 6), noise_series(200, 7)};
  util::Rng rng(8);
  MiniRocket rocket;
  rocket.fit(train, rng);
  const linalg::Vector f = rocket.transform(train[0]);
  for (const double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MiniRocket, TransformDeterministic) {
  std::vector<Series> train = {noise_series(150, 9)};
  util::Rng rng(10);
  MiniRocket rocket;
  rocket.fit(train, rng);
  const auto a = rocket.transform(train[0]);
  const auto b = rocket.transform(train[0]);
  EXPECT_EQ(a, b);
}

TEST(MiniRocket, ErrorsOnBadInput) {
  MiniRocket rocket;
  util::Rng rng(11);
  std::vector<Series> empty;
  EXPECT_THROW(rocket.fit(empty, rng), std::invalid_argument);
  std::vector<Series> too_short = {Series(5, 0.0)};
  EXPECT_THROW(rocket.fit(too_short, rng), std::invalid_argument);
  std::vector<Series> ragged = {Series(50, 0.0), Series(40, 0.0)};
  EXPECT_THROW(rocket.fit(ragged, rng), std::invalid_argument);
  EXPECT_THROW(rocket.transform(Series(50, 0.0)), std::logic_error);
  std::vector<Series> ok = {Series(50, 0.0)};
  rocket.fit(ok, rng);
  EXPECT_THROW(rocket.transform(Series(40, 0.0)), std::invalid_argument);
}

TEST(MiniRocket, BatchTransformMatchesSingle) {
  std::vector<Series> train = {noise_series(100, 12),
                               noise_series(100, 13)};
  util::Rng rng(14);
  MiniRocket rocket;
  rocket.fit(train, rng);
  const linalg::Matrix batch = rocket.transform(train);
  for (std::size_t i = 0; i < 2; ++i) {
    const linalg::Vector single = rocket.transform(train[i]);
    for (std::size_t j = 0; j < single.size(); ++j) {
      ASSERT_EQ(batch(i, j), single[j]);
    }
  }
}

TEST(MiniRocket, FeaturesSeparateShiftedClasses) {
  // Series with different mean structure must yield different PPV
  // features; a trivial sanity check that the transform carries signal.
  std::vector<Series> train;
  for (int i = 0; i < 4; ++i) train.push_back(noise_series(200, 20 + i));
  util::Rng rng(15);
  MiniRocket rocket;
  rocket.fit(train, rng);
  Series bumpy = noise_series(200, 30);
  for (std::size_t i = 80; i < 120; ++i) bumpy[i] += 6.0;
  const auto fa = rocket.transform(noise_series(200, 31));
  const auto fb = rocket.transform(bumpy);
  double diff = 0.0;
  for (std::size_t i = 0; i < fa.size(); ++i) diff += std::abs(fa[i] - fb[i]);
  EXPECT_GT(diff / static_cast<double>(fa.size()), 0.005);
}

TEST(MultiChannelMiniRocket, ConcatenatesChannels) {
  std::vector<std::vector<Series>> train = {
      {noise_series(100, 40), noise_series(100, 41)},
      {noise_series(100, 42), noise_series(100, 43)},
  };
  util::Rng rng(16);
  MiniRocketOptions options;
  options.num_features = 1000;
  MultiChannelMiniRocket rocket(options);
  rocket.fit(train, rng);
  EXPECT_EQ(rocket.num_channels(), 2u);
  const linalg::Vector f = rocket.transform(train[0]);
  EXPECT_EQ(f.size(), rocket.num_features());
  EXPECT_GE(rocket.num_features(), 2u * 84u);
}

TEST(MultiChannelMiniRocket, ChannelCountMismatchThrows) {
  std::vector<std::vector<Series>> train = {
      {noise_series(100, 50)},
      {noise_series(100, 51), noise_series(100, 52)},
  };
  util::Rng rng(17);
  MultiChannelMiniRocket rocket;
  EXPECT_THROW(rocket.fit(train, rng), std::invalid_argument);
}

TEST(MultiChannelMiniRocket, TransformValidatesChannels) {
  std::vector<std::vector<Series>> train = {
      {noise_series(100, 60), noise_series(100, 61)}};
  util::Rng rng(18);
  MultiChannelMiniRocket rocket;
  rocket.fit(train, rng);
  EXPECT_THROW(rocket.transform(std::vector<Series>{noise_series(100, 62)}),
               std::invalid_argument);
}

TEST(MultiChannelMiniRocket, UnfittedThrows) {
  MultiChannelMiniRocket rocket;
  EXPECT_FALSE(rocket.fitted());
  EXPECT_THROW(rocket.transform(std::vector<Series>{Series(100, 0.0)}),
               std::logic_error);
}

// Bit patterns, so a flipped sign of zero fails the match too.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

// fit draws each dilation's training example serially, then fits the
// dilations on the thread pool; inside a pool task the same fit runs
// inline.  Both must give the same dilations and bias bits and leave the
// caller's RNG in the same state.
TEST(MiniRocket, PooledFitMatchesInlineFit) {
  std::vector<Series> train;
  for (std::uint64_t i = 0; i < 10; ++i) {
    train.push_back(noise_series(300, 80 + i));
  }
  MiniRocketOptions options;
  options.num_features = 2000;
  MiniRocket pooled(options), serial(options);
  util::Rng pooled_rng(20), serial_rng(20);
  pooled.fit(train, pooled_rng);
  util::parallel_for(1, 1, [&](std::size_t) { serial.fit(train, serial_rng); });
  ASSERT_GT(pooled.dilations().size(), 1u);
  EXPECT_EQ(pooled.dilations(), serial.dilations());
  EXPECT_EQ(bits(pooled.biases()), bits(serial.biases()));
  EXPECT_EQ(pooled_rng.next_u64(), serial_rng.next_u64());
}

// The multi-channel fit puts every (channel, dilation) tile on the pool.
TEST(MultiChannelMiniRocket, PooledFitMatchesInlineFit) {
  std::vector<std::vector<Series>> train;
  for (std::uint64_t i = 0; i < 10; ++i) {
    train.push_back({noise_series(300, 90 + 3 * i),
                     noise_series(300, 91 + 3 * i),
                     noise_series(300, 92 + 3 * i)});
  }
  MiniRocketOptions options;
  options.num_features = 3000;
  MultiChannelMiniRocket pooled(options), serial(options);
  util::Rng pooled_rng(21), serial_rng(21);
  pooled.fit(train, pooled_rng);
  util::parallel_for(1, 1, [&](std::size_t) { serial.fit(train, serial_rng); });
  ASSERT_EQ(pooled.num_channels(), 3u);
  ASSERT_EQ(serial.num_channels(), 3u);
  for (std::size_t c = 0; c < pooled.num_channels(); ++c) {
    EXPECT_EQ(pooled.channel(c).dilations(), serial.channel(c).dilations());
    EXPECT_EQ(bits(pooled.channel(c).biases()),
              bits(serial.channel(c).biases()))
        << "channel " << c;
  }
  EXPECT_EQ(pooled_rng.next_u64(), serial_rng.next_u64());
}

class MiniRocketLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MiniRocketLengthSweep, FitAndTransformAtVariousLengths) {
  const std::size_t n = GetParam();
  std::vector<Series> train = {noise_series(n, 70), noise_series(n, 71)};
  util::Rng rng(19);
  MiniRocket rocket;
  rocket.fit(train, rng);
  const linalg::Vector f = rocket.transform(train[0]);
  EXPECT_EQ(f.size(), rocket.num_features());
  EXPECT_GT(f.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, MiniRocketLengthSweep,
                         ::testing::Values(9u, 27u, 90u, 300u, 600u));

TEST(MiniRocketMaxPooling, OneFeaturePerKernelDilationCombo) {
  std::vector<Series> train = {noise_series(300, 80)};
  util::Rng rng(81);
  MiniRocketOptions options;
  options.pooling = Pooling::kMax;
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  EXPECT_EQ(rocket.num_features(), 84u * rocket.dilations().size());
}

TEST(MiniRocketMaxPooling, FeaturesAreConvolutionMaxima) {
  std::vector<Series> train = {noise_series(120, 82)};
  util::Rng rng(83);
  MiniRocketOptions options;
  options.pooling = Pooling::kMax;
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  const linalg::Vector f = rocket.transform(train[0]);
  // Verify a couple of features against directly computed maxima.
  const auto& kernels = minirocket_kernels();
  const std::size_t num_dilations = rocket.dilations().size();
  for (const std::size_t ki : {0u, 40u, 83u}) {
    for (std::size_t di = 0; di < num_dilations; ++di) {
      const Series conv =
          dilated_convolution(train[0], kernels[ki], rocket.dilations()[di]);
      double peak = conv.front();
      for (const double v : conv) peak = std::max(peak, v);
      EXPECT_DOUBLE_EQ(f[ki * num_dilations + di], peak);
    }
  }
}

TEST(MiniRocketMaxPooling, SerializationRoundTrip) {
  std::vector<Series> train = {noise_series(200, 84)};
  util::Rng rng(85);
  MiniRocketOptions options;
  options.pooling = Pooling::kMax;
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  const MiniRocket restored = MiniRocket::load(ss);
  const Series probe = noise_series(200, 86);
  EXPECT_EQ(rocket.transform(probe), restored.transform(probe));
}

TEST(MiniRocketPpv, SerializationRoundTrip) {
  std::vector<Series> train = {noise_series(150, 87),
                               noise_series(150, 88)};
  util::Rng rng(89);
  MiniRocket rocket;
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  const MiniRocket restored = MiniRocket::load(ss);
  EXPECT_EQ(restored.num_features(), rocket.num_features());
  EXPECT_EQ(restored.input_length(), rocket.input_length());
  EXPECT_EQ(restored.dilations(), rocket.dilations());
  const Series probe = noise_series(150, 90);
  EXPECT_EQ(rocket.transform(probe), restored.transform(probe));
}

TEST(MultiChannelMiniRocketSerialization, RoundTrip) {
  std::vector<std::vector<Series>> train = {
      {noise_series(120, 93), noise_series(120, 94)},
      {noise_series(120, 95), noise_series(120, 96)},
  };
  util::Rng rng(97);
  MiniRocketOptions options;
  options.num_features = 1200;
  MultiChannelMiniRocket rocket(options);
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  const MultiChannelMiniRocket restored = MultiChannelMiniRocket::load(ss);
  EXPECT_EQ(restored.num_channels(), rocket.num_channels());
  EXPECT_EQ(restored.num_features(), rocket.num_features());
  const std::vector<Series> probe = {noise_series(120, 98),
                                     noise_series(120, 99)};
  EXPECT_EQ(rocket.transform(probe), restored.transform(probe));
}

TEST(MiniRocketSerialization, UnfittedSaveThrows) {
  MiniRocket rocket;
  std::stringstream ss;
  EXPECT_THROW(rocket.save(ss), std::logic_error);
}

TEST(MiniRocketSerialization, NonFiniteBiasThrows) {
  // A damaged template store must reject loudly at load time instead of
  // producing NaN features (and hence NaN decision scores) at auth time.
  std::vector<Series> train = {noise_series(100, 91)};
  util::Rng rng(92);
  MiniRocket rocket;
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  std::string text = ss.str();
  // Replace the first bias value ("biases <count> <v1> ...") with nan.
  const auto tag = text.rfind("biases");
  ASSERT_NE(tag, std::string::npos);
  const auto count_start = text.find(' ', tag) + 1;
  const auto value_start = text.find(' ', count_start) + 1;
  const auto value_end = text.find(' ', value_start);
  ASSERT_NE(value_end, std::string::npos);
  text.replace(value_start, value_end - value_start, "nan");
  std::istringstream bad(text);
  try {
    MiniRocket::load(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

// Fuzz-style round-trip: randomized model shapes (length, budget,
// pooling, training-set size) must survive save/load with bit-exact
// parameters and bit-exact transforms.
TEST(MiniRocketSerialization, FuzzRoundTripBitExact) {
  util::Rng rng(0xf022ULL, 0x5e2ULL);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    const std::size_t length = 9 + rng.uniform_int(292);  // [9, 300]
    MiniRocketOptions options;
    options.num_features = 84 + rng.uniform_int(1917);  // [84, 2000]
    options.max_dilations = 1 + rng.uniform_int(6);
    options.pooling = rng.uniform_int(2) == 0 ? Pooling::kPpv : Pooling::kMax;
    MiniRocket rocket(options);
    std::vector<Series> train;
    const std::size_t train_count = 1 + rng.uniform_int(4);
    for (std::size_t i = 0; i < train_count; ++i) {
      train.push_back(noise_series(length, rng.next_u64()));
    }
    rocket.fit(train, rng);
    std::stringstream ss;
    rocket.save(ss);
    const MiniRocket restored = MiniRocket::load(ss);
    ASSERT_EQ(restored.input_length(), rocket.input_length());
    ASSERT_EQ(restored.dilations(), rocket.dilations());
    ASSERT_EQ(restored.biases_per_combo(), rocket.biases_per_combo());
    ASSERT_EQ(restored.pooling(), rocket.pooling());
    const std::span<const double> a = rocket.biases();
    const std::span<const double> b = restored.biases();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "bias " << i << " trial " << trial;
    }
    const Series probe = noise_series(length, rng.next_u64());
    const linalg::Vector before = rocket.transform(probe);
    const linalg::Vector after = restored.transform(probe);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(before[i], after[i]) << "feature " << i << " trial " << trial;
    }
  }
}

// Every whitespace-boundary truncation of a valid stream must surface as
// a typed std::runtime_error from load, never a crash, hang or silently
// half-initialised model.
TEST(MiniRocketSerialization, TruncatedStreamsRejected) {
  std::vector<Series> train = {noise_series(40, 191)};
  util::Rng rng(192);
  MiniRocketOptions options;
  options.num_features = 84;  // keep the serialized text small
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  const std::string text = ss.str();
  std::size_t tested = 0;
  // The final cut position (the trailing newline) is excluded: stream
  // extraction does not need it, so that "truncation" still parses.
  for (std::size_t cut = 0; cut + 1 < text.size(); ++cut) {
    // Truncating mid-token is covered by the nearest boundary cut; token
    // boundaries are where the reader's state machine actually lands.
    if (cut != 0 && !std::isspace(static_cast<unsigned char>(text[cut]))) {
      continue;
    }
    std::istringstream bad(text.substr(0, cut));
    EXPECT_THROW(MiniRocket::load(bad), std::runtime_error)
        << "cut at " << cut;
    ++tested;
  }
  EXPECT_GT(tested, 10u);
  // Sanity: the untruncated stream still loads.
  std::istringstream good(text);
  EXPECT_NO_THROW(MiniRocket::load(good));
}

// Swapping two tagged fields must be caught by the tag check of whichever
// field is read first, as a typed error naming the expected tag.
TEST(MiniRocketSerialization, FieldReorderedStreamsRejected) {
  std::vector<Series> train = {noise_series(40, 193)};
  util::Rng rng(194);
  MiniRocketOptions options;
  options.num_features = 84;
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  const std::string text = ss.str();
  // A u64 field serializes as "tag value\n"; swap two such fields while
  // leaving everything between them in place.
  const auto swap_fields = [&](std::string_view first,
                               std::string_view second) {
    const std::size_t a = text.find(first);
    const std::size_t a_end = text.find('\n', a) + 1;
    const std::size_t b = text.find(second);
    const std::size_t b_end = text.find('\n', b) + 1;
    EXPECT_NE(a, std::string::npos);
    EXPECT_NE(b, std::string::npos);
    EXPECT_LE(a_end, b);
    return text.substr(0, a) + text.substr(b, b_end - b) +
           text.substr(a_end, b - a_end) + text.substr(a, a_end - a) +
           text.substr(b_end);
  };
  for (const auto& [first, second] :
       std::vector<std::pair<std::string_view, std::string_view>>{
           {"max_dilations", "pooling"},
           {"input_length", "biases_per_combo"}}) {
    std::istringstream bad(swap_fields(first, second));
    try {
      MiniRocket::load(bad);
      FAIL() << "expected std::runtime_error swapping " << first << "/"
             << second;
    } catch (const std::runtime_error& e) {
      // The error must name the tag the reader expected.
      EXPECT_NE(std::string(e.what()).find(std::string(first)),
                std::string::npos)
          << e.what();
    }
  }
}

// A stream whose dilation came back corrupted to a non-positive value is
// rejected before it can index outside every shift partition.
TEST(MiniRocketSerialization, NonPositiveDilationRejected) {
  std::vector<Series> train = {noise_series(40, 195)};
  util::Rng rng(196);
  MiniRocketOptions options;
  options.num_features = 84;
  MiniRocket rocket(options);
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  std::string text = ss.str();
  // "\ndilations" skips over the earlier "max_dilations" field.
  const std::size_t tag = text.find("\ndilations") + 1;
  ASSERT_NE(tag, std::string::npos + 1);
  const std::size_t count_start = text.find(' ', tag) + 1;
  const std::size_t value_start = text.find(' ', count_start) + 1;
  const std::size_t value_end = text.find(' ', value_start);
  text.replace(value_start, value_end - value_start, "-3");
  std::istringstream bad(text);
  try {
    MiniRocket::load(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dilation"), std::string::npos)
        << e.what();
  }
}

TEST(MiniRocketSerialization, CorruptedShapeThrows) {
  std::vector<Series> train = {noise_series(100, 91)};
  util::Rng rng(92);
  MiniRocket rocket;
  rocket.fit(train, rng);
  std::stringstream ss;
  rocket.save(ss);
  std::string text = ss.str();
  // Chop the biases vector short.
  const auto pos = text.rfind("biases");
  std::istringstream bad(text.substr(0, pos) + "biases 3 1 2");
  EXPECT_THROW(MiniRocket::load(bad), std::runtime_error);
}

}  // namespace
}  // namespace p2auth::ml
