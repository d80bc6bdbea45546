#include "signal/filters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/rng.hpp"

namespace p2auth::signal {
namespace {

// The oracle: the original median filter, a clamped window copy and
// nth_element per sample.  median_filter must match it bit for bit,
// including which of -0.0 / +0.0 it returns and NaN propagation.
Series reference_median_filter(const Series& x, std::size_t window) {
  if (x.empty()) return {};
  const std::size_t n = x.size();
  const long long half = static_cast<long long>(window / 2);
  Series out(n);
  Series buf(window);
  for (std::size_t i = 0; i < n; ++i) {
    for (long long k = -half; k <= half; ++k) {
      const long long j = std::clamp<long long>(
          static_cast<long long>(i) + k, 0, static_cast<long long>(n) - 1);
      buf[static_cast<std::size_t>(k + half)] =
          x[static_cast<std::size_t>(j)];
    }
    auto mid = buf.begin() + half;
    std::nth_element(buf.begin(), mid, buf.end());
    out[i] = *mid;
  }
  return out;
}

// Series shapes the selection order can leak through: distinct values,
// integer values (ties), signed zeros mixed with a few non-zeros (zero
// medians of either sign) and a single NaN.
enum class Shape { kNormal, kIntegers, kSignedZeros, kOneNaN };

Series shaped_series(Shape shape, std::size_t n, util::Rng& rng) {
  Series x(n);
  for (double& v : x) {
    switch (shape) {
      case Shape::kNormal:
      case Shape::kOneNaN:
        v = rng.normal();
        break;
      case Shape::kIntegers:
        v = std::round(2.0 * rng.normal());
        break;
      case Shape::kSignedZeros: {
        static constexpr double kValues[] = {-0.0, 0.0, -0.0, 0.0, 1.0, -1.0};
        v = kValues[rng.uniform_int(6)];
        break;
      }
    }
  }
  if (shape == Shape::kOneNaN && n > 0) {
    x[rng.uniform_int(static_cast<std::uint32_t>(n))] =
        std::numeric_limits<double>::quiet_NaN();
  }
  return x;
}

TEST(MedianFilter, BitIdenticalToNthElementOracle) {
  util::Rng rng(0x3ed1a7ULL, 0x5ULL);
  std::size_t series = 0;
  for (const Shape shape : {Shape::kNormal, Shape::kIntegers,
                            Shape::kSignedZeros, Shape::kOneNaN}) {
    for (const std::size_t window : {1u, 3u, 5u, 7u}) {
      for (std::size_t n = 0; n <= 1001; n = n < 12 ? n + 1 : n + 494) {
        for (int rep = 0; rep < 25; ++rep, ++series) {
          const Series x = shaped_series(shape, n, rng);
          const Series got = median_filter(x, window);
          const Series want = reference_median_filter(x, window);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << "shape " << static_cast<int>(shape) << " window "
                << window << " n " << n << " rep " << rep << " sample " << i
                << ": " << got[i] << " vs " << want[i];
          }
        }
      }
    }
  }
  EXPECT_GE(series, 1500u);
}

TEST(MedianFilter, RemovesImpulse) {
  Series x(21, 1.0);
  x[10] = 100.0;  // impulsive glitch
  const Series y = median_filter(x, 5);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(MedianFilter, PreservesStepEdge) {
  Series x(20, 0.0);
  for (std::size_t i = 10; i < 20; ++i) x[i] = 1.0;
  const Series y = median_filter(x, 3);
  EXPECT_DOUBLE_EQ(y[5], 0.0);
  EXPECT_DOUBLE_EQ(y[15], 1.0);
  // The edge stays sharp (no intermediate smear values).
  for (const double v : y) EXPECT_TRUE(v == 0.0 || v == 1.0);
}

TEST(MedianFilter, WindowOneIsIdentity) {
  const Series x = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(median_filter(x, 1), x);
}

TEST(MedianFilter, EvenWindowThrows) {
  EXPECT_THROW(median_filter(Series{1.0, 2.0}, 4), std::invalid_argument);
  EXPECT_THROW(median_filter(Series{1.0, 2.0}, 0), std::invalid_argument);
}

TEST(MedianFilter, EmptyInput) {
  EXPECT_TRUE(median_filter(Series{}, 3).empty());
}

TEST(MovingAverage, ConstantSignalUnchanged) {
  const Series x(10, 2.5);
  for (const double v : moving_average(x, 5)) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(MovingAverage, AveragesWindow) {
  const Series x = {0.0, 3.0, 0.0};
  const Series y = moving_average(x, 3);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(MovingAverage, EvenWindowThrows) {
  EXPECT_THROW(moving_average(Series{1.0}, 2), std::invalid_argument);
}

TEST(SavitzkyGolay, CoefficientsSumToOne) {
  for (const int order : {1, 2, 3, 4}) {
    const Series c = savitzky_golay_coefficients(11, order);
    double sum = 0.0;
    for (const double v : c) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-10) << "order " << order;
  }
}

TEST(SavitzkyGolay, InvalidParamsThrow) {
  EXPECT_THROW(savitzky_golay_coefficients(10, 2), std::invalid_argument);
  EXPECT_THROW(savitzky_golay_coefficients(5, 5), std::invalid_argument);
  EXPECT_THROW(savitzky_golay_coefficients(5, -1), std::invalid_argument);
}

TEST(SavitzkyGolay, SmoothsNoiseButKeepsShape) {
  util::Rng rng(1);
  const std::size_t n = 200;
  Series clean(n), noisy(n);
  for (std::size_t i = 0; i < n; ++i) {
    clean[i] = std::sin(0.05 * static_cast<double>(i));
    noisy[i] = clean[i] + rng.normal(0.0, 0.2);
  }
  const Series smooth = savitzky_golay(noisy, 11, 3);
  double err_noisy = 0.0, err_smooth = 0.0;
  for (std::size_t i = 10; i + 10 < n; ++i) {
    err_noisy += std::abs(noisy[i] - clean[i]);
    err_smooth += std::abs(smooth[i] - clean[i]);
  }
  EXPECT_LT(err_smooth, 0.6 * err_noisy);
}

TEST(RemoveMean, ZeroMeanResult) {
  const Series y = remove_mean(Series{1.0, 2.0, 3.0});
  EXPECT_NEAR(y[0] + y[1] + y[2], 0.0, 1e-12);
  EXPECT_NEAR(y[0], -1.0, 1e-12);
}

TEST(RemoveMean, EmptyOk) { EXPECT_TRUE(remove_mean(Series{}).empty()); }

TEST(MedianFilter, IdempotentOnMonotoneData) {
  Series x(30);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i) * 0.5;
  }
  // Median filtering a monotone series leaves the interior unchanged.
  const Series y = median_filter(x, 5);
  for (std::size_t i = 2; i + 2 < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], x[i]);
  }
}

TEST(SavitzkyGolay, WindowLargerThanSeriesStillWorks) {
  const Series x = {1.0, 2.0, 3.0};
  // Edge replication makes this well-defined.
  EXPECT_NO_THROW({
    const Series y = savitzky_golay(x, 7, 2);
    EXPECT_EQ(y.size(), 3u);
  });
}

TEST(MovingAverage, ReducesVarianceOfNoise) {
  util::Rng rng(9);
  Series x(500);
  for (double& v : x) v = rng.normal();
  const Series y = moving_average(x, 9);
  double var_x = 0.0, var_y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    var_x += x[i] * x[i];
    var_y += y[i] * y[i];
  }
  EXPECT_LT(var_y, 0.3 * var_x);
}

// Property: Savitzky-Golay of degree d reproduces degree-<=d polynomials
// exactly (away from edges the replication padding distorts).
struct SgCase {
  std::size_t window;
  int polyorder;
  int poly_degree;
};

class SavitzkyGolaySweep : public ::testing::TestWithParam<SgCase> {};

TEST_P(SavitzkyGolaySweep, ReproducesPolynomialExactly) {
  const auto [window, polyorder, degree] = GetParam();
  const std::size_t n = 60;
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 10.0 - 3.0;
    double v = 0.0, pw = 1.0;
    for (int d = 0; d <= degree; ++d) {
      v += (d + 1) * 0.3 * pw;
      pw *= t;
    }
    x[i] = v;
  }
  const Series y = savitzky_golay(x, window, polyorder);
  const std::size_t half = window / 2;
  for (std::size_t i = half; i + half < n; ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-8) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SavitzkyGolaySweep,
    ::testing::Values(SgCase{5, 2, 1}, SgCase{5, 2, 2}, SgCase{7, 3, 3},
                      SgCase{11, 3, 2}, SgCase{11, 3, 3}, SgCase{15, 4, 4},
                      SgCase{21, 2, 2}));

}  // namespace
}  // namespace p2auth::signal
