#include "linalg/ridge.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/rng.hpp"

namespace p2auth::linalg {
namespace {

// Linearly separable data: class +1 has feature j0 shifted up.
void make_separable(std::size_t n, std::size_t p, double shift,
                    util::Rng& rng, Matrix& x, std::vector<double>& y) {
  x = Matrix(n, p);
  y.assign(n, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i < n / 2;
    y[i] = positive ? 1.0 : -1.0;
    for (std::size_t j = 0; j < p; ++j) {
      x(i, j) = rng.normal() + (positive && j < 3 ? shift : 0.0);
    }
  }
}

TEST(Ridge, ClassifiesSeparableData) {
  util::Rng rng(1);
  Matrix x;
  std::vector<double> y;
  make_separable(40, 20, 3.0, rng, x, y);
  RidgeClassifier clf;
  clf.fit(x, y);
  int correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    correct += (clf.predict(x.row(i)) == (y[i] > 0 ? 1 : -1)) ? 1 : 0;
  }
  EXPECT_EQ(correct, 40);
}

TEST(Ridge, GeneralisesToFreshSamples) {
  util::Rng rng(2);
  Matrix x;
  std::vector<double> y;
  make_separable(60, 15, 2.5, rng, x, y);
  RidgeClassifier clf;
  clf.fit(x, y);
  int correct = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const bool positive = t % 2 == 0;
    Vector f(15);
    for (std::size_t j = 0; j < 15; ++j) {
      f[j] = rng.normal() + (positive && j < 3 ? 2.5 : 0.0);
    }
    correct += (clf.predict(f) == (positive ? 1 : -1)) ? 1 : 0;
  }
  EXPECT_GT(correct, trials * 85 / 100);
}

TEST(Ridge, DecisionIsLinearInWeights) {
  util::Rng rng(3);
  Matrix x;
  std::vector<double> y;
  make_separable(20, 8, 2.0, rng, x, y);
  RidgeClassifier clf;
  clf.fit(x, y);
  Vector probe(8, 0.5);
  double manual = clf.bias();
  for (std::size_t j = 0; j < 8; ++j) manual += clf.weights()[j] * probe[j];
  EXPECT_NEAR(clf.decision(probe), manual, 1e-12);
}

TEST(Ridge, LooDecisionsMatchExplicitRefits) {
  // Regression test for the imbalanced-threshold bug: the stored LOO
  // decision of sample i must equal the prediction of a model explicitly
  // re-fit without sample i.
  util::Rng rng(4);
  const std::size_t n = 14, p = 30;
  Matrix x(n, p);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = i < 4 ? 1.0 : -1.0;  // deliberately imbalanced
    for (std::size_t j = 0; j < p; ++j) {
      x(i, j) = rng.normal() + (y[i] > 0 && j % 5 == 0 ? 0.8 : 0.0);
    }
  }
  // 1e-3 is the default grid's smallest and worst-conditioned point (the
  // one full enrollment models pick); 1e3 its largest.
  for (const double lambda : {1e-3, 3.7, 1e3}) {
    RidgeOptions opt;
    opt.lambdas = {lambda};
    RidgeClassifier full;
    full.fit(x, y, opt);
    ASSERT_EQ(full.loo_decisions().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      Matrix xi(n - 1, p);
      std::vector<double> yi;
      std::size_t r = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i) continue;
        for (std::size_t j = 0; j < p; ++j) xi(r, j) = x(k, j);
        yi.push_back(y[k]);
        ++r;
      }
      RidgeClassifier held_out;
      held_out.fit(xi, yi, opt);
      EXPECT_NEAR(full.loo_decisions()[i], held_out.decision(x.row(i)), 1e-8)
          << "lambda " << lambda << " sample " << i;
    }
  }
}

TEST(Ridge, GridSelectionMatchesPerLambdaFits) {
  // Guards the parallel per-lambda Cholesky grid: the chosen lambda, its
  // LOO error and the resulting weights from one multi-lambda fit must be
  // bit-identical to an explicit argmin over single-lambda fits.
  util::Rng rng(41);
  Matrix x;
  std::vector<double> y;
  make_separable(24, 40, 0.7, rng, x, y);
  const RidgeOptions grid;  // default 10-point lambda grid
  RidgeClassifier multi;
  multi.fit(x, y, grid);

  double best_err = std::numeric_limits<double>::infinity();
  double best_lambda = grid.lambdas.front();
  Vector best_weights;
  double best_bias = 0.0;
  for (const double lambda : grid.lambdas) {
    RidgeOptions one;
    one.lambdas = {lambda};
    RidgeClassifier clf;
    clf.fit(x, y, one);
    if (clf.loo_error() < best_err) {
      best_err = clf.loo_error();
      best_lambda = lambda;
      best_weights = clf.weights();
      best_bias = clf.bias();
    }
  }
  EXPECT_EQ(multi.chosen_lambda(), best_lambda);
  EXPECT_EQ(multi.loo_error(), best_err);
  EXPECT_EQ(multi.weights(), best_weights);
  EXPECT_EQ(multi.bias(), best_bias);
}

TEST(Ridge, NumericallySingularGridPointIsSkipped) {
  // Two identical rows make K singular; at 1e16 Gram scale lambda = 1e-3
  // is below K's rounding, so K + lambda I has a zero pivot and that grid
  // point must be skipped rather than chosen from a singular system.
  // lambda = 1e3 survives the rounding and still factors.
  const Matrix x = Matrix::from_rows({{1e8, 0.0}, {1e8, 0.0}, {0.0, 1e8}});
  const std::vector<double> y = {1.0, 1.0, -1.0};
  RidgeOptions opt;
  opt.fit_intercept = false;
  opt.lambdas = {1e-3, 1e3};
  RidgeClassifier clf;
  clf.fit(x, y, opt);
  EXPECT_EQ(clf.chosen_lambda(), 1e3);
  EXPECT_TRUE(std::isfinite(clf.loo_error()));
  for (const double w : clf.weights()) EXPECT_TRUE(std::isfinite(w));
  EXPECT_GT(clf.decision(x.row(0)), 0.0);
  EXPECT_LT(clf.decision(x.row(2)), 0.0);

  opt.lambdas = {1e-3};
  RidgeClassifier singular;
  EXPECT_THROW(singular.fit(x, y, opt), std::domain_error);
}

// A non-finite feature must not yield a "trained" model whose every
// decision is NaN: fit rejects it up front, whichever row, value and
// intercept setting.
TEST(Ridge, NonFiniteFeatureIsRejected) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e200};  // its square overflows
  const std::vector<double> y = {1.0, 1.0, 1.0, -1.0, -1.0, -1.0};
  for (const double special : specials) {
    for (const bool intercept : {true, false}) {
      util::Rng rng(7);
      Matrix x;
      std::vector<double> unused;
      make_separable(6, 5, 2.0, rng, x, unused);
      x(4, 2) = special;
      RidgeOptions opt;
      opt.fit_intercept = intercept;
      RidgeClassifier clf;
      EXPECT_THROW(clf.fit(x, y, opt), std::invalid_argument)
          << special << " intercept=" << intercept;
      EXPECT_FALSE(clf.trained());
    }
  }
}

TEST(Ridge, SaveLoadRoundTripPreservesDecisions) {
  util::Rng rng(42);
  Matrix x;
  std::vector<double> y;
  make_separable(20, 10, 2.0, rng, x, y);
  RidgeClassifier clf;
  clf.fit(x, y);
  // The model store keeps weights, bias and lambda and rebuilds the
  // classifier with from_parts, the P2MDL001 reader's entry point.
  const RidgeClassifier restored =
      RidgeClassifier::from_parts(clf.weights(), clf.bias(),
                                  clf.chosen_lambda());
  EXPECT_EQ(restored.chosen_lambda(), clf.chosen_lambda());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.decision(x.row(i)), clf.decision(x.row(i)));
  }
}

// A damaged template store must reject loudly at load time instead of
// producing NaN decision scores during authentication.
TEST(Ridge, LoadRejectsNonFiniteWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)RidgeClassifier::from_parts({0.5, nan}, 0.1, 1.0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(Ridge, LoadRejectsNonFiniteBias) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)RidgeClassifier::from_parts({0.5, -0.25}, inf, 1.0),
               std::runtime_error);
}

TEST(Ridge, LoadRejectsBadLambda) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)RidgeClassifier::from_parts({0.5}, 0.0, nan),
               std::runtime_error);
  EXPECT_THROW((void)RidgeClassifier::from_parts({0.5}, 0.0, -2.0),
               std::runtime_error);
}

TEST(Ridge, ChoosesReasonableLambdaOnNoisyData) {
  // Pure-noise labels: heavy regularisation should win over
  // interpolation.
  util::Rng rng(5);
  const std::size_t n = 30, p = 60;
  Matrix x(n, p);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : -1.0;
    for (std::size_t j = 0; j < p; ++j) x(i, j) = rng.normal();
  }
  RidgeClassifier clf;
  clf.fit(x, y);
  EXPECT_GT(clf.chosen_lambda(), 1e-3);
}

TEST(Ridge, RejectsBadLabels) {
  Matrix x(2, 2, 1.0);
  RidgeClassifier clf;
  EXPECT_THROW(clf.fit(x, std::vector<double>{1.0, 0.5}),
               std::invalid_argument);
}

TEST(Ridge, RejectsShapeMismatch) {
  Matrix x(2, 2, 1.0);
  RidgeClassifier clf;
  EXPECT_THROW(clf.fit(x, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Ridge, RejectsEmptyInput) {
  RidgeClassifier clf;
  EXPECT_THROW(clf.fit(Matrix(), std::vector<double>{}),
               std::invalid_argument);
}

TEST(Ridge, RejectsEmptyLambdaGrid) {
  Matrix x(2, 2, 1.0);
  RidgeOptions opt;
  opt.lambdas = {};
  RidgeClassifier clf;
  EXPECT_THROW(clf.fit(x, std::vector<double>{1.0, -1.0}, opt),
               std::invalid_argument);
}

TEST(Ridge, RejectsNonPositiveLambda) {
  Matrix x = Matrix::from_rows({{1.0, 0.0}, {0.0, 1.0}});
  RidgeOptions opt;
  opt.lambdas = {-1.0};
  RidgeClassifier clf;
  EXPECT_THROW(clf.fit(x, std::vector<double>{1.0, -1.0}, opt),
               std::invalid_argument);
}

TEST(Ridge, UntrainedThrowsOnUse) {
  const RidgeClassifier clf;
  EXPECT_FALSE(clf.trained());
  EXPECT_THROW(clf.decision(Vector{1.0}), std::logic_error);
}

TEST(Ridge, FeatureSizeMismatchThrows) {
  util::Rng rng(6);
  Matrix x;
  std::vector<double> y;
  make_separable(10, 4, 2.0, rng, x, y);
  RidgeClassifier clf;
  clf.fit(x, y);
  EXPECT_THROW(clf.decision(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Ridge, NoInterceptOption) {
  util::Rng rng(7);
  Matrix x;
  std::vector<double> y;
  make_separable(20, 10, 3.0, rng, x, y);
  RidgeOptions opt;
  opt.fit_intercept = false;
  RidgeClassifier clf;
  clf.fit(x, y, opt);
  EXPECT_EQ(clf.bias(), 0.0);
}

class RidgeLambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(RidgeLambdaSweep, LargerLambdaShrinksWeights) {
  util::Rng rng(8);
  Matrix x;
  std::vector<double> y;
  make_separable(30, 12, 2.0, rng, x, y);
  RidgeOptions small, large;
  small.lambdas = {GetParam()};
  large.lambdas = {GetParam() * 100.0};
  RidgeClassifier a, b;
  a.fit(x, y, small);
  b.fit(x, y, large);
  EXPECT_GT(norm2(a.weights()), norm2(b.weights()));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RidgeLambdaSweep,
                         ::testing::Values(1e-2, 1e-1, 1.0, 10.0));

}  // namespace
}  // namespace p2auth::linalg
