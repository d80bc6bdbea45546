#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace p2auth::linalg {
namespace {

// Builds a random SPD matrix A = B B^T + n*I.
Matrix random_spd(std::size_t n, util::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  }
  Matrix a = b.gram_rows();
  a.add_scaled_identity(static_cast<double>(n));
  return a;
}

TEST(Cholesky, FactorReconstructsMatrix) {
  util::Rng rng(1);
  const Matrix a = random_spd(5, rng);
  const Cholesky chol(a);
  const Matrix l = chol.factor();
  const Matrix reconstructed = l.multiply(l.transposed());
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-9);
    }
  }
}

TEST(Cholesky, SolveKnownSystem) {
  const Matrix a = Matrix::from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const Vector x = Cholesky(a).solve(Vector{8.0, 7.0});
  // Solution of [4 2; 2 3] x = [8; 7] is [1.25; 1.5].
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, NotSquareThrows) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, NotPositiveDefiniteThrows) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});  // eig -1
  EXPECT_THROW(Cholesky{a}, std::domain_error);
}

// A NaN pivot compares false against 0.0 both ways; the factorization
// must reject it rather than hand back a factor full of NaN.
TEST(Cholesky, NanPivotThrowsDomainError) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = Matrix::from_rows({{nan, 0.0}, {0.0, 1.0}});
  EXPECT_THROW(Cholesky{a}, std::domain_error);
  const Matrix b = Matrix::from_rows({{1.0, nan}, {nan, 1.0}});
  EXPECT_THROW(Cholesky{b}, std::domain_error);
}

TEST(Cholesky, LogDeterminant) {
  const Matrix a = Matrix::from_rows({{2.0, 0.0}, {0.0, 8.0}});
  EXPECT_NEAR(Cholesky(a).log_determinant(), std::log(16.0), 1e-12);
}

TEST(Cholesky, MatrixSolve) {
  util::Rng rng(2);
  const Matrix a = random_spd(4, rng);
  const Matrix b = Matrix::identity(4);
  const Matrix inv = Cholesky(a).solve(b);
  const Matrix prod = a.multiply(inv);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Cholesky, SolveSizeMismatchThrows) {
  util::Rng rng(3);
  const Cholesky chol(random_spd(3, rng));
  EXPECT_THROW(chol.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

// The ridge LOO residuals divide by diag((K + lambda I)^{-1}); the
// column-norm shortcut must agree with the explicit inverse.
TEST(Cholesky, InverseDiagonalMatchesExplicitInverse) {
  for (const std::size_t n : {1u, 2u, 7u, 40u, 109u}) {
    util::Rng rng(200 + n);
    const Cholesky chol(random_spd(n, rng));
    const Matrix inv = chol.solve(Matrix::identity(n));
    const Vector diag = chol.inverse_diagonal();
    ASSERT_EQ(diag.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(diag[i], inv(i, i), 1e-12 * std::abs(inv(i, i)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(SolveGeneral, KnownSystemWithPivoting) {
  // First pivot is zero: requires row exchange.
  Matrix a = Matrix::from_rows({{0.0, 1.0}, {2.0, 0.0}});
  const Vector x = solve_general(a, Vector{3.0, 4.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveGeneral, SingularThrows) {
  Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_THROW(solve_general(a, Vector{1.0, 2.0}), std::domain_error);
}

TEST(SolveGeneral, DimensionMismatchThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(solve_general(a, Vector{1.0}), std::invalid_argument);
}

class SpdSolveSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpdSolveSweep, ResidualIsTiny) {
  const std::size_t n = GetParam();
  util::Rng rng(100 + n);
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (double& v : b) v = rng.normal();
  const Vector x = solve_spd(a, b);
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdSolveSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u, 25u, 60u));

}  // namespace
}  // namespace p2auth::linalg
