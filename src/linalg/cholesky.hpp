// Dense Cholesky factorisation and SPD linear solves.
#pragma once

#include "linalg/matrix.hpp"

namespace p2auth::linalg {

// Cholesky factorisation A = L L^T of a symmetric positive-definite
// matrix.  Construction factorises immediately; a non-SPD input (within a
// small tolerance) throws std::domain_error.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& a);

  // Solves A x = b.
  Vector solve(std::span<const double> b) const;

  // Solves A X = B column-wise.
  Matrix solve(const Matrix& b) const;

  // diag(A^{-1}) without forming the inverse: entry j is the squared norm
  // of column j of L^{-1}, one forward substitution per column (about
  // n^3/6 multiply-adds, a twelfth of solve(identity)).
  Vector inverse_diagonal() const;

  // log(det A) = 2 * sum log(L_ii); useful for model-selection criteria.
  double log_determinant() const noexcept;

  const Matrix& factor() const noexcept { return l_; }

 private:
  Matrix l_;  // lower triangular
};

// Convenience: solves the SPD system A x = b.
Vector solve_spd(const Matrix& a, std::span<const double> b);

// Solves a general (small) square system via Gaussian elimination with
// partial pivoting.  Singular systems throw std::domain_error.  Used for
// Savitzky-Golay coefficient fits where the normal matrix is tiny.
Vector solve_general(Matrix a, Vector b);

}  // namespace p2auth::linalg
