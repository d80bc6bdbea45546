#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace p2auth::linalg {

Cholesky::Cholesky(const Matrix& a) : l_(a.rows(), a.cols()) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky: matrix not square");
  }
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    // Negated so a NaN pivot (a non-finite input) is rejected too.
    if (!(diag > 0.0)) {
      throw std::domain_error("Cholesky: matrix not positive definite");
    }
    l_(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / l_(j, j);
    }
  }
}

Vector Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: size");
  Vector y(n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
    y[i] = s / l_(i, i);
  }
  // Back substitution L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  if (b.rows() != l_.rows()) {
    throw std::invalid_argument("Cholesky::solve(Matrix): size");
  }
  Matrix x(b.rows(), b.cols());
  Vector col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const Vector xc = solve(col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = xc[r];
  }
  return x;
}

Vector Cholesky::inverse_diagonal() const {
  const std::size_t n = l_.rows();
  Vector out(n);
  Vector z(n);
  for (std::size_t j = 0; j < n; ++j) {
    // Column j of L^{-1}: solve L z = e_j, where z_i = 0 for i < j.
    z[j] = 1.0 / l_(j, j);
    double sum = z[j] * z[j];
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = 0.0;
      for (std::size_t k = j; k < i; ++k) s -= l_(i, k) * z[k];
      z[i] = s / l_(i, i);
      sum += z[i] * z[i];
    }
    out[j] = sum;
  }
  return out;
}

double Cholesky::log_determinant() const noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Vector solve_spd(const Matrix& a, std::span<const double> b) {
  return Cholesky(a).solve(b);
}

Vector solve_general(Matrix a, Vector b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_general: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-14) {
      throw std::domain_error("solve_general: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= a(ii, c) * x[c];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

}  // namespace p2auth::linalg
