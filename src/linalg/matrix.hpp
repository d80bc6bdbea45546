// Dense row-major matrix and basic vector algebra.
//
// The library deliberately avoids external linear-algebra dependencies:
// the solvers the P2Auth pipeline needs (ridge regression over a Gram
// matrix, banded smoothness-priors detrending, small least-squares fits for
// Savitzky-Golay coefficients) are all small and are implemented here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace p2auth::linalg {

using Vector = std::vector<double>;

// Dense row-major matrix of doubles.  Invariant: data_.size() == rows*cols.
class Matrix {
 public:
  Matrix() = default;
  // Zero-initialised rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);
  // Matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);

  static Matrix identity(std::size_t n);
  // Builds from nested initializer-style data; all rows must be equal
  // length (throws std::invalid_argument otherwise).
  static Matrix from_rows(const std::vector<Vector>& rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  // Contiguous view of row r.
  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transposed() const;

  // this * other.  Dimension mismatch throws std::invalid_argument.
  Matrix multiply(const Matrix& other) const;
  // this * v.
  Vector multiply(std::span<const double> v) const;
  // this^T * v (without materialising the transpose).
  Vector multiply_transposed(std::span<const double> v) const;

  // Gram matrix this * this^T (rows x rows), exploiting symmetry.
  // Blocks of the upper triangle are built on the shared thread pool by
  // the backend's register-tiled gram_block kernel; every entry carries
  // the bits of dot(row(i), row(j)) for any thread count and backend.
  Matrix gram_rows() const;
  // this^T * this (cols x cols), exploiting symmetry.
  Matrix gram_cols() const;

  // In-place: this += alpha * I.  Requires square.
  void add_scaled_identity(double alpha);

  double frobenius_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- free vector helpers ----

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a) noexcept;
// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
Vector add(std::span<const double> a, std::span<const double> b);
Vector subtract(std::span<const double> a, std::span<const double> b);
Vector scale(std::span<const double> a, double alpha);

}  // namespace p2auth::linalg
