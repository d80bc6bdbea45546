#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "backend/policy.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  if (rows.empty()) return {};
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols) {
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    }
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const auto brow = other.row(k);
      auto orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Vector Matrix::multiply(std::span<const double> v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::multiply(vec): dimension mismatch");
  }
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = dot(row(i), v);
  return out;
}

Vector Matrix::multiply_transposed(std::span<const double> v) const {
  if (v.size() != rows_) {
    throw std::invalid_argument(
        "Matrix::multiply_transposed: dimension mismatch");
  }
  Vector out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    axpy(v[i], row(i), out);
  }
  return out;
}

Matrix Matrix::gram_rows() const {
  Matrix g(rows_, rows_);
  // One pool task per kGramBlock-square block (bi, bj), bi <= bj, of the
  // upper triangle: it writes g(i, j) and the mirror g(j, i) for its
  // i <= j, slots no other task touches.  The block kernel gives every
  // entry the bits of dot(row(i), row(j)), so g is bit-identical to the
  // per-pair loop for any thread count.
  constexpr std::size_t kBlock = backend::kGramBlock;
  const std::size_t blocks = (rows_ + kBlock - 1) / kBlock;
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    for (std::size_t bj = bi; bj < blocks; ++bj) tasks.emplace_back(bi, bj);
  }
  const backend::KernelTable& kt = backend::kernels();
  try {
    util::parallel_for(tasks.size(), /*chunk=*/1, [&](std::size_t t) {
      const std::size_t i0 = tasks[t].first * kBlock;
      const std::size_t j0 = tasks[t].second * kBlock;
      const std::size_t ni = std::min(kBlock, rows_ - i0);
      const std::size_t nj = std::min(kBlock, rows_ - j0);
      double out[kBlock * kBlock];
      kt.gram_block(data_.data(), cols_, cols_, i0, ni, j0, nj, out);
      for (std::size_t r = 0; r < ni; ++r) {
        for (std::size_t c = 0; c < nj; ++c) {
          if (i0 + r > j0 + c) continue;
          g(i0 + r, j0 + c) = out[r * nj + c];
          g(j0 + c, i0 + r) = out[r * nj + c];
        }
      }
    });
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  return g;
}

Matrix Matrix::gram_cols() const {
  Matrix g(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto x = row(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      for (std::size_t j = i; j < cols_; ++j) g(i, j) += xi * x[j];
    }
  }
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

void Matrix::add_scaled_identity(double alpha) {
  if (rows_ != cols_) {
    throw std::invalid_argument("add_scaled_identity: not square");
  }
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

double Matrix::frobenius_norm() const noexcept {
  double s = 0.0;
  for (const double v : data_) s += v * v;
  return std::sqrt(s);
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: size mismatch");
  }
  // Width-4 striped accumulation order (see backend/policy.hpp): every
  // backend, scalar included, produces the same bits.
  return backend::kernels().dot(a.data(), b.data(), a.size());
}

double norm2(std::span<const double> a) noexcept {
  double s = 0.0;
  for (const double v : a) s += v * v;
  return std::sqrt(s);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("axpy: size mismatch");
  }
  backend::kernels().axpy(alpha, x.data(), y.data(), x.size());
}

Vector add(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector subtract(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("subtract: size mismatch");
  }
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(std::span<const double> a, double alpha) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = alpha * a[i];
  return out;
}

}  // namespace p2auth::linalg
