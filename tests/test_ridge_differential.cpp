// Differential tests for the linear-algebra hot kernels across SIMD
// backends: dot and axpy must be bit-identical to the scalar backend on
// every ISA this host can run (the width-4 stripe contract pins the
// accumulation order), and everything built on them — GEMV, the Gram
// matrix (built on the thread pool), the full RidgeClassifier fit across
// its lambda grid — must therefore produce identical bits whichever
// backend dispatch picks.

#include "linalg/ridge.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "backend/policy.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace p2auth {
namespace {

class ForcedBackend {
 public:
  explicit ForcedBackend(backend::Isa isa) { backend::force_isa(isa); }
  ~ForcedBackend() { backend::force_isa(std::nullopt); }
};

// Representation equality: NaN-safe (a quiet NaN produced by the same
// per-element operation order has the same payload bits on every
// backend).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<double> random_vector(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

// dot: every backend, every length 0..67 (covers empty input, the
// 4-stripe main loop, and all tail residues), plus non-finite values.
TEST(RidgeDifferential, DotBitIdenticalAcrossBackendsAndTails) {
  const backend::KernelTable& scalar =
      backend::kernels_for(backend::Isa::kScalar);
  util::Rng rng(0xd07ULL, 0x66ULL);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> a = random_vector(n, rng);
    std::vector<double> b = random_vector(n, rng);
    if (n >= 11) {
      a[3] = std::numeric_limits<double>::quiet_NaN();
      a[7] = std::numeric_limits<double>::infinity();
      b[10] = -std::numeric_limits<double>::infinity();
      a[n - 1] = -0.0;
    }
    const double want = scalar.dot(a.data(), b.data(), n);
    for (const backend::Isa isa : backend::available_isas()) {
      const double got = backend::kernels_for(isa).dot(a.data(), b.data(), n);
      EXPECT_TRUE(same_bits(got, want))
          << backend::isa_name(isa) << " n=" << n << " got=" << got
          << " want=" << want;
    }
  }
}

// axpy: same matrix of backends and tail lengths, compared element-wise
// on the updated vector's bits.
TEST(RidgeDifferential, AxpyBitIdenticalAcrossBackendsAndTails) {
  util::Rng rng(0xa2b9ULL, 0x77ULL);
  const double alphas[] = {2.5, -0.0, std::numeric_limits<double>::infinity(),
                           1e-300};
  for (std::size_t n = 0; n <= 67; n += (n < 12 ? 1 : 7)) {
    const std::vector<double> x = random_vector(n, rng);
    const std::vector<double> y0 = random_vector(n, rng);
    for (const double alpha : alphas) {
      std::vector<double> want = y0;
      backend::kernels_for(backend::Isa::kScalar)
          .axpy(alpha, x.data(), want.data(), n);
      for (const backend::Isa isa : backend::available_isas()) {
        std::vector<double> got = y0;
        backend::kernels_for(isa).axpy(alpha, x.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(got[i], want[i]))
              << backend::isa_name(isa) << " n=" << n << " alpha=" << alpha
              << " i=" << i;
        }
      }
    }
  }
}

// GEMV and the implicit Gram products inside the dual ridge fit run
// through linalg::dot; forcing each backend must not move a single bit
// of Matrix::multiply / multiply_transposed.
TEST(RidgeDifferential, GemvBitIdenticalAcrossBackends) {
  util::Rng rng(0x9e37ULL, 0x88ULL);
  linalg::Matrix m(13, 37);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rng.normal();
  }
  const std::vector<double> v = random_vector(m.cols(), rng);
  const std::vector<double> u = random_vector(m.rows(), rng);
  std::optional<linalg::Vector> want_mv, want_mtu;
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const linalg::Vector mv = m.multiply(v);
    const linalg::Vector mtu = m.multiply_transposed(u);
    if (!want_mv) {
      want_mv = mv;
      want_mtu = mtu;
      continue;
    }
    ASSERT_EQ(mv.size(), want_mv->size());
    for (std::size_t i = 0; i < mv.size(); ++i) {
      ASSERT_TRUE(same_bits(mv[i], (*want_mv)[i]))
          << backend::isa_name(isa) << " multiply i=" << i;
    }
    for (std::size_t i = 0; i < mtu.size(); ++i) {
      ASSERT_TRUE(same_bits(mtu[i], (*want_mtu)[i]))
          << backend::isa_name(isa) << " multiply_transposed i=" << i;
    }
  }
}

// Matrix::gram_rows builds its rows on the thread pool; every entry must
// still carry the bits of the serial per-pair linalg::dot loop, whichever
// backend dispatch picks.  Odd sizes cover the dot kernels' stripe tails
// and give the pool uneven rows to claim.
TEST(RidgeDifferential, GramRowsOnPoolMatchesPerPairDotAcrossBackends) {
  util::Rng rng(0x6a11ULL, 0xaaULL);
  linalg::Matrix m(37, 103);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rng.normal();
  }
  m(5, 17) = -0.0;
  linalg::Matrix want(m.rows(), m.rows());
  {
    ForcedBackend forced(backend::Isa::kScalar);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = i; j < m.rows(); ++j) {
        const double v = linalg::dot(m.row(i), m.row(j));
        want(i, j) = v;
        want(j, i) = v;
      }
    }
  }
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const linalg::Matrix got = m.gram_rows();
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < want.rows(); ++i) {
      for (std::size_t j = 0; j < want.cols(); ++j) {
        ASSERT_TRUE(same_bits(got(i, j), want(i, j)))
            << backend::isa_name(isa) << " g(" << i << ", " << j << ")";
      }
    }
  }
}

// The register-tiled Gram kernel at every edge its blocking has: row
// counts below, at and past a register tile and a kGramBlock block (109
// is the full-waveform model's sample count), and column counts at every
// stripe tail (n mod 4), at and around the kernel's 512-double feature
// slices, and the full model's 11760.  Entries include -0.0, +/-inf and
// NaN.  The only NaN in play is the one the host produces for inf - inf,
// so every NaN result carries the same bits whichever operand an add or
// multiply takes it from.  Each backend's gram_rows, pooled and inline,
// must equal that backend's per-pair linalg::dot loop bit for bit.
TEST(RidgeDifferential, GramKernelMatchesPerPairDotAtTileEdges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  volatile double inf = kInf;
  const double nan = inf - inf;
  const std::size_t row_counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 109};
  const std::size_t col_counts[] = {1, 3, 4, 5, 1023, 1024, 1025, 11760};
  util::Rng rng(0x96a3ULL, 0xbbULL);
  for (const std::size_t rows : row_counts) {
    for (const std::size_t cols : col_counts) {
      linalg::Matrix m(rows, cols);
      for (double& v : m.data()) v = rng.normal();
      // Specials in the first stripe block, the last (tail) column and
      // the middle, on a few rows so most entries stay finite.
      m(0, 0) = -0.0;
      m(rows - 1, cols - 1) = -0.0;
      if (rows >= 3 && cols >= 3) {
        m(1, cols / 2) = kInf;
        m(2, cols / 2) = -kInf;
        m(rows - 1, 1) = nan;
        m(rows / 2, cols - 2) = -kInf;
      }
      const std::string shape =
          std::to_string(rows) + "x" + std::to_string(cols);
      for (const backend::Isa isa : backend::available_isas()) {
        ForcedBackend forced(isa);
        linalg::Matrix want(rows, rows);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = i; j < rows; ++j) {
            want(i, j) = linalg::dot(m.row(i), m.row(j));
            want(j, i) = want(i, j);
          }
        }
        linalg::Matrix inline_gram;
        util::parallel_for(1, 1,
                           [&](std::size_t) { inline_gram = m.gram_rows(); });
        const linalg::Matrix pooled = m.gram_rows();
        const linalg::Matrix* const results[] = {&pooled, &inline_gram};
        for (const linalg::Matrix* got : results) {
          ASSERT_EQ(got->rows(), rows);
          ASSERT_EQ(got->cols(), rows);
          for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < rows; ++j) {
              ASSERT_TRUE(same_bits((*got)(i, j), want(i, j)))
                  << backend::isa_name(isa) << " " << shape
                  << (got == &pooled ? " pooled" : " inline") << " g(" << i
                  << ", " << j << ") = " << (*got)(i, j) << " want "
                  << want(i, j);
            }
          }
        }
      }
    }
  }
}

// End-to-end: the full RidgeClassifier fit (Gram build, one Cholesky
// solve per grid point, LOO sweep across the whole lambda grid, weight
// recovery) is bit-identical under every backend — weights, bias, chosen
// lambda and the LOO decision values all match the scalar-backend fit
// exactly.
TEST(RidgeDifferential, ClassifierFitBitIdenticalAcrossLambdaGrid) {
  constexpr std::size_t kSamples = 24, kFeatures = 300;
  util::Rng rng(0x51d9eULL, 0x99ULL);
  linalg::Matrix x(kSamples, kFeatures);
  std::vector<double> y(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    y[i] = i % 3 == 0 ? 1.0 : -1.0;
    for (std::size_t j = 0; j < kFeatures; ++j) {
      x(i, j) = rng.normal() + (y[i] > 0 ? 0.25 : 0.0);
    }
  }
  linalg::RidgeClassifier want;
  {
    ForcedBackend forced(backend::Isa::kScalar);
    want.fit(x, y);
  }
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    linalg::RidgeClassifier got;
    got.fit(x, y);
    const std::string name = backend::isa_name(isa);
    EXPECT_TRUE(same_bits(got.chosen_lambda(), want.chosen_lambda())) << name;
    EXPECT_TRUE(same_bits(got.bias(), want.bias())) << name;
    EXPECT_TRUE(same_bits(got.loo_error(), want.loo_error())) << name;
    ASSERT_EQ(got.weights().size(), want.weights().size());
    for (std::size_t j = 0; j < want.weights().size(); ++j) {
      ASSERT_TRUE(same_bits(got.weights()[j], want.weights()[j]))
          << name << " weight " << j;
    }
    ASSERT_EQ(got.loo_decisions().size(), want.loo_decisions().size());
    for (std::size_t i = 0; i < want.loo_decisions().size(); ++i) {
      ASSERT_TRUE(same_bits(got.loo_decisions()[i], want.loo_decisions()[i]))
          << name << " loo " << i;
    }
  }
}

}  // namespace
}  // namespace p2auth
