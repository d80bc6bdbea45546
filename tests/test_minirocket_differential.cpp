// Differential golden tests: the allocation-free MiniRocket fast path
// against the `ml::reference` scalar oracle.  The contract is exact
// bit-identity (==, not near-equality): the fast path reproduces the
// reference's per-element floating-point operation order, so any
// divergence — a reassociated sum, a flipped edge guard, an off-by-one
// shift partition — shows up as a hard failure here.
//
// The binary also carries the allocation-counting hook that pins the
// tentpole's "steady-state transform performs zero heap allocations"
// claim: global operator new/delete are overridden to tally allocations
// while a flag is armed around warmed transform calls.

#include "ml/minirocket.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/policy.hpp"
#include "minirocket_reference.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook.  Counting is off by default (gtest and the
// standard library allocate freely); AllocationGuard arms it around the
// region under test.  All replaceable global forms are routed through
// one counting allocator so nothing slips past the tally.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::aligned_alloc(align, ((size + align - 1) / align) * align);
  if (!p) throw std::bad_alloc();
  return p;
}

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() {
    g_count_allocations.store(false, std::memory_order_relaxed);
  }
  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace p2auth::ml {
namespace {

// Pins kernel dispatch to one SIMD backend for a scope; the reference
// oracle (ml::reference) never touches the dispatch layer, so forcing a
// backend exercises exactly the fast path's kernels.
class ForcedBackend {
 public:
  explicit ForcedBackend(backend::Isa isa) { backend::force_isa(isa); }
  ~ForcedBackend() { backend::force_isa(std::nullopt); }
};

Series random_series(std::size_t n, util::Rng& rng) {
  Series x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

MiniRocket fitted_model(std::size_t length, Pooling pooling,
                        std::uint64_t seed,
                        std::size_t num_features = 1008) {
  MiniRocketOptions options;
  options.num_features = num_features;
  options.pooling = pooling;
  MiniRocket model(options);
  util::Rng rng(seed, 0xd1fULL);
  std::vector<Series> train;
  for (std::size_t i = 0; i < 6; ++i) {
    train.push_back(random_series(length, rng));
  }
  model.fit(train, rng);
  return model;
}

// Exact (bit-level) equality; EXPECT_EQ on doubles is exact already, but
// spell the contract out and report the first diverging index.
void expect_bit_identical(std::span<const double> fast,
                          std::span<const double> ref,
                          const std::string& context) {
  ASSERT_EQ(fast.size(), ref.size()) << context;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (fast[i] != ref[i]) {
      // Double-format round trip so divergences print with full precision.
      std::ostringstream msg;
      msg.precision(17);
      msg << context << ": feature " << i << " fast=" << fast[i]
          << " ref=" << ref[i];
      FAIL() << msg.str();
    }
  }
}

std::vector<std::uint64_t> bit_patterns(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

// Bit patterns with every NaN folded into one: a max-pooling feature is
// NaN when its convolution is, and which NaN (sign and payload) depends
// on the operand order the compiler picks for a commutative add, which
// C++ leaves open.  Every other value keeps its exact bits, -0.0
// included.
std::vector<std::uint64_t> bits_nan_folded(std::span<const double> values) {
  std::vector<std::uint64_t> out = bit_patterns(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) out[i] = 0x7ff8000000000000ULL;
  }
  return out;
}

// The headline differential sweep: randomized series through models of
// odd, even, tiny and non-power-of-two lengths (9 is the minimum legal
// length; 90/91 straddle an even/odd boundary; 100/250 engage 4-5
// dilation levels; together the lengths cover every n mod 8, so every
// partial last vector block of the PPV kernels; 600 is the production
// full-waveform length, whose dilation-64 taps reach the end of the
// zero padding), both poolings, fresh series per case — and the whole
// matrix repeated for EVERY SIMD backend this host can run, with
// dispatch pinned per pass.  Each model gets a fresh scratch, sized
// exactly for it, so under a sanitizer any load outside the padded
// series faults.  Case count is asserted >= 1000 per backend so the
// bit-exactness claim stays pinned to a concrete sample size.
TEST(MiniRocketDifferential, EveryBackendBitIdenticalOnThousandRandomCases) {
  const std::size_t lengths[] = {9, 32, 45, 90, 91, 94, 100, 127, 250, 600};
  const Pooling poolings[] = {Pooling::kPpv, Pooling::kMax};
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string backend_name = backend::isa_name(isa);
    util::Rng rng(0xd1ffe7e57ULL, 0x90ULL);
    std::size_t cases = 0;
    for (const std::size_t length : lengths) {
      for (const Pooling pooling : poolings) {
        const MiniRocket model =
            fitted_model(length, pooling, 0xc0ffee00ULL + length);
        // Model must exercise every dilation the length admits.
        for (const int d : model.dilations()) {
          ASSERT_LT(8 * d, static_cast<int>(length));
        }
        TransformScratch scratch;
        linalg::Vector fast(model.num_features(), 0.0);
        for (std::size_t c = 0; c < 90; ++c) {
          const Series x = random_series(length, rng);
          model.transform_into(x, fast, scratch);
          const linalg::Vector ref = reference::transform(model, x);
          expect_bit_identical(
              fast, ref,
              "backend=" + backend_name + " len=" + std::to_string(length) +
                  " pooling=" + std::to_string(static_cast<int>(pooling)) +
                  " case=" + std::to_string(c));
          ++cases;
        }
      }
    }
    EXPECT_GE(cases, 1000u) << backend_name;
  }
}

// transform_batch must agree with the reference's serial per-series loop
// bit-for-bit regardless of thread count (tiles write disjoint feature
// slots; no accumulation crosses a tile boundary).  Runs at 1 and 8
// threads — the 8-thread run under TSan in CI doubles as the contention
// check on the shared per-thread scratch.  Length 127 leaves a partial
// last vector block on every backend.
TEST(MiniRocketDifferential, BatchMatchesReferenceAcrossThreadCounts) {
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string backend_name = backend::isa_name(isa);
    for (const std::size_t length : {std::size_t{91}, std::size_t{127}}) {
      for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
        const MiniRocket model = fitted_model(length, pooling, 0xba7c4ULL);
        util::Rng rng(0xba7c4da7aULL, 0x11ULL);
        std::vector<Series> batch;
        for (std::size_t i = 0; i < 24; ++i) {
          batch.push_back(random_series(length, rng));
        }
        const linalg::Matrix ref = reference::transform_batch(model, batch);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          const linalg::Matrix fast = model.transform_batch(batch, threads);
          ASSERT_EQ(fast.rows(), ref.rows());
          ASSERT_EQ(fast.cols(), ref.cols());
          for (std::size_t r = 0; r < ref.rows(); ++r) {
            expect_bit_identical(
                fast.row(r), ref.row(r),
                "backend=" + backend_name + " len=" +
                    std::to_string(length) + " threads=" +
                    std::to_string(threads) + " row=" + std::to_string(r));
          }
        }
      }
    }
  }
}

// Models that arrive through the model store (the deployment path:
// from_parts adopts the stored parts) must transform identically to the
// freshly fitted instance through both engines.
TEST(MiniRocketDifferential, ReloadedModelStaysBitIdentical) {
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string backend_name = backend::isa_name(isa);
    const MiniRocket model = fitted_model(90, Pooling::kPpv, 0x5e71a1ULL);
    const MiniRocket reloaded = MiniRocket::from_parts(
        model.options(), model.input_length(), model.dilations(),
        model.biases_per_combo(),
        std::vector<double>(model.biases().begin(), model.biases().end()));
    util::Rng rng(0x5e71a1d0ULL, 0x22ULL);
    for (std::size_t c = 0; c < 25; ++c) {
      const Series x = random_series(90, rng);
      const linalg::Vector a = model.transform(x);
      const linalg::Vector b = reloaded.transform(x);
      const linalg::Vector r = reference::transform(reloaded, x);
      expect_bit_identical(a, b, "backend=" + backend_name +
                                     " fit-vs-reload case " +
                                     std::to_string(c));
      expect_bit_identical(b, r, "backend=" + backend_name +
                                     " reload-vs-ref case " +
                                     std::to_string(c));
    }
  }
}

// Pathological inputs must flow through both paths identically too: the
// max-pooling fold and PPV comparisons have defined (if odd) NaN/inf
// semantics, and the fast path must replicate them rather than "fix"
// them.
TEST(MiniRocketDifferential, NonFiniteInputsAgreeWithReference) {
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
      const MiniRocket model = fitted_model(90, pooling, 0xb4dULL);
      util::Rng rng(0xb4df00dULL, 0x33ULL);
      Series x = random_series(90, rng);
      x[7] = std::numeric_limits<double>::quiet_NaN();
      x[40] = std::numeric_limits<double>::infinity();
      x[41] = -std::numeric_limits<double>::infinity();
      // Edge-straddling non-finites: the first and last receptive
      // fields are exactly where a backend's masked/guarded edge code
      // diverges from the interior loop.
      x[0] = std::numeric_limits<double>::quiet_NaN();
      x[89] = -std::numeric_limits<double>::infinity();
      const linalg::Vector fast = model.transform(x);
      const linalg::Vector ref = reference::transform(model, x);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t i = 0; i < fast.size(); ++i) {
        // NaN != NaN, so compare representations.
        const bool same =
            (fast[i] == ref[i]) || (std::isnan(fast[i]) && std::isnan(ref[i]));
        ASSERT_TRUE(same) << backend::isa_name(isa) << " feature " << i;
      }
    }
  }
}

// Every width of the exceedance-counting pass.  At length 90 (four
// dilations, 336 combos) a budget of 336 * b features gives exactly b
// biases per combo, so b = 1..17 covers every AVX-512 pass width (1-7
// alone, 8 as one full group, 9-17 as one or two full groups plus a
// remainder), every AVX2 width (1-5, 6, and 7-17 across groups) and
// every scalar width (1-3, 4, and 5-17 across groups).  b = 119 is the
// most biases per combo the default 9996-feature budget yields (one
// dilation, series of 9-16 samples); b = 129 goes past 128, which no
// other test reaches.
// Integer-valued training and probe series make conv outputs tie with
// the fitted biases, so the strict `>` is exercised; the probes also
// carry NaN, +/-inf and -0.0.  Integer-valued fits produce biases of
// exactly 0.0, and the all-(-0.0) probe and the probe with zero runs at
// both ends make the reference convolution -0.0 where the padded one is
// +0.0 (an out-of-range tap adds +0.0 instead of being skipped): the
// counts must not see the sign.
TEST(MiniRocketDifferential, EveryCountingWidthBitIdenticalWithSpecials) {
  constexpr std::size_t kLength = 90;
  constexpr std::size_t kCombos = 336;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto integer_series = [](util::Rng& rng) {
    Series x(kLength);
    for (double& v : x) v = std::round(2.0 * rng.normal());
    return x;
  };
  std::vector<std::size_t> widths;
  for (std::size_t bpc = 1; bpc <= 17; ++bpc) widths.push_back(bpc);
  widths.push_back(119);
  widths.push_back(129);
  for (const std::size_t bpc : widths) {
    MiniRocketOptions options;
    options.num_features = kCombos * bpc;
    MiniRocket model(options);
    util::Rng rng(0xc0a7ULL, bpc);
    std::vector<Series> train;
    for (std::size_t i = 0; i < 6; ++i) train.push_back(integer_series(rng));
    model.fit(train, rng);
    ASSERT_EQ(model.biases_per_combo(), bpc);

    std::vector<Series> probes;
    probes.push_back(integer_series(rng));
    probes.push_back(random_series(kLength, rng));
    Series zeros = integer_series(rng);
    for (std::size_t i = 0; i < kLength; i += 3) zeros[i] = -0.0;
    probes.push_back(zeros);
    Series specials = random_series(kLength, rng);
    specials[0] = -kInf;
    specials[31] = kNaN;
    specials[50] = kInf;
    specials[51] = -0.0;
    specials[89] = kInf;
    probes.push_back(specials);
    probes.push_back(Series(kLength, -0.0));
    Series zero_ends = integer_series(rng);
    for (std::size_t i = 0; i < 40; ++i) {
      zero_ends[i] = (i % 2 == 0) ? -0.0 : 0.0;
      zero_ends[kLength - 1 - i] = -0.0;
    }
    probes.push_back(zero_ends);

    for (const backend::Isa isa : backend::available_isas()) {
      ForcedBackend forced(isa);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        const linalg::Vector fast = model.transform(probes[p]);
        const linalg::Vector ref = reference::transform(model, probes[p]);
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(fast[i]),
                    std::bit_cast<std::uint64_t>(ref[i]))
              << backend::isa_name(isa) << " bpc " << bpc << " probe " << p
              << " feature " << i << ": " << fast[i] << " vs " << ref[i];
        }
      }
    }
  }
}

// The float32 contract's edge cases, seeded, on every available ISA and
// at every length 9-24 (each n mod 16, so every tail width of the 8- and
// 16-lane passes) plus longer ones up to the 600-sample full waveform.
// Models fit on integer-valued series, whose convolutions tie with the
// biases drawn from them; the probes are:
//   * the training series themselves, so an example meets its own
//     biases exactly, as fit saw them;
//   * integer-valued and Gaussian series;
//   * runs of +0.0 and -0.0, at both ends and inside;
//   * NaN and +-inf samples;
//   * finite doubles whose 3·x (2e38) or nine-tap sum (5e37) overflows
//     float, and doubles beyond float's range (1e39, DBL_MAX);
//   * float subnormals (1e-40), double subnormals that round to a signed
//     float zero, and values at FLT_MIN.
// A second model per length takes its biases from a probe's own oracle
// convolution: exact output values, the doubles just below and above
// one (each rounds back onto it, so a double compare and a float
// compare differ), and signed zeros.
TEST(MiniRocketDifferential, AdversarialFloatInputsBitIdentical) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::size_t> lengths;
  for (std::size_t n = 9; n <= 24; ++n) lengths.push_back(n);
  for (const std::size_t n : {31, 33, 47, 64, 90, 127, 129, 255, 300, 600}) {
    lengths.push_back(n);
  }
  util::Rng rng(0xad7e55a1ULL, 0x66ULL);
  auto integer_series = [&](std::size_t n) {
    Series x(n);
    for (double& v : x) v = std::round(2.0 * rng.normal());
    return x;
  };
  auto sprinkle = [&](Series x, std::initializer_list<double> values) {
    for (const double v : values) {
      x[rng.uniform_int(static_cast<std::uint32_t>(x.size()))] = v;
    }
    return x;
  };
  std::size_t cases = 0;
  for (const std::size_t n : lengths) {
    std::vector<Series> train;
    for (std::size_t i = 0; i < 4; ++i) train.push_back(integer_series(n));
    std::vector<Series> probes = train;
    probes.push_back(integer_series(n));
    probes.push_back(random_series(n, rng));
    Series zeros = integer_series(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < n / 3 || i >= n - n / 3 || i % 5 == 0) {
        zeros[i] = (i % 3 == 0) ? 0.0 : -0.0;
      }
    }
    probes.push_back(zeros);
    probes.push_back(
        sprinkle(random_series(n, rng), {kNaN, kInf, -kInf, kNaN, -kInf}));
    probes.push_back(sprinkle(integer_series(n), {2e38, -2e38, 2e38}));
    Series sum_overflow = integer_series(n);
    for (std::size_t i = n / 4; i < n / 4 + std::min<std::size_t>(n / 2, 40);
         ++i) {
      sum_overflow[i] = (i % 7 == 3) ? -5e37 : 5e37;
    }
    probes.push_back(sum_overflow);
    probes.push_back(sprinkle(random_series(n, rng),
                              {1e39, -std::numeric_limits<double>::max()}));
    Series tiny = random_series(n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      const double scales[] = {1e-40, 4.9e-324, -4.9e-324,
                               std::numeric_limits<float>::min(), -3e-42};
      tiny[i] *= scales[i % 5];
      if (i % 5 == 1 || i % 5 == 2) tiny[i] = scales[i % 5];
    }
    probes.push_back(tiny);

    for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
      MiniRocketOptions options;
      options.num_features = 84 * 3 * 3;
      options.pooling = pooling;
      MiniRocket fitted(options);
      util::Rng fit_rng(0xad7eULL, n);
      fitted.fit(train, fit_rng);
      std::vector<MiniRocket> models = {fitted};
      if (pooling == Pooling::kPpv) {
        // Biases on a probe's own convolution values.
        const Series& source = probes[4];
        const auto& kernels = minirocket_kernels();
        const std::vector<int>& dilations = fitted.dilations();
        const std::size_t bpc = fitted.biases_per_combo();
        std::vector<double> biases(fitted.num_features());
        for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
          for (std::size_t di = 0; di < dilations.size(); ++di) {
            const Series conv =
                dilated_convolution(source, kernels[ki], dilations[di]);
            const std::size_t combo = ki * dilations.size() + di;
            for (std::size_t q = 0; q < bpc; ++q) {
              const double v = conv[(7 * q + ki + di) % n];
              double& b = biases[combo * bpc + q];
              switch ((ki + q) % 4) {
                case 0: b = v; break;
                case 1: b = std::nextafter(v, -kInf); break;
                case 2: b = (q % 2 == 0) ? 0.0 : -0.0; break;
                default: b = std::nextafter(v, kInf); break;
              }
            }
          }
        }
        models.push_back(MiniRocket::from_parts(options, n, dilations, bpc,
                                                std::move(biases)));
      }
      for (const MiniRocket& model : models) {
        for (const backend::Isa isa : backend::available_isas()) {
          ForcedBackend forced(isa);
          TransformScratch scratch;
          linalg::Vector fast(model.num_features(), 0.0);
          for (std::size_t p = 0; p < probes.size(); ++p) {
            model.transform_into(probes[p], fast, scratch);
            const linalg::Vector ref = reference::transform(model, probes[p]);
            ASSERT_EQ(bits_nan_folded(fast), bits_nan_folded(ref))
                << backend::isa_name(isa) << " len=" << n << " pooling="
                << static_cast<int>(pooling) << " probe=" << p;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 26u * 3u * 10u);
}

// Fit's bias quantiles come from a multi-rank selection instead of a
// full sort.  The oracle is the sort-based fit written out: each
// dilation's training example drawn in the same order from a copy of
// the generator, rounded into zero-padded float copies of x and 3·x, the
// active backend's nine-tap sum and the exact kernel_conv (whose NaN
// payloads the biases inherit), std::sort, and the same interpolation
// between neighbouring ranks in double, rounded to float once.
std::vector<double> sort_oracle_biases(const MiniRocket& model,
                                       const std::vector<Series>& train,
                                       util::Rng rng) {
  constexpr double kPhi = 0.6180339887498949;
  const auto& kernels = minirocket_kernels();
  const std::vector<int>& dilations = model.dilations();
  const std::size_t bpc = model.biases_per_combo();
  const std::size_t n = model.input_length();
  std::vector<const Series*> samples;
  for (std::size_t di = 0; di < dilations.size(); ++di) {
    samples.push_back(
        &train[rng.uniform_int(static_cast<std::uint32_t>(train.size()))]);
  }
  std::vector<double> biases(kernels.size() * dilations.size() * bpc);
  const auto pad =
      static_cast<std::size_t>(backend::ppv_padding(dilations.back()));
  std::vector<float> xf(n + 2 * pad, 0.0f), x3(n + 2 * pad, 0.0f);
  std::vector<float> sum9(n), sorted(n);
  const auto len = static_cast<long long>(n);
  for (std::size_t di = 0; di < dilations.size(); ++di) {
    for (std::size_t i = 0; i < n; ++i) {
      xf[pad + i] = static_cast<float>((*samples[di])[i]);
      x3[pad + i] = 3.0f * xf[pad + i];
    }
    backend::kernels().nine_tap_sum(xf.data() + pad, len, dilations[di],
                                    sum9.data());
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const std::array<int, 3>& k = kernels[ki];
      backend::kernel_conv(x3.data() + pad, len, sum9.data(), k[0], k[1],
                           k[2], dilations[di], sorted.data());
      std::sort(sorted.begin(), sorted.end());
      const std::size_t combo = ki * dilations.size() + di;
      for (std::size_t q = 0; q < bpc; ++q) {
        const double quantile =
            std::fmod(kPhi * static_cast<double>(q + 1), 1.0);
        const double rank = quantile * static_cast<double>(n - 1);
        const auto lo = static_cast<std::size_t>(std::floor(rank));
        const std::size_t hi = std::min(lo + 1, n - 1);
        const double frac = rank - static_cast<double>(lo);
        biases[combo * bpc + q] = static_cast<float>(
            static_cast<double>(sorted[lo]) * (1.0 - frac) +
            static_cast<double>(sorted[hi]) * frac);
      }
    }
  }
  return biases;
}

// Training series whose convolutions stress the selection: Gaussian
// values; integer values (ties everywhere); an all-zero channel, which
// is what channel gating turns a masked channel into (its convolution
// is +0.0 inside and -0.0 where every tap is out of range); zero runs at
// both ends mixing +0.0 and -0.0, so selected ranks land on zeros of
// both signs and the sort fallback runs; and NaN and +/-inf, which send
// the combos they reach to the fallback or through the selection with
// infinite values.  That last set (kSpecialsSet) leaves non-finite
// biases, so fit refuses it.
constexpr std::size_t kSpecialsSet = 4;

std::vector<std::vector<Series>> fit_stress_sets(std::size_t n,
                                                 util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto gaussian = [&] { return random_series(n, rng); };
  auto integer = [&] {
    Series x(n);
    for (double& v : x) v = std::round(2.0 * rng.normal());
    return x;
  };
  auto zero_ends = [&] {
    Series x = integer();
    for (std::size_t i = 0; i < (2 * n) / 5; ++i) {
      x[i] = (i % 2 == 0) ? -0.0 : 0.0;
      x[n - 1 - i] = (i % 3 == 0) ? 0.0 : -0.0;
    }
    return x;
  };
  auto specials = [&] {
    Series x = gaussian();
    x[n / 3] = kInf;
    x[n - 1] = -kInf;
    return x;
  };
  Series with_nan = gaussian();
  with_nan[n / 2] = std::numeric_limits<double>::quiet_NaN();
  return {
      {gaussian(), gaussian(), gaussian()},
      {integer(), integer(), integer()},
      {Series(n, 0.0), Series(n, 0.0)},
      {zero_ends(), zero_ends(), zero_ends()},
      {specials(), with_nan, specials()},
  };
}

std::size_t num_dilations_for(std::size_t length) {
  std::size_t count = 0;
  for (std::size_t d = 1; 8 * d < length; d *= 2) ++count;
  return std::max<std::size_t>(count, 1);
}

TEST(MiniRocketDifferential, FitBiasesMatchSortOracle) {
  const std::size_t lengths[] = {9, 10, 16, 17, 90, 600, 601};
  for (const std::size_t length : lengths) {
    util::Rng data_rng(0xf17ULL, length);
    const std::vector<std::vector<Series>> sets =
        fit_stress_sets(length, data_rng);
    // Every count 1-17 at the per-key length, a spread at the short
    // lengths, and the full model's 5 plus both extremes at 600-601.
    std::vector<std::size_t> counts = {1, 2, 5, 9, 17};
    if (length == 90) {
      counts.clear();
      for (std::size_t b = 1; b <= 17; ++b) counts.push_back(b);
    } else if (length >= 600) {
      counts = {1, 5, 17};
    }
    const std::size_t combos = 84 * num_dilations_for(length);
    for (const std::size_t bpc : counts) {
      MiniRocketOptions options;
      options.num_features = combos * bpc;
      for (std::size_t s = 0; s < sets.size(); ++s) {
        const util::Rng seed_rng(0x5e1ec7ULL + bpc, s);
        for (const backend::Isa isa : backend::available_isas()) {
          ForcedBackend forced(isa);
          MiniRocket model(options);
          util::Rng rng = seed_rng;
          if (s == kSpecialsSet) {
            EXPECT_THROW(model.fit(sets[s], rng), std::invalid_argument)
                << backend::isa_name(isa) << " len=" << length
                << " bpc=" << bpc;
            EXPECT_FALSE(model.fitted());
            continue;
          }
          model.fit(sets[s], rng);
          ASSERT_EQ(model.biases_per_combo(), bpc);
          ASSERT_EQ(bit_patterns(model.biases()),
                    bit_patterns(sort_oracle_biases(model, sets[s], seed_rng)))
              << backend::isa_name(isa) << " len=" << length
              << " bpc=" << bpc << " set=" << s;
        }
      }
    }
  }
}

// The multi-channel fit on the same inputs, one channel per stress set
// fit accepts: every (channel, dilation) tile on the pool must give the
// inline fit's bits, and each channel the sort oracle's.  Adding the
// specials channel makes the whole fit throw.
TEST(MiniRocketDifferential, MultiChannelFitMatchesSortOracle) {
  for (const std::size_t length : {std::size_t{90}, std::size_t{600}}) {
    util::Rng data_rng(0xf18ULL, length);
    const std::vector<std::vector<Series>> sets =
        fit_stress_sets(length, data_rng);
    std::vector<std::vector<Series>> train(2);
    for (std::size_t i = 0; i < train.size(); ++i) {
      for (std::size_t s = 0; s < kSpecialsSet; ++s) {
        train[i].push_back(sets[s][i]);
      }
    }
    std::vector<std::vector<Series>> with_specials = train;
    for (std::size_t i = 0; i < with_specials.size(); ++i) {
      with_specials[i].push_back(sets[kSpecialsSet][i]);
    }
    MiniRocketOptions options;
    options.num_features = 9996;
    for (const backend::Isa isa : backend::available_isas()) {
      ForcedBackend forced(isa);
      MultiChannelMiniRocket pooled(options), serial(options);
      util::Rng pooled_rng(0x3c4aULL, length), serial_rng(0x3c4aULL, length);
      util::Rng oracle_rng = pooled_rng;
      pooled.fit(train, pooled_rng);
      util::parallel_for(1, 1,
                         [&](std::size_t) { serial.fit(train, serial_rng); });
      ASSERT_EQ(pooled.num_channels(), kSpecialsSet);
      for (std::size_t c = 0; c < kSpecialsSet; ++c) {
        std::vector<Series> channel_train;
        for (const auto& sample : train) channel_train.push_back(sample[c]);
        const util::Rng channel_rng = oracle_rng.fork(0xABCD1234ULL + c);
        const std::string where = std::string(backend::isa_name(isa)) +
                                  " len=" + std::to_string(length) +
                                  " channel=" + std::to_string(c);
        EXPECT_EQ(bit_patterns(pooled.channel(c).biases()),
                  bit_patterns(serial.channel(c).biases()))
            << where;
        EXPECT_EQ(bit_patterns(pooled.channel(c).biases()),
                  bit_patterns(sort_oracle_biases(pooled.channel(c),
                                                  channel_train, channel_rng)))
            << where;
      }
      MultiChannelMiniRocket refused(options);
      util::Rng refused_rng(0x3c4aULL, length);
      EXPECT_THROW(refused.fit(with_specials, refused_rng),
                   std::invalid_argument)
          << backend::isa_name(isa) << " len=" << length;
      EXPECT_FALSE(refused.fitted());
    }
  }
}

// The zero-allocation claim: once the thread scratch and output buffer
// are warm, transform_into performs no heap allocation at all.
TEST(MiniRocketDifferential, WarmTransformIntoDoesNotAllocate) {
  for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
    const MiniRocket model = fitted_model(100, pooling, 0xa110cULL);
    util::Rng rng(0xa110ca7eULL, 0x44ULL);
    const Series x = random_series(100, rng);
    linalg::Vector out(model.num_features(), 0.0);
    TransformScratch scratch;
    model.transform_into(x, out, scratch);  // warm-up: buffers grow here
    const linalg::Vector warm_result = out;
    {
      const AllocationGuard guard;
      for (int repeat = 0; repeat < 10; ++repeat) {
        model.transform_into(x, out, scratch);
      }
      EXPECT_EQ(guard.count(), 0u)
          << "steady-state transform_into allocated";
    }
    expect_bit_identical(out, warm_result, "warm repeat");
  }
}

// Same claim at the model-decision level the authenticator actually
// exercises: a warmed WaveformModel-style loop (transform_into + reused
// feature vector) through the thread scratch.
TEST(MiniRocketDifferential, ThreadScratchStaysWarmAcrossCalls) {
  const MiniRocket model = fitted_model(90, Pooling::kPpv, 0x7ea5cULL);
  util::Rng rng(0x7ea5c0deULL, 0x55ULL);
  const Series x = random_series(90, rng);
  linalg::Vector out(model.num_features(), 0.0);
  TransformScratch& scratch = thread_transform_scratch();
  model.transform_into(x, out, scratch);  // warm the shared scratch
  const AllocationGuard guard;
  model.transform_into(x, out, scratch);
  model.transform_into(x, out, scratch);
  EXPECT_EQ(guard.count(), 0u);
}

}  // namespace
}  // namespace p2auth::ml
