// Unit tests for the runtime CPU-capability dispatch layer: the
// P2AUTH_BACKEND override semantics (unknown name -> typed error,
// unavailable ISA -> graceful fallback), auto-selection preference,
// the detect-exactly-once contract (exercised concurrently so a TSan
// build doubles as the race check), and the force_isa() test override.

#include "backend/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

namespace p2auth::backend {
namespace {

// Restores normal dispatch no matter how a test exits.
class ForcedBackend {
 public:
  explicit ForcedBackend(Isa isa) { force_isa(isa); }
  ~ForcedBackend() { force_isa(std::nullopt); }
};

TEST(BackendCapability, IsaNameParseRoundTrip) {
  for (const Isa isa : kAllIsas) {
    const std::optional<Isa> parsed = parse_isa(isa_name(isa));
    ASSERT_TRUE(parsed.has_value()) << isa_name(isa);
    EXPECT_EQ(*parsed, isa);
  }
}

TEST(BackendCapability, ParseRejectsUnknownAndAliases) {
  EXPECT_FALSE(parse_isa("").has_value());
  EXPECT_FALSE(parse_isa("AVX2").has_value());  // canonical names only
  EXPECT_FALSE(parse_isa("avx").has_value());
  EXPECT_FALSE(parse_isa("avx512vl").has_value());
  EXPECT_FALSE(parse_isa("wombat").has_value());
  EXPECT_FALSE(parse_isa("sse2").has_value());  // backend removed
}

TEST(BackendCapability, DetectionRunsExactlyOnceUnderConcurrentFirstUse) {
  // The magic static may have been initialised earlier in the process;
  // the contract is that hammering it from many threads never re-runs
  // the probe.  Run under TSan in CI, this is also the race check.
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < 100; ++i) {
        (void)capability();
        (void)kernels();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(detail::capability_detect_count(), 1u);
}

TEST(BackendResolve, UnknownNameThrowsTypedError) {
  const Capability caps = capability();
  EXPECT_THROW((void)resolve_backend("wombat", caps, compiled_isas()),
               BackendError);
  try {
    (void)resolve_backend("see2", caps, compiled_isas());
    FAIL() << "expected BackendError";
  } catch (const BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown backend 'see2'"), std::string::npos) << what;
    EXPECT_NE(what.find("scalar|avx2|avx512|neon"), std::string::npos)
        << what;
  }
  // The removed SSE2 backend is an unknown name, not a fallback.
  EXPECT_THROW((void)resolve_backend("sse2", caps, compiled_isas()),
               BackendError);
}

TEST(BackendResolve, AutoSelectionPrefersWidestSupportedVectors) {
  Capability caps;  // nothing supported -> scalar floor
  const Isa all[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon};
  EXPECT_EQ(resolve_backend(nullptr, caps, all).isa, Isa::kScalar);
  caps.avx2 = true;
  EXPECT_EQ(resolve_backend("", caps, all).isa, Isa::kAvx2);
  caps.avx512 = true;
  EXPECT_EQ(resolve_backend(nullptr, caps, all).isa, Isa::kAvx512);
  // Auto-selection never reports a fallback and records no request.
  const Resolution r = resolve_backend(nullptr, caps, all);
  EXPECT_FALSE(r.fell_back);
  EXPECT_TRUE(r.requested.empty());
}

TEST(BackendResolve, KnownButUnavailableFallsBackGracefully) {
  Capability caps;
  caps.avx2 = true;
  const Isa compiled[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};
  // Host cannot run avx512: a fleet-wide P2AUTH_BACKEND=avx512 must
  // degrade to the best this machine has, flagged for telemetry.
  const Resolution r = resolve_backend("avx512", caps, compiled);
  EXPECT_EQ(r.isa, Isa::kAvx2);
  EXPECT_TRUE(r.fell_back);
  EXPECT_EQ(r.requested, "avx512");
  // ISA supported by the CPU but not compiled in falls back too.
  Capability wide;
  wide.avx2 = wide.avx512 = true;
  const Isa scalar_only[] = {Isa::kScalar};
  const Resolution r2 = resolve_backend("avx512", wide, scalar_only);
  EXPECT_EQ(r2.isa, Isa::kScalar);
  EXPECT_TRUE(r2.fell_back);
}

TEST(BackendResolve, AvailableRequestWinsOutright) {
  Capability caps;
  caps.avx2 = caps.avx512 = true;
  const Isa compiled[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};
  // An explicit downgrade request is honoured, not "upgraded".
  const Resolution r = resolve_backend("avx2", caps, compiled);
  EXPECT_EQ(r.isa, Isa::kAvx2);
  EXPECT_FALSE(r.fell_back);
  EXPECT_EQ(r.requested, "avx2");
  const Resolution s = resolve_backend("scalar", caps, compiled);
  EXPECT_EQ(s.isa, Isa::kScalar);
  EXPECT_FALSE(s.fell_back);
}

TEST(BackendPolicy, AvailableIsasAlwaysIncludeScalar) {
  const std::vector<Isa> avail = available_isas();
  EXPECT_NE(std::find(avail.begin(), avail.end(), Isa::kScalar), avail.end());
  for (const Isa isa : avail) {
    EXPECT_TRUE(supports(capability(), isa)) << isa_name(isa);
    // Every available ISA must resolve to a table stamped with itself.
    const KernelTable& table = kernels_for(isa);
    EXPECT_EQ(table.isa, isa);
    EXPECT_STREQ(table.name, isa_name(isa));
  }
}

TEST(BackendPolicy, KernelsForUnavailableIsaThrows) {
  const std::vector<Isa> avail = available_isas();
  for (const Isa isa : kAllIsas) {
    if (std::find(avail.begin(), avail.end(), isa) != avail.end()) continue;
    EXPECT_THROW((void)kernels_for(isa), BackendError) << isa_name(isa);
    EXPECT_THROW(force_isa(isa), BackendError) << isa_name(isa);
  }
}

TEST(BackendPolicy, ForceIsaOverridesDispatchAndClears) {
  const Isa ambient = kernels().isa;
  for (const Isa isa : available_isas()) {
    ForcedBackend forced(isa);
    EXPECT_EQ(kernels().isa, isa);
    EXPECT_EQ(active_isa(), isa);
  }
  // ForcedBackend's destructor cleared the override each iteration.
  EXPECT_EQ(kernels().isa, ambient);
}

TEST(BackendPolicy, ForceFailureLeavesDispatchUntouched) {
  const std::vector<Isa> avail = available_isas();
  ForcedBackend forced(Isa::kScalar);
  for (const Isa isa : kAllIsas) {
    if (std::find(avail.begin(), avail.end(), isa) != avail.end()) continue;
    EXPECT_THROW(force_isa(isa), BackendError);
    // A rejected force must not clear or change the active override.
    EXPECT_EQ(kernels().isa, Isa::kScalar);
  }
}

TEST(BackendPolicy, EnvResolutionMatchesActiveDispatch) {
  // With no force in effect, dispatch follows the environment
  // resolution (auto-selected here; CI's forced-scalar leg sets
  // P2AUTH_BACKEND=scalar and this same assertion covers it).
  const Resolution& r = env_resolution();
  EXPECT_EQ(kernels().isa, r.isa);
  if (const char* env = std::getenv("P2AUTH_BACKEND")) {
    EXPECT_EQ(r.requested, env);
  } else {
    EXPECT_TRUE(r.requested.empty());
    EXPECT_FALSE(r.fell_back);
  }
}

}  // namespace
}  // namespace p2auth::backend
