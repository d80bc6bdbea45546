// Runtime CPU-capability detection for the SIMD kernel backends.
//
// The hot kernels (MiniRocket nine-tap convolution, fused PPV pooling,
// ridge dot/axpy) exist in several instruction-set variants compiled
// into separate translation units (see policy.hpp).  This header owns
// the *selection inputs*: what the host CPU supports (detected once via
// CPUID / architecture predicates and cached) and how an operator's
// `P2AUTH_BACKEND` override resolves against that.
//
// Resolution contract (pinned by tests/test_backend.cpp):
//   * an unknown backend name is a typed error (`BackendError`) — a
//     fleet-config typo must fail loudly, not silently run scalar;
//   * a known but unavailable ISA (not compiled in, or not supported by
//     this host) falls back gracefully to the best available backend,
//     with `Resolution::fell_back` recording the downgrade for
//     telemetry;
//   * detection runs exactly once per process (thread-safe magic
//     static), so concurrent first uses never race CPUID.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace p2auth::backend {

// Instruction-set architectures a kernel table can target.  kScalar is
// always compiled and always supported; it doubles as the portable
// fallback and the differential-testing reference.
enum class Isa {
  kScalar,
  kAvx2,
  kAvx512,
  kNeon,
};

inline constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                                   Isa::kNeon};

// Canonical lower-case name ("scalar", "avx2", "avx512", "neon"); the
// spelling accepted by P2AUTH_BACKEND and emitted in run reports.
const char* isa_name(Isa isa) noexcept;

// Inverse of isa_name; std::nullopt for anything else (no aliases).
std::optional<Isa> parse_isa(std::string_view name) noexcept;

// What the host CPU can execute.  `fma` is detected for telemetry and
// future kernels but no current backend emits fused multiply-adds: FMA
// contraction would break the bit-identity contract with the scalar
// reference.
struct Capability {
  bool avx2 = false;
  bool avx512 = false;  // AVX-512 Foundation
  bool fma = false;
  bool neon = false;
};

// Host capability, detected on first call and cached for the process
// lifetime (thread-safe; tests assert the detector runs exactly once).
const Capability& capability() noexcept;

// True when `caps` can execute kernels compiled for `isa` (kScalar is
// unconditionally true).
bool supports(const Capability& caps, Isa isa) noexcept;

// Typed configuration error: unknown backend name in an override.
class BackendError : public std::runtime_error {
 public:
  explicit BackendError(const std::string& what) : std::runtime_error(what) {}
};

// Outcome of resolving a backend request against host capability and the
// set of ISAs compiled into this binary.
struct Resolution {
  Isa isa = Isa::kScalar;  // the backend that will run
  bool fell_back = false;  // requested ISA was unavailable; downgraded
  std::string requested;   // verbatim request ("" when auto-selected)
};

// Resolves an override string (the value of P2AUTH_BACKEND, a
// --backend= flag, ...) against `caps` and `compiled`:
//   * nullptr / "" requests auto-selection: the best ISA that is both
//     compiled in and supported (preference avx512 > avx2 > neon >
//     scalar);
//   * a known name that is compiled and supported wins outright;
//   * a known name that is unavailable falls back to auto-selection and
//     sets `fell_back`;
//   * an unknown name throws BackendError.
// Pure function of its arguments so tests can exercise every branch with
// synthetic capabilities.
Resolution resolve_backend(const char* requested, const Capability& caps,
                           std::span<const Isa> compiled);

namespace detail {
// Number of times the CPUID/auxv probe actually ran (not the cache
// hits).  Exposed so tests can pin the detect-exactly-once contract,
// including under TSan.
std::size_t capability_detect_count() noexcept;
}  // namespace detail

}  // namespace p2auth::backend
