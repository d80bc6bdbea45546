#include "backend/capability.hpp"

#include <atomic>

#if defined(__linux__) && defined(__arm__)
#include <sys/auxv.h>
#ifndef HWCAP_NEON
#define HWCAP_NEON (1 << 12)
#endif
#endif

namespace p2auth::backend {

namespace {

std::atomic<std::size_t> g_detect_count{0};

Capability detect() noexcept {
  g_detect_count.fetch_add(1, std::memory_order_relaxed);
  Capability caps;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports consults CPUID (and XGETBV for the AVX
  // family, so OS save-state support is included in the answer).
  caps.avx2 = __builtin_cpu_supports("avx2");
  caps.avx512 = __builtin_cpu_supports("avx512f");
  caps.fma = __builtin_cpu_supports("fma");
#elif defined(__aarch64__)
  // AdvSIMD is architecturally mandatory on AArch64.
  caps.neon = true;
  caps.fma = true;
#elif defined(__linux__) && defined(__arm__)
  caps.neon = (getauxval(AT_HWCAP) & HWCAP_NEON) != 0;
#endif
  return caps;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

std::optional<Isa> parse_isa(std::string_view name) noexcept {
  for (const Isa isa : kAllIsas) {
    if (name == isa_name(isa)) return isa;
  }
  return std::nullopt;
}

const Capability& capability() noexcept {
  // Magic static: initialisation is thread-safe and runs exactly once
  // even when many threads hit their first kernel dispatch together.
  static const Capability caps = detect();
  return caps;
}

bool supports(const Capability& caps, Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return caps.avx2;
    case Isa::kAvx512:
      return caps.avx512;
    case Isa::kNeon:
      return caps.neon;
  }
  return false;
}

namespace {

bool compiled_in(std::span<const Isa> compiled, Isa isa) {
  for (const Isa c : compiled) {
    if (c == isa) return true;
  }
  return false;
}

Isa best_available(const Capability& caps, std::span<const Isa> compiled) {
  // Widest vectors first; scalar is the unconditional floor.
  constexpr Isa kPreference[] = {Isa::kAvx512, Isa::kAvx2, Isa::kNeon};
  for (const Isa isa : kPreference) {
    if (compiled_in(compiled, isa) && supports(caps, isa)) return isa;
  }
  return Isa::kScalar;
}

}  // namespace

Resolution resolve_backend(const char* requested, const Capability& caps,
                           std::span<const Isa> compiled) {
  Resolution out;
  if (requested == nullptr || *requested == '\0') {
    out.isa = best_available(caps, compiled);
    return out;
  }
  out.requested = requested;
  const std::optional<Isa> isa = parse_isa(out.requested);
  if (!isa) {
    throw BackendError("P2AUTH_BACKEND: unknown backend '" + out.requested +
                       "' (expected scalar|avx2|avx512|neon)");
  }
  if (compiled_in(compiled, *isa) && supports(caps, *isa)) {
    out.isa = *isa;
    return out;
  }
  // Known ISA that this binary/host cannot run: degrade gracefully so a
  // fleet-wide config value does not brick the slower machines.  The
  // fell_back flag surfaces the downgrade to telemetry.
  out.isa = best_available(caps, compiled);
  out.fell_back = true;
  return out;
}

namespace detail {
std::size_t capability_detect_count() noexcept {
  return g_detect_count.load(std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace p2auth::backend
