#include "backend/policy.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "backend/kernels.hpp"

namespace p2auth::backend {

namespace {

// ISAs whose kernel TUs CMake actually added to this build.  kScalar is
// unconditional; the rest mirror the P2AUTH_BACKEND_HAS_* definitions.
constexpr Isa kCompiled[] = {
    Isa::kScalar,
#if defined(P2AUTH_BACKEND_HAS_AVX2)
    Isa::kAvx2,
#endif
#if defined(P2AUTH_BACKEND_HAS_AVX512)
    Isa::kAvx512,
#endif
#if defined(P2AUTH_BACKEND_HAS_NEON)
    Isa::kNeon,
#endif
};

const KernelTable* table_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return &scalar_kernel_table();
#if defined(P2AUTH_BACKEND_HAS_AVX2)
    case Isa::kAvx2:
      return &avx2_kernel_table();
#endif
#if defined(P2AUTH_BACKEND_HAS_AVX512)
    case Isa::kAvx512:
      return &avx512_kernel_table();
#endif
#if defined(P2AUTH_BACKEND_HAS_NEON)
    case Isa::kNeon:
      return &neon_kernel_table();
#endif
    default:
      return nullptr;
  }
}

// Test/ops override; null means "follow the environment resolution".
std::atomic<const KernelTable*> g_forced{nullptr};

}  // namespace

std::span<const Isa> compiled_isas() noexcept { return kCompiled; }

const Resolution& env_resolution() {
  // Magic static: the environment is read and resolved exactly once; a
  // BackendError (unknown P2AUTH_BACKEND value) propagates to the first
  // caller and the initialisation retries on the next call.
  static const Resolution resolution = resolve_backend(
      std::getenv("P2AUTH_BACKEND"), capability(), compiled_isas());
  return resolution;
}

const KernelTable& kernels() {
  const KernelTable* forced = g_forced.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  return *table_for(env_resolution().isa);
}

Isa active_isa() { return kernels().isa; }

const KernelTable& kernels_for(Isa isa) {
  const KernelTable* table = table_for(isa);
  if (table == nullptr) {
    throw BackendError(std::string("backend '") + isa_name(isa) +
                       "' is not compiled into this binary");
  }
  if (!supports(capability(), isa)) {
    throw BackendError(std::string("backend '") + isa_name(isa) +
                       "' is not supported by this CPU");
  }
  return *table;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa : kCompiled) {
    if (supports(capability(), isa)) out.push_back(isa);
  }
  return out;
}

void force_isa(std::optional<Isa> isa) {
  if (!isa) {
    g_forced.store(nullptr, std::memory_order_release);
    return;
  }
  // kernels_for validates compiled-in + host support and throws the
  // typed error; a force must never silently select a weaker table.
  g_forced.store(&kernels_for(*isa), std::memory_order_release);
}

}  // namespace p2auth::backend
