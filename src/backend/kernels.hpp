// Internal declarations of the per-ISA kernel tables.  A getter is only
// *defined* when CMake adds the matching translation unit to the build
// (and passes the P2AUTH_BACKEND_HAS_* definition policy.cpp keys off),
// so policy.cpp references them behind the same guards.  Not installed
// API — include only from src/backend.
#pragma once

#include "backend/policy.hpp"

namespace p2auth::backend {

const KernelTable& scalar_kernel_table() noexcept;  // always compiled
const KernelTable& avx2_kernel_table() noexcept;    // x86 builds only
const KernelTable& avx512_kernel_table() noexcept;  // x86 builds only

// The scalar table's ppv_count, defined in kernels_scalar.cpp: the AVX2
// and AVX-512 tables fall back to it past 128 biases per combo.
void scalar_ppv_count(const PpvCombo& c, std::size_t* hist, double* conv,
                      double* out);

}  // namespace p2auth::backend
