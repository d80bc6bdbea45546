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

}  // namespace p2auth::backend
