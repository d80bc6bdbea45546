// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
// 0xFFFFFFFF), table-driven slice-by-8: eight bytes per step through
// eight 256-entry tables, independent of host byte order.  The one checksum behind the P2MDL001
// record and index trailers and the audit-log frames.  Its value is
// stored in those files, so it must never change.
#pragma once

#include <cstdint>
#include <span>

namespace p2auth::util {

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace p2auth::util
