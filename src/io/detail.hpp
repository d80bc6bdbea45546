// Internal helpers shared by the binary codec and MappedRegistry.
// Not part of the public io API surface.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "io/format.hpp"

namespace p2auth::io::detail {

// One name-index entry: where a user's record lives in the file.
struct RegistryEntry {
  std::uint64_t hash = 0;    // fnv1a64(name), as stored in the index
  std::uint64_t offset = 0;  // record offset from the file start
  std::uint64_t len = 0;     // record length in bytes
  std::string_view name;     // borrows the index name blob
};

// Validates the file header + name index of a registry image (header
// fields, index CRC, per-entry bounds, duplicate names) and returns its
// entries in file order.  Entry names borrow `file` — it must stay alive.
// Touches only the header and index bytes, never the records, so an
// mmap-backed caller keeps the record arena cold.  Throws
// util::SerializeError.
std::vector<RegistryEntry> parse_registry_index(
    std::span<const std::uint8_t> file);

}  // namespace p2auth::io::detail
