// P2MDL001 — the binary model-store format.
//
// The text format in core/serialization.hpp parses every byte through
// strtod-style tokenizing, which caps a registry load at ~100k tokens/ms
// and forces the whole store resident.  P2MDL001 replaces it with a
// deterministic little-endian layout designed so a record can be mapped
// with mmap and *used in place*: every f64 array (MiniRocket biases,
// ridge weights) starts at a file offset that is a multiple of 8, so a
// span can point straight into the mapping — no parse, no copy.
//
// File layout (all integers little-endian, all offsets 8-byte aligned):
//
//   FileHeader (40 bytes)
//     char magic[8]  = "P2MDL001"
//     u32  version   = 1
//     u32  kind      (1 = user registry, 2 = single enrolled user)
//     u64  record_count
//     u64  index_offset   (registry: offset of the name index; else 0)
//     u64  reserved  = 0
//
//   Record x record_count  (one enrolled user each)
//     RecordHeader (16 bytes): u32 'RUSR', u32 0, u64 record_len
//     Section*  — each: u32 tag, u32 0, u64 payload_len, payload,
//                 zero padding to the next 8-byte boundary
//       'USRH'  user_id, privacy flag, model-presence bitmap, stats, pin
//       per present model (full, boost, key0..key9 order):
//         'WMDH'  f64 threshold, wrapper options (3 x u64), u64 n_channels
//         'MRKT' x n_channels   options, dilations (i32), biases (f64)
//         'RIDG'  f64 bias, f64 lambda, u64 n, f64 weights[n]
//     Trailer (16 bytes): u32 'CRC1', u32 crc32, u64 0
//       crc32 = CRC-32 (IEEE 802.3) over [record start, trailer start)
//
//   NameIndex (registry files only; written after the last record)
//     SectionHeader: u32 'NIDX', u32 0, u64 payload_len
//     payload: u64 entry_count,
//              { u64 name_hash (FNV-1a 64), u64 record_offset,
//                u64 record_len, u64 name_offset, u64 name_len } x count,
//              name blob, zero padding to 8
//     Trailer (16 bytes): u32 'CRC1', u32 crc32 over the index
//       section header + payload, u64 0
//
// The name index is the only part a MappedRegistry::open touches besides
// the 40-byte header, so opening a 100k-user store faults in a few MB of
// index pages while the record arena stays cold until a user is actually
// looked up — that is what bounds resident memory.  Per-record CRC
// trailers are verified lazily (on materialize / verify), following the
// tag+CRC trailer design of HyperStream's HSER1 format.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace p2auth::io {

inline constexpr char kMagic[8] = {'P', '2', 'M', 'D', 'L', '0', '0', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;

inline constexpr std::size_t kFileHeaderBytes = 40;
inline constexpr std::size_t kSectionHeaderBytes = 16;
inline constexpr std::size_t kRecordTrailerBytes = 16;

enum class FileKind : std::uint32_t {
  kUserRegistry = 1,
  kEnrolledUser = 2,
};

// Section / record tags: four ASCII bytes packed little-endian.
constexpr std::uint32_t tag4(char a, char b, char c, char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

inline constexpr std::uint32_t kTagUserRecord = tag4('R', 'U', 'S', 'R');
inline constexpr std::uint32_t kTagUserHeader = tag4('U', 'S', 'R', 'H');
inline constexpr std::uint32_t kTagWaveformModel = tag4('W', 'M', 'D', 'H');
inline constexpr std::uint32_t kTagMiniRocket = tag4('M', 'R', 'K', 'T');
inline constexpr std::uint32_t kTagRidge = tag4('R', 'I', 'D', 'G');
inline constexpr std::uint32_t kTagNameIndex = tag4('N', 'I', 'D', 'X');
inline constexpr std::uint32_t kTagCrcTrailer = tag4('C', 'R', 'C', '1');

// Structural sanity caps.  Far above anything fit() can produce, low
// enough that a corrupted count cannot overflow size arithmetic or
// demand absurd allocations before the shape check fires.
inline constexpr std::uint64_t kMaxChannels = 64;
inline constexpr std::uint64_t kMaxDilations = 4096;
inline constexpr std::uint64_t kMaxBiasesPerCombo = 65536;
inline constexpr std::uint64_t kMaxNameBytes = 4096;
inline constexpr std::uint64_t kMaxPinBytes = 64;

// Rounds up to the next multiple of 8 (the format's alignment quantum).
constexpr std::uint64_t align8(std::uint64_t n) noexcept {
  return (n + 7u) & ~std::uint64_t{7};
}

// FNV-1a 64-bit — the name-index hash.  Stored in the file, so it is
// part of the format and must never change.
std::uint64_t fnv1a64(std::string_view s) noexcept;

}  // namespace p2auth::io
