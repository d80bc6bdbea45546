// Lazily opened registry over a P2MDL001 registry image.
//
// MappedRegistry::open maps the file read-only and parses only the file
// header and the trailing name index — record bytes are untouched, so
// resident memory at open time is bounded by the index, not the store
// (100k users with full models open in milliseconds touching a few
// pages).  Lookups go through an open-addressed hash table built over
// the index; a hit decodes that one record (decode_user_record, CRC
// first) into an owning EnrolledUser, so each record is verified when
// it is looked up.
//
// On platforms without POSIX mmap the file is read into an owned buffer
// instead; the API and validation behaviour are identical, only the
// paging benefit is lost.  The eager registry loader indexes a buffer
// read from a stream the same way.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/enrollment.hpp"
#include "io/detail.hpp"

namespace p2auth::io {

// Read-only view of a whole file, mmap-backed where available.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Maps `path` read-only (falls back to reading it into a buffer on
  // non-POSIX hosts).  Throws util::SerializeError(kIoError) on any
  // filesystem failure.
  static MappedFile open(const std::string& path);
  // Takes ownership of bytes already in memory (the buffer mode).
  static MappedFile own(std::vector<std::uint8_t> bytes);

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  // True when the bytes are a real mmap (false in the buffer mode).
  bool is_mapped() const noexcept { return mapped_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> owned_;  // holds the bytes when !mapped_
};

class MappedRegistry {
 public:
  // Indexes a registry image.  Validates the header and the name index
  // (including its CRC) but no record bytes.  Throws
  // util::SerializeError.
  explicit MappedRegistry(MappedFile file);
  // Maps `path` and indexes it.
  static MappedRegistry open(const std::string& path);

  std::size_t size() const noexcept { return entries_.size(); }
  bool contains(std::string_view name) const noexcept;
  // All user names, in the file's (sorted) index order.  The views
  // borrow the mapping.
  std::vector<std::string_view> names() const;

  // Decodes one user's record into an owning EnrolledUser; std::nullopt
  // for unknown names.  Checks the record on each call — the first touch
  // of a record is what pages its bytes in.  Throws util::SerializeError
  // when the record is corrupt.
  std::optional<core::EnrolledUser> find(std::string_view name) const;

  bool is_mapped() const noexcept { return file_.is_mapped(); }

 private:
  // Returns the entry index for `name`, or npos.
  std::size_t lookup(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  MappedFile file_;
  std::vector<detail::RegistryEntry> entries_;  // names borrow file_
  // Open-addressed, linear-probe index over entries_: slot holds entry
  // index + 1 (0 = empty).  Sized to the next power of two >= 2N.
  std::vector<std::uint32_t> slots_;
  std::uint64_t slot_mask_ = 0;
};

}  // namespace p2auth::io
