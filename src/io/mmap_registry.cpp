#include "io/mmap_registry.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "io/binary.hpp"
#include "util/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define P2AUTH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define P2AUTH_HAVE_MMAP 0
#endif

namespace p2auth::io {

namespace {

using util::SerializeErrc;
using util::SerializeError;

[[noreturn]] void fail_io(const std::string& what) {
  throw SerializeError(SerializeErrc::kIoError, "P2MDL001: " + what);
}

}  // namespace

// ---- MappedFile -------------------------------------------------------

MappedFile::~MappedFile() {
#if P2AUTH_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      owned_(std::move(other.owned_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
#if P2AUTH_HAVE_MMAP
    if (mapped_ && data_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
    }
#endif
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    owned_ = std::move(other.owned_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile MappedFile::open(const std::string& path) {
#if P2AUTH_HAVE_MMAP
  MappedFile f;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail_io("cannot open " + path + ": " + std::strerror(errno));
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail_io("cannot stat " + path + ": " + std::strerror(err));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      fail_io("cannot mmap " + path + ": " + std::strerror(err));
    }
    f.data_ = static_cast<const std::uint8_t*>(p);
    f.mapped_ = true;
  }
  f.size_ = size;
  ::close(fd);  // the mapping outlives the descriptor
  return f;
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_io("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0) fail_io("cannot size " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end));
  if (!bytes.empty() &&
      !in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()))) {
    fail_io("read failed: " + path);
  }
  return own(std::move(bytes));
#endif
}

MappedFile MappedFile::own(std::vector<std::uint8_t> bytes) {
  MappedFile f;
  f.owned_ = std::move(bytes);
  f.data_ = f.owned_.data();
  f.size_ = f.owned_.size();
  return f;
}

// ---- MappedRegistry ---------------------------------------------------

MappedRegistry::MappedRegistry(MappedFile file)
    : file_(std::move(file)),
      entries_(detail::parse_registry_index(file_.bytes())) {
  // Next power of two >= 2N slots (minimum 2) keeps the load factor
  // at or below 0.5, so linear probes stay short.
  std::size_t slot_count = 2;
  while (slot_count < entries_.size() * 2) slot_count *= 2;
  slots_.assign(slot_count, 0);
  slot_mask_ = slot_count - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::uint64_t slot = entries_[i].hash & slot_mask_;
    while (slots_[static_cast<std::size_t>(slot)] != 0) {
      slot = (slot + 1) & slot_mask_;
    }
    slots_[static_cast<std::size_t>(slot)] = static_cast<std::uint32_t>(i + 1);
  }
}

MappedRegistry MappedRegistry::open(const std::string& path) {
  return MappedRegistry(MappedFile::open(path));
}

std::size_t MappedRegistry::lookup(std::string_view name) const noexcept {
  if (entries_.empty()) return npos;
  const std::uint64_t hash = fnv1a64(name);
  std::uint64_t slot = hash & slot_mask_;
  while (true) {
    const std::uint32_t v = slots_[static_cast<std::size_t>(slot)];
    if (v == 0) return npos;
    const detail::RegistryEntry& e = entries_[v - 1];
    if (e.hash == hash && e.name == name) return v - 1;
    slot = (slot + 1) & slot_mask_;
  }
}

bool MappedRegistry::contains(std::string_view name) const noexcept {
  return lookup(name) != npos;
}

std::vector<std::string_view> MappedRegistry::names() const {
  std::vector<std::string_view> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::optional<core::EnrolledUser> MappedRegistry::find(
    std::string_view name) const {
  const std::size_t i = lookup(name);
  if (i == npos) return std::nullopt;
  return decode_user_record(
      file_.bytes().subspan(static_cast<std::size_t>(entries_[i].offset),
                            static_cast<std::size_t>(entries_[i].len)));
}

}  // namespace p2auth::io
