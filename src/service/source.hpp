// Model sources: where the service materializes enrolled users from.
//
// The production source is one or more P2MDL001 mmap stores
// (io::MappedRegistry): open touches only header + name index, and a
// cache miss decodes one record into an owning EnrolledUser.  The
// in-memory source backs tests and benches that enroll users on the fly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/enrollment.hpp"
#include "io/mmap_registry.hpp"

namespace p2auth::service {

// Abstract store of enrolled users keyed by device-unique name.  `load`
// must be safe to call concurrently from service workers.
class ModelSource {
 public:
  virtual ~ModelSource() = default;

  // Materializes one user; std::nullopt for unknown names.  Throws
  // util::SerializeError when the backing record exists but is corrupt.
  virtual std::optional<core::EnrolledUser> load(std::string_view name) = 0;

  // Total users reachable through this source (diagnostics).
  virtual std::size_t num_users() const = 0;
};

// One or more mmap-backed P2MDL001 registry stores searched in order.
// All methods on an opened io::MappedRegistry are const reads of the
// mapping, so concurrent `load` calls need no locking.
class MappedRegistrySource : public ModelSource {
 public:
  // Opens every store eagerly; throws util::SerializeError on any
  // invalid file.
  explicit MappedRegistrySource(const std::vector<std::string>& paths);

  std::optional<core::EnrolledUser> load(std::string_view name) override;
  std::size_t num_users() const override;

 private:
  std::vector<io::MappedRegistry> stores_;
};

// In-memory source for tests and benches; `load` deep-copies, matching
// the materialize semantics of the mmap source.
class InMemorySource : public ModelSource {
 public:
  void add(std::string name, core::EnrolledUser user);

  std::optional<core::EnrolledUser> load(std::string_view name) override;
  std::size_t num_users() const override { return users_.size(); }

 private:
  std::map<std::string, core::EnrolledUser, std::less<>> users_;
};

}  // namespace p2auth::service
