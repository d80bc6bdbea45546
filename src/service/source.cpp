#include "service/source.hpp"

#include <utility>

namespace p2auth::service {

MappedRegistrySource::MappedRegistrySource(
    const std::vector<std::string>& paths) {
  stores_.reserve(paths.size());
  for (const std::string& path : paths) {
    stores_.push_back(io::MappedRegistry::open(path));
  }
}

std::optional<core::EnrolledUser> MappedRegistrySource::load(
    std::string_view name) {
  for (const io::MappedRegistry& store : stores_) {
    if (std::optional<core::EnrolledUser> user = store.find(name)) return user;
  }
  return std::nullopt;
}

std::size_t MappedRegistrySource::num_users() const {
  std::size_t n = 0;
  for (const io::MappedRegistry& store : stores_) n += store.size();
  return n;
}

void InMemorySource::add(std::string name, core::EnrolledUser user) {
  users_.insert_or_assign(std::move(name), std::move(user));
}

std::optional<core::EnrolledUser> InMemorySource::load(std::string_view name) {
  const auto it = users_.find(name);
  if (it == users_.end()) return std::nullopt;
  return it->second;  // deep copy, matching materialize semantics
}

}  // namespace p2auth::service
