#ifndef PROVABS_COMMON_REGISTRY_H_
#define PROVABS_COMMON_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace provabs {

/// The one name -> implementation registry shape, shared by
/// CompressorRegistry (algo/compressor.h) and EvaluationBackendRegistry
/// (core/evaluation_backend.h). `T` advertises a capability record through
/// `const Info& info() const`, whose `name` is the registration key.
///
/// Duplicate names are rejected: silently replacing an implementation
/// another subsystem already resolved would change results under its
/// feet. Unknown names fail listing what is registered. Thread-safe;
/// registered entries live for the registry's lifetime.
template <class T, class Info>
class Registry {
 public:
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers `entry` under its info().name (kInvalidArgument for a null
  /// entry, an empty name, or a name already taken).
  Status Register(std::unique_ptr<T> entry) {
    if (entry == nullptr) {
      return Status::InvalidArgument(std::string("cannot register a null ") +
                                     noun_);
    }
    const std::string name = entry->info().name;
    if (name.empty()) {
      return Status::InvalidArgument(std::string(noun_) +
                                     " name must be non-empty");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!by_name_.emplace(name, std::move(entry)).second) {
      return Status::InvalidArgument(std::string(noun_) + " '" + name +
                                     "' is already registered");
    }
    return Status::OK();
  }

  /// nullptr when nothing of that name is registered.
  const T* Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second.get();
  }

  /// Find() with a useful failure: the error lists every registered name.
  StatusOr<const T*> Resolve(const std::string& name) const {
    const T* entry = Find(name);
    if (entry == nullptr) {
      return Status::InvalidArgument("unknown " + std::string(noun_) + " '" +
                                     name + "' (registered: " + NamesCsv() +
                                     ")");
    }
    return entry;
  }

  /// Registered names in sorted order.
  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto& [name, entry] : by_name_) names.push_back(name);
    return names;  // std::map iterates in sorted order.
  }

  /// Capability records in name-sorted order (the wire's listing payload).
  std::vector<Info> Infos() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Info> infos;
    for (const auto& [name, entry] : by_name_) infos.push_back(entry->info());
    return infos;
  }

  /// "a, b, c" — for error and usage text.
  std::string NamesCsv() const {
    std::string csv;
    for (const std::string& name : Names()) {
      csv += (csv.empty() ? "" : ", ") + name;
    }
    return csv;
  }

 protected:
  /// `noun` names one entry in error messages ("algorithm").
  explicit Registry(const char* noun) : noun_(noun) {}
  ~Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<T>> by_name_;  // guarded by mutex_

 private:
  const char* noun_;
};

}  // namespace provabs

#endif  // PROVABS_COMMON_REGISTRY_H_
