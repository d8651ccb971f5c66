#include "jit/code_cache.h"

#include <utility>

#include "jit/code_generator.h"

namespace provabs {
namespace jit {

JitCodeCache::JitCodeCache(size_t byte_budget, size_t max_code_bytes)
    : byte_budget_(byte_budget), max_code_bytes_(max_code_bytes) {}

JitCodeCache& JitCodeCache::Default() {
  static JitCodeCache* cache = new JitCodeCache(kDefaultByteBudget);
  return *cache;
}

StatusOr<std::shared_ptr<const JitModule>> JitCodeCache::GetOrEmit(
    const CompiledPolynomialSet& compiled) {
  const uint64_t fingerprint = compiled.fingerprint();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.module;
  }
  auto failed = failed_.find(fingerprint);
  if (failed != failed_.end()) return failed->second;
  ++misses_;
  StatusOr<GeneratedCode> generated =
      GeneratePolynomialSetCode(compiled, max_code_bytes_);
  if (!generated.ok()) return RememberFailure(fingerprint, generated.status());
  StatusOr<std::unique_ptr<ExecArena>> arena =
      ExecArena::Create(generated->code.data(), generated->code.size());
  if (!arena.ok()) return RememberFailure(fingerprint, arena.status());
  auto module = std::make_shared<const JitModule>(
      fingerprint, std::move(*arena), std::move(generated->entry_offsets),
      generated->range_entry);
  used_bytes_ += module->mapped_bytes();
  lru_.push_front(fingerprint);
  entries_.emplace(fingerprint, Entry{module, lru_.begin()});
  EvictToBudget();
  return module;
}

Status JitCodeCache::RememberFailure(uint64_t fingerprint, Status status) {
  ++emit_failures_;
  if (failed_order_.size() == kRememberedFailures) {
    failed_.erase(failed_order_.front());
    failed_order_.pop_front();
  }
  failed_.emplace(fingerprint, status);
  failed_order_.push_back(fingerprint);
  return status;
}

bool JitCodeCache::EmitFailed(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_.count(fingerprint) != 0;
}

bool JitCodeCache::Invalidate(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  used_bytes_ -= it->second.module->mapped_bytes();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  ++invalidations_;
  return true;
}

void JitCodeCache::EvictToBudget() {
  while (used_bytes_ > byte_budget_ && entries_.size() > 1) {
    const uint64_t victim = lru_.back();
    auto it = entries_.find(victim);
    used_bytes_ -= it->second.module->mapped_bytes();
    lru_.pop_back();
    entries_.erase(it);
    ++evictions_;
  }
}

JitCodeCache::Stats JitCodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.emit_failures = emit_failures_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.resident_modules = entries_.size();
  s.resident_bytes = used_bytes_;
  s.byte_budget = byte_budget_;
  return s;
}

}  // namespace jit
}  // namespace provabs
