#ifndef PROVABS_JIT_CODE_CACHE_H_
#define PROVABS_JIT_CODE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"
#include "jit/exec_arena.h"

namespace provabs {
namespace jit {

/// Executable code emitted for one compiled snapshot: the W^X arena plus
/// the per-polynomial entry offsets. Immutable and thread-safe after
/// construction; callers hold it by shared_ptr so cache eviction can never
/// unmap code an in-flight batch is executing.
class JitModule {
 public:
  JitModule(uint64_t fingerprint, std::unique_ptr<ExecArena> arena,
            std::vector<size_t> entry_offsets, size_t range_entry)
      : fingerprint_(fingerprint),
        arena_(std::move(arena)),
        entry_offsets_(std::move(entry_offsets)),
        range_entry_(range_entry) {}

  /// Fingerprint of the CompiledPolynomialSet this code was emitted from —
  /// the same identity DenseValuation carries, so code validity and
  /// valuation validity are invalidated by exactly the same event (an
  /// Add/recompile produces a new fingerprint; stale code simply never
  /// matches again and ages out of the LRU).
  uint64_t fingerprint() const { return fingerprint_; }

  size_t poly_count() const { return entry_offsets_.size(); }

  /// Bytes of emitted instructions.
  size_t code_bytes() const { return arena_->code_bytes(); }

  /// Page-rounded resident footprint — what the cache budget charges.
  size_t mapped_bytes() const { return arena_->mapped_bytes(); }

  /// Calls polynomial p's generated function on a dense slot array. The
  /// caller is responsible for fingerprint validation (the backend's
  /// EvaluateBatch wrapper already performed it for the whole batch).
  double Eval(size_t p, const double* slots) const {
    using EvalFn = double (*)(const double*);
    return reinterpret_cast<EvalFn>(reinterpret_cast<uintptr_t>(
        arena_->base() + entry_offsets_[p]))(slots);
  }

  /// Calls the full-set range function: `out[p] = value of polynomial p`
  /// for every p, one native call for the whole set. Same operation order
  /// as poly_count() Eval() calls, minus per-call overhead — the fast path
  /// for full-range batches (`out` must hold poly_count() doubles).
  void EvalAll(const double* slots, double* out) const {
    using RangeFn = void (*)(const double*, double*);
    reinterpret_cast<RangeFn>(
        reinterpret_cast<uintptr_t>(arena_->base() + range_entry_))(slots,
                                                                    out);
  }

 private:
  uint64_t fingerprint_;
  std::unique_ptr<ExecArena> arena_;
  std::vector<size_t> entry_offsets_;
  size_t range_entry_;
};

/// Fingerprint-keyed LRU cache of emitted modules with a byte budget over
/// their page-rounded mapped sizes — the ArtifactStore accounting idiom
/// applied to executable memory. Emission is one-time per compiled
/// snapshot; every later batch against the same snapshot is a cache hit.
/// A mutated-and-recompiled set arrives with a fresh fingerprint, misses,
/// and gets fresh code, while the stale entry ages out of the LRU (or is
/// dropped eagerly via Invalidate) — the exact invalidation story
/// DenseValuations have, enforced by the same identity.
///
/// Thread-safe. Emission runs under the cache lock: racing first-callers
/// for one snapshot would otherwise both pay mmap + emission and one
/// mapping would be thrown away; serializing them costs the second caller
/// a wait shorter than its own redundant emission. A failed emission is
/// remembered by fingerprint, so a snapshot that cannot be emitted costs
/// one attempt, not one per batch spent holding the lock.
class JitCodeCache {
 public:
  /// Default per-set emitted-code cap (see GeneratePolynomialSetCode).
  static constexpr size_t kDefaultMaxCodeBytes = size_t{8} << 20;  // 8 MiB

  /// Default budget for Default(): comfortably holds every workload's
  /// code (~25 bytes per factor) while bounding a server that churns
  /// through thousands of short-lived artifacts.
  static constexpr size_t kDefaultByteBudget = size_t{32} << 20;  // 32 MiB

  explicit JitCodeCache(size_t byte_budget,
                        size_t max_code_bytes = kDefaultMaxCodeBytes);

  JitCodeCache(const JitCodeCache&) = delete;
  JitCodeCache& operator=(const JitCodeCache&) = delete;

  /// The process-wide cache the registered "jit" backend uses.
  static JitCodeCache& Default();

  /// Returns the module for `compiled`, emitting and mapping it on first
  /// use. Failure (exec memory unavailable, per-set code cap, disp32
  /// overflow) is returned as a Status for the backend to count and fall
  /// back on; the failure is remembered (for the most recent
  /// kRememberedFailures fingerprints), and later calls for the same
  /// snapshot return it without another attempt.
  StatusOr<std::shared_ptr<const JitModule>> GetOrEmit(
      const CompiledPolynomialSet& compiled);

  /// True when emission for `fingerprint` failed and is still remembered.
  bool EmitFailed(uint64_t fingerprint) const;

  /// How many failed fingerprints are remembered; the oldest is forgotten
  /// first (a forgotten one just pays one more attempt).
  static constexpr size_t kRememberedFailures = 1024;

  /// Eagerly drops the entry for `fingerprint`, releasing its budget
  /// charge. Returns true when an entry was resident. (Recompiles do not
  /// need this — a new fingerprint invalidates by construction — but
  /// embedders tearing down a large set can return its pages early.)
  bool Invalidate(uint64_t fingerprint);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;        ///< Emissions attempted (miss then emit).
    uint64_t emit_failures = 0; ///< Attempts that failed (each remembered).
    uint64_t evictions = 0;     ///< LRU evictions (budget pressure).
    uint64_t invalidations = 0; ///< Explicit Invalidate() drops.
    uint64_t resident_modules = 0;
    uint64_t resident_bytes = 0;  ///< Sum of mapped (page-rounded) bytes.
    uint64_t byte_budget = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const JitModule> module;
    std::list<uint64_t>::iterator lru_it;
  };

  /// Counts and remembers a failed emission; returns `status`. Requires
  /// mutex_.
  Status RememberFailure(uint64_t fingerprint, Status status);

  /// Drops LRU entries until within budget; never drops the most recently
  /// used entry, so one oversized set still gets cached code. Requires
  /// mutex_.
  void EvictToBudget();

  const size_t byte_budget_;
  const size_t max_code_bytes_;
  mutable std::mutex mutex_;
  std::list<uint64_t> lru_;  // front = most recently used fingerprint
  std::unordered_map<uint64_t, Entry> entries_;
  size_t used_bytes_ = 0;
  // Failed emissions by fingerprint, oldest first in failed_order_.
  std::unordered_map<uint64_t, Status> failed_;
  std::deque<uint64_t> failed_order_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t emit_failures_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace jit
}  // namespace provabs

#endif  // PROVABS_JIT_CODE_CACHE_H_
