#ifndef PROVABS_SERVER_ARTIFACT_STORE_H_
#define PROVABS_SERVER_ARTIFACT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "algo/compressor.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "core/variable.h"
#include "scenario/program.h"
#include "server/inflight_registry.h"

namespace provabs {

/// A named, immutable-after-load provenance artifact resident in the server:
/// the deserialized polynomial set, the abstraction forests defined over it,
/// and the VariableTable both share (compression requires polynomials and
/// forest to agree on ids). The raw serialized buffers are retained so a
/// later forest-only load can rebuild the bundle into a fresh table.
///
/// Artifacts are exposed as `shared_ptr<const Artifact>`: once handed out
/// they are never mutated (except that each loss-table cell is filled
/// once, under its own lock), so concurrent request threads may read them
/// without locks, and LRU eviction cannot invalidate an in-flight request.
/// `polys` carries its compiled CSR evaluation form (warmed at load by the
/// byte estimator below), so evaluate requests go straight to flat-array
/// walks; reloading produces a fresh Artifact and therefore a fresh
/// compiled form — generation-keyed invalidation for free.
struct Artifact {
  /// Monotonic store-wide load counter; cached compression results embed it
  /// in their key, so reloading an artifact implicitly invalidates them.
  uint64_t generation = 0;
  std::shared_ptr<VariableTable> vars;
  PolynomialSet polys;
  std::string polys_bytes;
  std::map<std::string, AbstractionForest> forests;
  std::map<std::string, std::string> forest_bytes;
  size_t approx_bytes = 0;

  /// One predecessor generation this artifact's polynomials grew from by
  /// appends alone: the generation number and the polys.revision() snapshot
  /// it corresponds to, so `polys.DeltaSince(revision)` reconstructs the
  /// exact update between the two versions.
  struct Ancestor {
    uint64_t generation = 0;
    uint64_t revision = 0;
  };
  /// Patchable predecessors, oldest first (recorded by Append; empty after
  /// a full (re)load, which severs the chain). Bounded by kMaxAncestry —
  /// the PolynomialSet delta log is itself bounded, so deep chains would
  /// mostly resolve to "delta incomplete" anyway.
  std::vector<Ancestor> ancestry;
  static constexpr size_t kMaxAncestry = 8;

  /// nullptr when no forest of that name was loaded.
  const AbstractionForest* FindForest(const std::string& name) const {
    auto it = forests.find(name);
    return it == forests.end() ? nullptr : &it->second;
  }

  /// The opt DP's loss table (LeafResidualIndex) of one forest tree over
  /// `polys`, built on first use by ArtifactStore::LossTable under `mutex`
  /// (held across the build, so concurrent first users wait for one).
  struct LossTableCell {
    std::mutex mutex;
    std::shared_ptr<const LeafResidualIndex> table;  // guarded by mutex
  };
  /// One cell per tree of each forest, keyed like `forests`. Created with
  /// the artifact, so the map itself is immutable once published.
  std::map<std::string, std::vector<std::unique_ptr<LossTableCell>>>
      loss_tables;
};

/// Rough resident-size estimate of a deserialized polynomial set, used for
/// byte-budget accounting (exact heap accounting is not worth the
/// bookkeeping; the estimate is within a small constant of malloc reality).
/// Includes — and warms — the set's compiled CSR evaluation form
/// (core/compiled_polynomial_set.h): artifact loads and compressed-view
/// builds (ArtifactStore::CompressedView) both pass through this
/// estimator, so every set the store serves is compiled before its first
/// evaluation reads it and evaluate requests never compile. The compiled
/// form lives inside the set, so generation bumps and LRU eviction
/// invalidate it together with the entry whose budget it was charged to.
size_t ApproxPolynomialSetBytes(const PolynomialSet& polys);

/// Rough resident size of an opt result's retained DP tables (node arrays
/// and convolution prefixes), so patchable cache entries are charged for
/// the state they keep alive. The loss table counts only when `owns_table`:
/// a full run reads its artifact's table, which is charged to the artifact
/// once (ArtifactStore::LossTable), while a patched result holds its own
/// appended copy.
size_t ApproxDpStateBytes(const internal::RetainedDpState& state,
                          bool owns_table);

/// Byte-budgeted LRU cache over two kinds of entries: deserialized
/// artifacts (keyed by name) and compression results (keyed by artifact
/// generation + forest + bound + algo). Repeat loads skip deserialization;
/// repeat compressions skip the DP entirely — the heart of the paper's
/// "compress once, evaluate interactively" deployment story.
///
/// The cache is sharded: slot keys hash to one of `shards` independent
/// (mutex, map, recency list) triples, so concurrent requests for distinct
/// keys usually take different locks (keys hashing into the same shard
/// still share one — sharding reduces contention, it cannot eliminate it). Each shard owns an equal fraction of the
/// byte budget and evicts its own least-recently-used entries; a shard's
/// most recent entry is never evicted, so a budget smaller than one
/// artifact still serves that artifact (it just caches nothing else). The
/// static slicing trades capacity precision for lock independence: the
/// worst-case overshoot is `shards` oversized most-recent entries (the
/// global LRU's bound times the shard count), and keys hashing unevenly
/// see less usable budget than the configured total. Deployments that care
/// more about the byte bound than about lock contention can construct with
/// `shards = 1` and get the old global-LRU behavior exactly. All methods
/// are thread-safe.
///
/// On top of the cache sits a single-flight layer (`GetOrCompute`): the
/// first request for an uncached key runs the compute function, concurrent
/// identical requests wait for that run's outcome, and only *completed*
/// results are ever published to the cache — a failed computation returns
/// its Status to everyone waiting and leaves no trace.
class ArtifactStore {
 public:
  /// Shard count used when the constructor argument is 0. Eight shards keep
  /// lock contention negligible for tens of connection threads without
  /// fragmenting small byte budgets into uselessly tiny slices.
  static constexpr size_t kDefaultShards = 8;

  explicit ArtifactStore(size_t byte_budget, size_t shards = 0);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Deserializes and installs artifact `name`, replacing any previous
  /// version. `forests` pairs forest names with serialized forest buffers.
  /// When `polys_bytes` is empty, the artifact must already exist: its
  /// polynomials and previously loaded forests are rebuilt into a fresh
  /// VariableTable and the new forests merged in.
  StatusOr<std::shared_ptr<const Artifact>> Load(
      const std::string& name, std::string polys_bytes,
      const std::vector<std::pair<std::string, std::string>>& forests);

  /// Appends the polynomials of a serialized PolynomialSet buffer to the
  /// loaded artifact `name`, producing (and installing) a NEW immutable
  /// Artifact at a bumped generation whose delta log and ancestry record
  /// the update — so a later compression of the new generation can patch a
  /// cached predecessor's DP state instead of re-running (see
  /// ProvenanceService::CompressInternal). The previous Artifact object is
  /// untouched; in-flight requests holding it are unaffected.
  StatusOr<std::shared_ptr<const Artifact>> Append(
      const std::string& name, const std::string& polys_bytes);

  /// Fetches a loaded artifact (refreshing its recency), or nullptr.
  std::shared_ptr<const Artifact> Get(const std::string& name);

  /// Identity of one compression run; `generation` ties the entry to the
  /// artifact version it was computed from.
  struct ResultKey {
    std::string artifact;
    uint64_t generation = 0;
    std::string forest;
    uint64_t bound = 0;
    std::string algo;
  };

  /// A cached compression: the loss report, the cut description and the
  /// algorithm-layer result, so a repeat Compress skips the algorithm run.
  /// `algo` in the key names any registered compressor, so caching and
  /// single-flight dedup compose identically for all of them — including
  /// the exponential "brute" and "prox", where skipping a repeat run
  /// matters most.
  ///
  /// Filling an entry builds no compressed view: Compress answers
  /// |P↓S|_M as |P|_M − monomial_loss. The view P↓S is built, compiled and
  /// charged to the entry by the first compressed evaluation that needs it
  /// (CompressedView), at most once per entry. Until then the entry is
  /// charged its retained DP state plus its VVS string.
  struct CompressedResult {
    LossReport loss;
    bool adequate = false;
    std::string vvs_names;
    /// The algorithm-layer result this entry was built from, retained in
    /// memory only (its dp_state is never serialized). When the algorithm
    /// produced retained DP tables, a later generation's compression can
    /// hand them to OptimalRecompress instead of re-running the full DP;
    /// CompressedView applies it to build the view.
    CompressionResult algo_result;
    /// True when this entry itself was produced by the patch path.
    bool delta_patched = false;

   private:
    friend class ArtifactStore;
    /// The view, built once under `mutex` (held across the build, so
    /// concurrent first evaluators wait for one Apply). Heap-held so a
    /// result stays movable into the cache.
    struct ViewCell {
      std::mutex mutex;
      std::shared_ptr<const PolynomialSet> view;  // guarded by mutex
    };
    std::unique_ptr<ViewCell> view_cell_ = std::make_unique<ViewCell>();
  };

  /// Cache lookup; counts a hit or miss. nullptr on miss.
  std::shared_ptr<const CompressedResult> LookupResult(const ResultKey& key);

  /// Cache lookup that records neither a hit nor a miss — the delta-patch
  /// path probes ancestor generations with it, and a probe is telemetry
  /// about the PATCH path, not about serving (the new generation's own
  /// miss was already counted). Still refreshes recency.
  std::shared_ptr<const CompressedResult> PeekResult(const ResultKey& key);

  /// Inserts a computed result (last-writer-wins on racing identical keys)
  /// and returns the cached object.
  std::shared_ptr<const CompressedResult> InsertResult(
      const ResultKey& key, CompressedResult result);

  /// The compressed view P↓S of `result`, the entry cached under `key`,
  /// built from `artifact` (which must be the generation `key` names) on
  /// first use. A result builds its view at most once: concurrent first
  /// callers wait for one Apply. The build compiles the view and charges
  /// its ApproxPolynomialSetBytes to the result's slot, evicting the shard
  /// down to its budget; nothing is charged when the slot was evicted or
  /// replaced meanwhile. The returned pointer aliases `result`, so the
  /// view lives exactly as long as some holder of its entry.
  std::shared_ptr<const PolynomialSet> CompressedView(
      const ResultKey& key,
      const std::shared_ptr<const CompressedResult>& result,
      const Artifact& artifact);

  /// The loss table of tree `tree_index` of forest `forest` in `artifact`,
  /// which is (or was) loaded under `name`. Built from the artifact on
  /// first use and kept for the artifact's lifetime, so every full opt DP
  /// and trade-off curve on one generation reads one table: concurrent
  /// first callers wait for one build, which runs `on_build` first. The
  /// build charges the table's ApproxBytes to the artifact's slot,
  /// evicting the shard down to its budget; nothing is charged when the
  /// slot was evicted or replaced meanwhile. Fails with kNotFound for an
  /// unknown forest and with BuildLossTable's status otherwise (a failed
  /// build is not kept).
  StatusOr<std::shared_ptr<const LeafResidualIndex>> LossTable(
      const std::string& name, const Artifact& artifact,
      const std::string& forest, uint32_t tree_index,
      const std::function<void()>& on_build = nullptr);

  /// Produces the result to publish for an uncached key. Runs on the
  /// calling thread with no store or registry lock held.
  using ResultComputeFn = std::function<StatusOr<CompressedResult>()>;

  /// How one GetOrCompute call was answered, for per-response reporting.
  struct GetOrComputeInfo {
    bool cache_hit = false;  ///< Answered from the result cache (no wait).
    bool dedup_hit = false;  ///< Waited on another request's computation.
  };

  /// Single-flight cache fill: returns the cached result for `key` if
  /// present; otherwise the first caller runs `compute` while concurrent
  /// identical callers block on its outcome (distinct keys proceed in
  /// parallel). A successful result is inserted into the cache *before*
  /// being published to waiters; a failure is returned as its Status to the
  /// leader and every waiter, and is never cached — the next non-concurrent
  /// request retries from scratch.
  StatusOr<std::shared_ptr<const CompressedResult>> GetOrCompute(
      const ResultKey& key, const ResultComputeFn& compute,
      GetOrComputeInfo* info = nullptr);

  /// Identity of one compiled scenario program: the target view it was
  /// analyzed against (artifact + generation, and for compressed targets
  /// the full compression key) plus a hash of the source text. A reload
  /// bumps the generation and implicitly invalidates cached programs, the
  /// same mechanism ResultKey uses.
  struct ProgramKey {
    std::string artifact;
    uint64_t generation = 0;
    bool compressed = false;
    std::string forest;
    uint64_t bound = 0;
    std::string algo;
    uint64_t source_hash = 0;
  };

  /// FNV-1a 64 of the program source, for ProgramKey::source_hash.
  static uint64_t HashProgramSource(std::string_view source);

  /// Cache lookup for a compiled scenario program; counts a program hit or
  /// miss. nullptr on miss.
  std::shared_ptr<const scenario::ScenarioProgram> LookupProgram(
      const ProgramKey& key);

  /// Caches a compiled program (last-writer-wins on racing identical keys).
  /// Programs share the byte budget and LRU with artifacts and results —
  /// they hold a shared_ptr to their compiled form, so an evicted or
  /// reloaded artifact stays alive for any program still cached against it.
  std::shared_ptr<const scenario::ScenarioProgram> InsertProgram(
      const ProgramKey& key, scenario::ScenarioProgram program);

  struct Stats {
    uint64_t artifact_count = 0;
    uint64_t result_count = 0;
    uint64_t program_count = 0;
    uint64_t cached_bytes = 0;
    uint64_t byte_budget = 0;
    uint64_t result_hits = 0;
    uint64_t result_misses = 0;
    uint64_t evictions = 0;
    uint64_t dedup_hits = 0;        ///< Requests served by waiting (total).
    uint64_t inflight_waiters = 0;  ///< Requests blocked right now (gauge).
    uint64_t program_hits = 0;
    uint64_t program_misses = 0;
  };
  Stats stats() const;

  /// Single-flight internals, exposed for tests and the stats block.
  const InflightRegistry& inflight() const { return inflight_; }

 private:
  /// Cache slots are keyed by a tag byte + encoded identity so artifact,
  /// result, and program entries share one map and one recency list per
  /// shard.
  struct Slot {
    std::shared_ptr<const Artifact> artifact;  // exactly one of these
    std::shared_ptr<const CompressedResult> result;  // three is non-null
    std::shared_ptr<const scenario::ScenarioProgram> program;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// One independently locked cache partition.
  struct Shard {
    mutable std::mutex mutex;
    std::list<std::string> lru;  // front = most recently used slot key
    std::unordered_map<std::string, Slot> slots;
    size_t byte_budget = 0;
    size_t used_bytes = 0;
  };

  static std::string ArtifactSlotKey(const std::string& name);
  static std::string ResultSlotKey(const ResultKey& key);
  static std::string ProgramSlotKey(const ProgramKey& key);

  Shard& ShardFor(const std::string& slot_key);

  /// The per-kind count a slot contributes to (artifact_count_,
  /// result_count_, or program_count_).
  std::atomic<uint64_t>& CountFor(const Slot& slot);

  /// What the hit/miss counters should record for one lookup.
  /// GetOrCompute's post-claim re-check counts a hit (its response reports
  /// cache_hit=true, and the cumulative counters on the same envelope must
  /// agree) but never a miss (the caller's original lookup already
  /// recorded that miss).
  enum class CountMode { kHitsAndMisses, kHitsOnly, kNone };

  /// Result lookup by pre-encoded slot key; the public LookupResult and
  /// GetOrCompute share it so a cold fill encodes the key only once.
  std::shared_ptr<const CompressedResult> LookupSlot(
      const std::string& slot_key, CountMode mode);
  std::shared_ptr<const CompressedResult> InsertResultSlot(
      const std::string& slot_key, CompressedResult result);

  /// Moves `it`'s slot to the front of the shard's recency list. Requires
  /// shard.mutex.
  static void Touch(Shard& shard,
                    std::unordered_map<std::string, Slot>::iterator it);
  /// Installs/replaces a slot and evicts the shard down to its budget.
  /// Requires shard.mutex.
  void InsertSlot(Shard& shard, const std::string& slot_key, Slot slot);
  /// Adds `bytes` to the slot at `slot_key` if it still holds `owner` (its
  /// artifact or result), refreshes its recency and evicts the shard down
  /// to its budget.
  void ChargeSlot(const std::string& slot_key, const void* owner,
                  size_t bytes);
  /// Evicts the shard's LRU entries until within budget (keeping ≥1
  /// entry). Requires shard.mutex.
  void EvictToBudget(Shard& shard);

  /// Serializes whole Load() cycles (read existing → deserialize → install)
  /// so concurrent loads of one artifact cannot lose each other's forest
  /// merges. Distinct from the shard mutexes on purpose: deserialization is
  /// slow, and Get/LookupResult traffic must not stall behind it.
  std::mutex load_mutex_;
  const size_t byte_budget_;
  std::vector<Shard> shards_;
  InflightRegistry inflight_;
  // Store-wide counters are plain atomics (not per-shard fields) so stats()
  // — which runs on every response — reads them without taking a single
  // shard lock, and so TSan-clean increments never require widening a
  // critical section. `used_bytes_total_` mirrors the sum of the shards'
  // `used_bytes` (each shard's own field, guarded by its mutex, stays
  // authoritative for eviction decisions).
  std::atomic<uint64_t> used_bytes_total_{0};
  std::atomic<uint64_t> artifact_count_{0};
  std::atomic<uint64_t> result_count_{0};
  std::atomic<uint64_t> next_generation_{1};
  std::atomic<uint64_t> result_hits_{0};
  std::atomic<uint64_t> result_misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> program_count_{0};
  std::atomic<uint64_t> program_hits_{0};
  std::atomic<uint64_t> program_misses_{0};
};

}  // namespace provabs

#endif  // PROVABS_SERVER_ARTIFACT_STORE_H_
