#ifndef PROVABS_SERVER_PROVENANCE_SERVICE_H_
#define PROVABS_SERVER_PROVENANCE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "parallel/thread_pool.h"
#include "scenario/program.h"
#include "server/artifact_store.h"
#include "server/evaluate_batcher.h"
#include "server/wire_protocol.h"

namespace provabs {

struct ServiceOptions {
  /// Byte budget of the artifact + result cache.
  size_t cache_bytes = size_t{256} << 20;  // 256 MiB
  /// Worker threads for batched evaluation; 0 = hardware concurrency.
  size_t eval_threads = 0;
  /// Cache shards (independent mutex + LRU partitions); 0 = store default.
  size_t cache_shards = 0;
  /// Upper bound on the scenarios a single EvaluateScenarioProgram request
  /// may expand to. A family's size is known after compilation and before
  /// any expansion, so an oversized program is rejected without
  /// materializing a single valuation.
  uint64_t max_scenarios_per_request = uint64_t{1} << 20;
  /// Scenarios expanded and fed to the batcher per chunk; bounds the
  /// transient dense-valuation memory of huge families.
  uint64_t scenario_chunk = 1024;
  /// Upper bound on an encoded response payload. A request whose response
  /// would exceed it (a `values`-shaped scenario sweep over a large
  /// family, say) gets a structured kOutOfRange error instead of dying in
  /// the transport's frame-size check. 0 = the protocol's kMaxFrameBytes.
  uint64_t max_response_bytes = 0;
  /// Test-only hook, invoked on the computing thread at the start of every
  /// FULL compression run that single-flight actually executes — not for
  /// cache hits, not for deduplicated waiters, and not for fills answered
  /// by the delta-patch path (which is exactly how the incremental tests
  /// assert an append skipped the full DP). The concurrency test battery
  /// uses it to count DP executions and to hold leaders at a barrier;
  /// production leaves it empty.
  std::function<void(const ArtifactStore::ResultKey&)> compress_hook;
  /// Test-only hook, invoked on the building thread at the start of every
  /// loss-table build (ArtifactStore::LossTable) with the artifact's
  /// generation. The concurrency battery counts builds with it.
  std::function<void(uint64_t generation)> loss_table_hook;

  /// Settings for a service that one short-lived process owns and queries
  /// (provabs_cli's offline verbs). Its cache never evicts: the process
  /// reads back the artifact and results it computed, and an eviction
  /// would lose them. Its scenario limit is the language's own family
  /// ceiling: shaped answers stay O(k) however large the family, and
  /// values-shaped ones are still bounded by max_response_bytes.
  static ServiceOptions OneShot() {
    ServiceOptions options;
    options.cache_bytes = std::numeric_limits<size_t>::max();
    options.max_scenarios_per_request = scenario::kMaxScenarioFamily;
    return options;
  }
};

/// The serving core: load / compress / tradeoff / evaluate over named
/// artifacts, decoupled from any transport so it is unit-testable without
/// sockets. `tools/provabs_server` wraps it in a socket front end, and
/// `provabs_cli`'s offline verbs own one in-process and send it the same
/// encoded requests through HandleFrame.
///
/// All handlers are thread-safe and may be called concurrently from many
/// connection threads. Application errors never surface as C++ failures:
/// every handler returns a Response whose code/message carry the Status.
class ProvenanceService {
 public:
  explicit ProvenanceService(const ServiceOptions& options = {});

  ProvenanceService(const ProvenanceService&) = delete;
  ProvenanceService& operator=(const ProvenanceService&) = delete;

  Response Load(const LoadRequest& req);
  Response Append(const AppendRequest& req);
  Response Compress(const CompressRequest& req);
  Response Evaluate(const EvaluateRequest& req);
  Response EvaluateScenarioProgram(const EvaluateScenarioProgramRequest& req);
  Response Info(const InfoRequest& req);
  Response Tradeoff(const TradeoffRequest& req);
  Response ListAlgos(const ListAlgosRequest& req);
  Response ListBackends(const ListBackendsRequest& req);

  /// Decodes one request payload, dispatches it, and encodes the response.
  /// Malformed payloads yield an encoded error response (the connection can
  /// keep going). Sets `*shutdown` when the payload was a shutdown request.
  std::string HandleFrame(std::string_view payload, bool* shutdown);

  ArtifactStore& store() { return store_; }
  EvaluateBatcher& batcher() { return batcher_; }

  /// Installed by the socket front end (Server) so every response's stats
  /// block carries the transport counters; pass nullptr to uninstall.
  /// Serving without a server simply leaves the counters at zero.
  void SetTransportStatsProvider(std::function<void(ServerStats&)> provider);

 private:
  /// HandleFrame's decode/dispatch/encode core, before the response-size
  /// guard is applied.
  std::string HandleFrameImpl(std::string_view payload, bool* shutdown);
  /// Fills the stats section of `resp` from store + batcher counters.
  void AttachStats(Response& resp);
  /// The single compress dispatch shared by Compress and
  /// Evaluate-over-compressed: resolves `key.algo` through the process-wide
  /// CompressorRegistry (unknown names fail listing the registered set),
  /// then returns the cached result, waits on an identical in-flight
  /// request, or runs the algorithm and caches it (single-flight; see
  /// ArtifactStore::GetOrCompute) — against the caller's `artifact`
  /// snapshot, whose generation `key` names (never re-fetched, so a
  /// concurrent reload cannot swap the VariableTable out from under ids the
  /// caller already resolved). Builds no compressed view. On success fills
  /// the compress section of `resp` (including cache_hit/dedup_hit) and
  /// returns the result; on failure fills code/message and returns nullptr.
  std::shared_ptr<const ArtifactStore::CompressedResult> CompressInternal(
      const std::shared_ptr<const Artifact>& artifact,
      const ArtifactStore::ResultKey& key, Response& resp);

  /// The polynomial set a what-if request evaluates: the artifact's own
  /// polynomials, or, when `compressed`, the view of the (cached,
  /// single-flight) compression of (forest, bound, algo), built on first
  /// use by ArtifactStore::CompressedView. The pointer keeps its owner
  /// (artifact or cached result) alive. On failure fills code/message of
  /// `resp` and returns nullptr.
  std::shared_ptr<const PolynomialSet> ResolveTarget(
      const std::shared_ptr<const Artifact>& artifact,
      const std::string& artifact_name, bool compressed,
      const std::string& forest, const std::string& algo, uint64_t bound,
      Response& resp);

  /// The loss table of tree 0 of `forest` in `artifact` (loaded as
  /// `name`), built on first use; fires loss_table_hook_ when it builds.
  StatusOr<std::shared_ptr<const LeafResidualIndex>> LossTable(
      const std::string& name, const Artifact& artifact,
      const std::string& forest);

  /// The compute function CompressInternal hands to GetOrCompute: tries
  /// the delta-patch path against cached ancestor generations first (sets
  /// `*patched` and bumps the delta counters), then falls back to the full
  /// algorithm run (which is when compress_hook_ fires). A full "opt" run
  /// reads the generation's shared loss table.
  StatusOr<ArtifactStore::CompressedResult> ComputeCompression(
      const std::shared_ptr<const Artifact>& artifact,
      const AbstractionForest& forest, const Compressor& compressor,
      const ArtifactStore::ResultKey& key);

  ArtifactStore store_;
  ThreadPool pool_;
  EvaluateBatcher batcher_;
  std::function<void(const ArtifactStore::ResultKey&)> compress_hook_;
  std::function<void(uint64_t)> loss_table_hook_;
  uint64_t max_scenarios_per_request_;
  uint64_t scenario_chunk_;
  uint64_t max_response_bytes_;
  /// Incremental-update telemetry (see ServerStats for the taxonomy).
  std::atomic<uint64_t> delta_patched_{0};
  std::atomic<uint64_t> delta_fallback_full_{0};

  std::mutex transport_mutex_;
  std::function<void(ServerStats&)> transport_stats_;  // guarded above
};

}  // namespace provabs

#endif  // PROVABS_SERVER_PROVENANCE_SERVICE_H_
