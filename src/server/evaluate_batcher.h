#ifndef PROVABS_SERVER_EVALUATE_BATCHER_H_
#define PROVABS_SERVER_EVALUATE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "parallel/thread_pool.h"

namespace provabs {

/// Coalesces concurrent what-if evaluations onto one ThreadPool.
///
/// The serving workload is many analysts firing small valuation requests at
/// a resident compressed artifact (the Fig. 10 interaction, repeated). Run
/// naively, each request would wake the pool for a single pass over the
/// polynomials — and ThreadPool::Wait() waits for *all* in-flight tasks, so
/// concurrent ParallelFor calls from different connection threads would
/// stall on each other's work. The batcher turns that interference into
/// throughput: the first caller becomes the batch leader, drains every
/// request queued so far (its own included), and runs their union as a
/// single ParallelFor round; callers that arrive while a batch is running
/// queue up for the next leader. Followers block until their slot is
/// filled.
///
/// Within a round, requests are grouped by (compiled form, requested
/// backend) and each group is routed through the evaluation-backend
/// registry (core/evaluation_backend.h) as ONE batch: concurrent analysts
/// probing the same artifact become one multi-scenario batch, run on the
/// backend measured fastest for that snapshot at that width. Each
/// group's polynomial range is chunked across the pool with every chunk
/// carrying the whole scenario group, so lanes stay full at any pool
/// width.
///
/// The caller thread resolves the compiled form (cached on the set — for
/// server artifacts and views it is warmed when the set is built, so this
/// never compiles on the request path) and materializes its valuation into a
/// dense slot array before queueing, so pool workers run pure flat-array
/// walks. Results are bitwise identical to `Valuation::Evaluate` per
/// polynomial, whichever backend serves the group.
class EvaluateBatcher {
 public:
  /// `registry` selects evaluation backends (Default() when null); tests
  /// inject counting/failing registries through it.
  explicit EvaluateBatcher(ThreadPool& pool,
                           const EvaluationBackendRegistry* registry = nullptr)
      : pool_(pool),
        registry_(registry != nullptr ? registry
                                      : &EvaluationBackendRegistry::Default()) {
  }

  EvaluateBatcher(const EvaluateBatcher&) = delete;
  EvaluateBatcher& operator=(const EvaluateBatcher&) = delete;

  /// Evaluates every polynomial of `polys` under `val`; blocks until done.
  /// `backend` names an evaluation backend ("" = measured routing for
  /// the group this request lands in); unknown names fail with the
  /// registry's name-listing error. Thread-safe; concurrent callers are
  /// coalesced. The shared_ptr keeps the polynomial set alive across the
  /// batch even if the artifact store evicts it mid-request. When
  /// `ran_backend` is non-null it receives the name of the backend that
  /// actually evaluated the request (the routed choice for "").
  StatusOr<std::vector<double>> Evaluate(
      std::shared_ptr<const PolynomialSet> polys, Valuation val,
      const std::string& backend = "", std::string* ran_backend = nullptr);

  /// Evaluates every polynomial of `polys` under each of `scenarios` — the
  /// scenario-program fan-out entry point (scenario/program.h expands
  /// chunks of DenseValuations already stamped with `compiled`'s
  /// fingerprint). The scenarios enter the queue as individual pending
  /// items, so they form one full-width (compiled, backend) lane group and
  /// coalesce with any concurrent Evaluate() traffic against the same
  /// artifact. Returns one value vector per scenario, in order; counts as
  /// scenarios.size() requests in stats(). Fails fast with
  /// kInvalidArgument if any scenario carries a foreign fingerprint.
  /// `ran_backend` as for Evaluate() (the whole family runs as one group).
  StatusOr<std::vector<std::vector<double>>> EvaluateDense(
      std::shared_ptr<const PolynomialSet> polys,
      std::shared_ptr<const CompiledPolynomialSet> compiled,
      std::vector<DenseValuation> scenarios, const std::string& backend = "",
      std::string* ran_backend = nullptr);

  struct Stats {
    uint64_t requests = 0;       ///< Evaluate() calls served.
    uint64_t batches = 0;        ///< Leader rounds run.
    uint64_t max_batch = 0;      ///< Largest number of requests in one round.
    uint64_t groups = 0;         ///< (compiled form, backend) groups formed.
    uint64_t backend_calls = 0;  ///< EvaluateBatch invocations dispatched.
  };
  Stats stats() const;

 private:
  /// Concurrency audit (TSan'd by tests/server_concurrency_test.cc and
  /// tests/evaluate_batcher_test.cc): a Pending crosses threads only
  /// through `mutex_` and the pool's own synchronization. The caller fills
  /// `compiled`/`dense`/`backend` before publishing the item into `queue_`
  /// under the lock; the leader takes the queue under the lock and sizes
  /// `out` before any Submit (the pool's queue mutex orders those writes
  /// before worker reads); workers only read `compiled`/`dense` and write
  /// disjoint `out` ranges; the leader's post-round lock re-acquire orders
  /// those writes (and any `status` the leader recorded) before `done`
  /// flips; and the owner only reads `out`/`status` after observing `done`
  /// under the lock. `stats_` is only ever touched under `mutex_`.
  struct Pending {
    std::shared_ptr<const PolynomialSet> polys;
    std::shared_ptr<const CompiledPolynomialSet> compiled;
    DenseValuation dense;
    std::string backend;  ///< Requested backend name ("" = auto).
    const EvaluationBackend* ran = nullptr;  ///< Set by the leader.
    std::vector<double> out;
    Status status;  ///< Set by the leader on resolution/evaluation failure.
    bool done = false;
  };

  /// Leader-side: groups `batch`, resolves backends, runs one ParallelFor
  /// over all chunks, records per-item status. Returns counters for the
  /// leader to fold into stats_ under the lock.
  void RunBatch(const std::vector<std::shared_ptr<Pending>>& batch,
                uint64_t* groups, uint64_t* backend_calls);

  /// Claims leadership, drains the queue, and runs it as one batch.
  /// Requires `lock` held on mutex_ and leader_active_ == false; returns
  /// with the lock re-held, all drained items marked done, and waiters
  /// notified.
  void LeadOneBatch(std::unique_lock<std::mutex>& lock);

  ThreadPool& pool_;
  const EvaluationBackendRegistry* registry_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<std::shared_ptr<Pending>> queue_;
  bool leader_active_ = false;
  Stats stats_;
};

}  // namespace provabs

#endif  // PROVABS_SERVER_EVALUATE_BATCHER_H_
