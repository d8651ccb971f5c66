#ifndef PROVABS_CORE_EVALUATION_BACKEND_H_
#define PROVABS_CORE_EVALUATION_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/registry.h"
#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"

namespace provabs {

class PolynomialSet;
class Valuation;

/// The unified scenario-evaluation API. PR 5's compiled kernel made a
/// single scenario fast; the serving workload is MANY scenarios against one
/// resident artifact (the Fig. 10 interaction repeated per analyst), and the
/// cheapest way to go faster is to amortize one pass over the CSR arrays
/// across a batch of scenarios — structure-of-arrays DenseValuation lanes,
/// the batched-evaluation shape the incremental-maintenance literature uses
/// to make per-answer work sublinear. This header is the seam through which
/// every evaluation path (Valuation::EvaluateAll, ParallelEvaluateAll, the
/// serving EvaluateBatcher, the benches) selects a strategy by
/// name — exactly how algo/compressor.h routes compression — or lets
/// EvaluationBackendRegistry::Route pick the one measured fastest on the
/// snapshot at hand. Adding a backend means registering one adapter, and
/// the cross-backend differential battery gates it for free — the route
/// the per-artifact JIT (jit/jit_backend.h) arrived through.
///
/// Every backend MUST reproduce the canonical summation order documented on
/// Valuation::Evaluate operation-for-operation, so results are BITWISE
/// identical across all registered backends — tests and the
/// bench_evaluate_kernel batched arm assert IEEE-754 bit equality, not
/// tolerance, and the bench exits nonzero on any divergence.

/// Capability record advertised by an evaluation backend, served over the
/// wire by the ListBackends request so clients route without hardcoding
/// backend names.
struct EvaluationBackendInfo {
  std::string name;
  /// One-line description for --help / remote-info output.
  std::string summary;
  /// Uses SIMD lanes (evaluates several scenarios per instruction).
  bool vectorized = false;
  /// Same inputs always yield the same bits (all built-ins).
  bool deterministic = false;
  /// Batch width the backend is designed for (1 = no batching
  /// requirement). Advisory only: auto-routing measures instead.
  uint32_t preferred_batch = 1;
};

/// One evaluation strategy. Implementations must be stateless and
/// thread-safe: the serving layer calls a single instance from many pool
/// workers concurrently, each on a disjoint polynomial range.
class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  virtual const EvaluationBackendInfo& info() const = 0;

  /// Whether auto-routing should consider this backend at all. Explicit
  /// selection by name still works when false (an unavailable backend must
  /// degrade internally, not fail). The jit backend reports false when
  /// executable memory is unavailable or PROVABS_EVAL_FORCE_NOJIT is set;
  /// everything else is unconditionally available.
  virtual bool Available() const { return true; }

  /// Available() for one snapshot: a backend that already knows it cannot
  /// serve `compiled` well (the jit after a failed emission) reports false,
  /// and routing drops it from that snapshot's candidates.
  virtual bool AvailableFor(const CompiledPolynomialSet& compiled) const {
    (void)compiled;
    return Available();
  }

  /// Evaluates polynomials [poly_begin, poly_end) of `compiled` under each
  /// of `scenarios[0..scenario_count)`; writes
  /// `outs[s][i] = value of polynomial (poly_begin + i) under scenario s`.
  /// Every output buffer must hold at least `poly_end - poly_begin` slots.
  ///
  /// Fails with kInvalidArgument when the range is out of bounds or any
  /// scenario was materialized against a DIFFERENT compiled form
  /// (fingerprint mismatch — a stale valuation from before a set was
  /// mutated would silently mis-index otherwise). Validation happens here,
  /// once per batch; implementations receive pre-validated input.
  Status EvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs, size_t scenario_count) const;

 protected:
  /// The actual kernel, called with validated arguments.
  virtual void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                               size_t poly_begin, size_t poly_end,
                               const DenseValuation* const* scenarios,
                               double* const* outs,
                               size_t scenario_count) const = 0;
};

/// Auto-routing's per-snapshot memo (see EvaluationBackendRegistry::Route),
/// owned by CompiledPolynomialSet::route_memo(). Opaque outside routing.
class BackendRouteMemo;

/// A fresh, empty memo; CompiledPolynomialSet::Compile attaches one to
/// every snapshot.
std::shared_ptr<BackendRouteMemo> NewBackendRouteMemo();

/// One routing decision from EvaluationBackendRegistry::Route. Callers run
/// every piece of the batch through EvaluateBatch() — from several pool
/// workers at once if they chunk the polynomial range. While the
/// snapshot's width class is still being measured, those calls are timed
/// and the destructor records their sum (CPU time, so chunking does not
/// flatter any backend) on the snapshot's memo. Move-only.
class BackendRoute {
 public:
  explicit BackendRoute(const EvaluationBackend* backend);
  BackendRoute(BackendRoute&& other) noexcept;
  BackendRoute& operator=(BackendRoute&&) = delete;
  ~BackendRoute();

  /// The backend this batch runs on; its name is what a response reports.
  const EvaluationBackend* backend() const { return backend_; }

  /// True while this batch is a timed probe rather than a settled choice.
  bool measuring() const { return probe_ != nullptr; }

  /// backend()->EvaluateBatch, timed while measuring. Thread-safe.
  Status EvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs, size_t scenario_count) const;

 private:
  friend class EvaluationBackendRegistry;
  struct Probe;

  const EvaluationBackend* backend_;
  std::unique_ptr<Probe> probe_;
};

/// Name -> backend registry, mirroring CompressorRegistry. `Default()` is
/// the process-wide instance pre-populated with the three built-ins:
///
///   compiled   — the CSR kernel (flat-array walks), one scenario at a
///                time; the single-scenario baseline
///   simd_batch — transposes the batch into structure-of-arrays lanes and
///                walks the CSR arrays ONCE per polynomial for all lanes;
///                AVX2 when the CPU has it (runtime-detected), with a
///                portable scalar-lane fallback compiled unconditionally
///   jit        — emits one straight-line native function per polynomial
///                of the compiled artifact (jit/jit_backend.h), cached by
///                compiled-form fingerprint; degrades to the compiled
///                kernel where executable memory is unavailable
///
/// The test oracle is not a backend: it is per-polynomial
/// Valuation::Evaluate, which every backend must match bit for bit.
class EvaluationBackendRegistry
    : public Registry<EvaluationBackend, EvaluationBackendInfo> {
 public:
  /// An empty registry (for tests and embedders composing their own set).
  EvaluationBackendRegistry();

  /// The process-wide registry with the built-ins registered. Constructed
  /// on first use (no static-init-order hazards).
  static EvaluationBackendRegistry& Default();

  /// Registry::Register, after which snapshots routed before measure
  /// again, so the newcomer gets its probe.
  Status Register(std::unique_ptr<EvaluationBackend> backend);

  /// The routing entry point every evaluation path goes through (the
  /// serving batcher, EvaluateScenarios, Valuation::EvaluateAll and the
  /// parallel helpers). An explicit `name` resolves strictly.
  /// An empty name picks the backend measured fastest on THIS snapshot for
  /// the width class of `batch_size` (1, 2-7, >= 8):
  ///
  ///   - the first batches of a class are probes: blocks of kProbeBlock
  ///     consecutive batches go round-robin to each Available() candidate
  ///     until every one is measured — at least kProbeSamples counted
  ///     batches (a block's first is not counted) and kProbeNanos of kernel
  ///     time, or kMaxProbeSamples batches (a candidate whose
  ///     AvailableFor(compiled) turns false, like the jit after a failed
  ///     emission, is dropped);
  ///   - the candidate with the lowest best time per scenario then becomes
  ///     the class's choice, recorded on compiled.route_memo() and used for
  ///     every later batch without further timing.
  ///
  /// Backends are bitwise identical, so neither probing nor the choice can
  /// change a value. Without a memo (a default-constructed snapshot) or
  /// for an empty batch, returns ResolveForBatch("", batch_size).
  StatusOr<BackendRoute> Route(const std::string& name,
                               const CompiledPolynomialSet& compiled,
                               size_t batch_size) const;

  /// Probe budget per candidate (see Route). Blocks keep a candidate's
  /// code and data warm, as they are once it is chosen; comparing the best
  /// of several samples keeps scheduler noise out of the choice, and the
  /// time floor gives microsecond-sized batches enough samples for their
  /// best to mean something.
  static constexpr uint32_t kProbeBlock = 4;
  static constexpr uint32_t kProbeSamples = 3;
  static constexpr uint64_t kProbeNanos = 200'000;
  static constexpr uint32_t kMaxProbeSamples = 64;

  /// The snapshot-free policy: an explicit `name` resolves strictly; an
  /// empty name returns "compiled" (or any registered backend if "compiled"
  /// is not registered — an empty registry is the only hard failure).
  /// `batch_size` is accepted for callers that have no snapshot to route
  /// on and does not change the answer.
  StatusOr<const EvaluationBackend*> ResolveForBatch(const std::string& name,
                                                     size_t batch_size) const;

 private:
  /// Process-unique; redrawn by every Register (see BackendRouteMemo).
  /// Redrawn after the newcomer is in `by_name_`, and read without the
  /// lock on the routing fast path.
  std::atomic<uint64_t> routing_id_;
};

/// Registers the built-in backends into `registry`. Default() calls this on
/// construction; exposed so tests can compose a fresh registry with the
/// same contents.
Status RegisterBuiltinEvaluationBackends(EvaluationBackendRegistry& registry);

/// True when the running CPU supports AVX2 and the PROVABS_EVAL_FORCE_SCALAR
/// environment variable is unset/0 — the condition under which the
/// registered "simd_batch" backend takes its vector path. Exposed so tests
/// and CI can tell which lane implementation the differential actually
/// covered (a scalar-forced job still gates the vector path's lane logic,
/// which the fallback shares).
bool SimdBatchAvx2Active();

/// The SIMD-batched backend, constructible directly so the differential
/// battery can pin each lane implementation regardless of the host CPU:
/// kForceScalar always takes the portable scalar-lane path; kAuto follows
/// SimdBatchAvx2Active(). Registered in Default() as "simd_batch" (kAuto).
class SimdBatchBackend : public EvaluationBackend {
 public:
  enum class Mode { kAuto, kForceScalar };
  explicit SimdBatchBackend(Mode mode = Mode::kAuto) : mode_(mode) {}

  const EvaluationBackendInfo& info() const override;

  /// True when this instance will execute AVX2 lanes.
  bool using_avx2() const;

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override;

 private:
  Mode mode_;
};

/// Convenience entry point for multi-scenario evaluation: compiles (cached
/// on the set), materializes every scenario, and routes the whole batch
/// through `Route(backend_name, compiled, scenarios.size())` against
/// `registry` (Default() when null). Returns one value vector per scenario,
/// each bitwise identical to Valuation::Evaluate per polynomial. Unknown
/// backend names fail listing the registered set.
StatusOr<std::vector<std::vector<double>>> EvaluateScenarios(
    const PolynomialSet& polys, const std::vector<Valuation>& scenarios,
    const std::string& backend_name = "",
    const EvaluationBackendRegistry* registry = nullptr);

}  // namespace provabs

#endif  // PROVABS_CORE_EVALUATION_BACKEND_H_
