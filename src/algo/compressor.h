#ifndef PROVABS_ALGO_COMPRESSOR_H_
#define PROVABS_ALGO_COMPRESSOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "abstraction/valid_variable_set.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"

namespace provabs {

/// The unified compression API. The paper presents its algorithms — the
/// optimal single-tree DP (Algorithm 1), the greedy multi-tree heuristic
/// (Algorithm 2), the exhaustive baseline, and the Prox competitor of Ainy
/// et al. — as interchangeable strategies over one problem: given a
/// polynomial set, an abstraction forest, and a monomial bound, choose an
/// abstraction. This header is the seam through which every layer (serving,
/// CLI, online pipeline, benches) selects a strategy by name, so adding an
/// algorithm means registering one adapter, not editing call sites.

/// Options accepted by every registered compressor. Fields an algorithm
/// does not use are ignored (documented per capability below).
struct CompressOptions {
  /// Monomial bound B: the abstraction must satisfy |P↓S|_M ≤ B.
  uint64_t bound = 0;
  /// Tree index for single-tree algorithms ("opt"); multi-tree algorithms
  /// ignore it.
  uint32_t root = 0;
  /// Wall-clock budget in milliseconds; 0 = unlimited. Every built-in
  /// honors it, each at its natural check granularity: "brute" per cut,
  /// "prox" per oracle-call batch, "opt" per DP node, "greedy" per merge
  /// round. The anytime algorithms ("opt", "greedy") return their
  /// best-so-far valid cut on expiry with `budget_exhausted` set; the
  /// enumerative ones ("brute", "prox") have no meaningful partial answer
  /// and fail with kOutOfRange. A compressor that cannot enforce a budget
  /// must advertise `supports_time_budget = false` so callers can reject
  /// the option up front instead of being silently unprotected.
  uint64_t time_budget_ms = 0;
};

/// Result of a compression algorithm: the chosen abstraction and its exact
/// loss (computed on the true polynomials, not hashes).
///
/// Two abstraction representations exist. Tree-cut algorithms (opt, greedy,
/// brute) produce a ValidVariableSet; grouping algorithms (prox) produce an
/// arbitrary variable partition that is not necessarily a cut, carried as a
/// substitution map. `Apply`/`Describe` dispatch on the representation so
/// callers never need to care which algorithm ran.
namespace internal {
struct RetainedDpState;  // algo/optimal_single_tree.h — opaque here.
}  // namespace internal

struct CompressionResult {
  ValidVariableSet vvs;
  LossReport loss;
  /// True iff |P↓S|_M ≤ B (the abstraction is adequate for the bound).
  bool adequate = false;
  /// True when an anytime algorithm's time budget expired and the result
  /// is its best-so-far valid cut rather than the full-run answer. The cut
  /// is always valid and `adequate` is still exact for it; optimality (VL
  /// minimality) is what the budget traded away.
  bool budget_exhausted = false;
  /// Retained per-tree DP tables from the optimal algorithm, enabling
  /// OptimalRecompress to patch this result after localized appends
  /// instead of re-running the full DP. Opaque and in-memory only: never
  /// serialized, shared (immutable) between copies of the result, null
  /// for non-"opt" algorithms and for budget-exhausted runs.
  std::shared_ptr<const internal::RetainedDpState> dp_state;

  /// When true the abstraction is `substitution` (original variable →
  /// representative group variable) and `vvs` is empty; representatives of
  /// merged groups are synthesized ids OUTSIDE the VariableTable until
  /// `InternGrouping` is called — an applied grouping can be evaluated
  /// in-memory as-is, but serializing it (which renders every id through
  /// the table) requires interning first.
  bool grouping = false;
  std::unordered_map<VariableId, VariableId> substitution;

  /// P↓S for either representation.
  PolynomialSet Apply(
      const AbstractionForest& forest, const PolynomialSet& polys,
      CoefficientCombine combine = CoefficientCombine::kAdd) const;

  /// Human-readable rendering: the chosen cut labels ("{SB, e, F}") or the
  /// merged groups ("{a, b+c}"), deterministically ordered.
  std::string Describe(const AbstractionForest& forest,
                       const VariableTable& vars) const;

  /// For grouping results: replaces each synthesized group representative
  /// with a variable interned into `vars`, named by the group's sorted
  /// '+'-joined members ("plan0+plan3") — after this, Apply's output is
  /// fully table-resident and serializes like any other polynomial set.
  /// No-op for cut results and for untouched singleton groups.
  void InternGrouping(VariableTable& vars);
};

/// Capability record advertised by a compressor, served verbatim over the
/// wire by the ListAlgos request so clients can route without hardcoding
/// algorithm names.
struct CompressorInfo {
  std::string name;
  /// One-line description for --help / remote-info output.
  std::string summary;
  /// Same inputs always yield the same result (all built-ins).
  bool deterministic = false;
  /// The algorithm's machinery can derive the full size/granularity Pareto
  /// frontier (OptimalTradeoffCurve; only "opt").
  bool supports_tradeoff = false;
  /// Guaranteed to return an optimal abstraction when one exists.
  bool exact = false;
  /// Results are tree cuts (a serializable ValidVariableSet); false for
  /// grouping algorithms like "prox". Callers that need a VVS (e.g. the
  /// CLI's --vvs-out) check this BEFORE running the algorithm.
  bool produces_cut = false;
  /// CompressOptions::time_budget_ms is enforced: anytime algorithms
  /// return best-so-far with `budget_exhausted` set, the rest fail with
  /// kOutOfRange. True for all four built-ins; a compressor that cannot
  /// check a deadline must advertise false, and callers that need budget
  /// protection reject it up front (a silently ignored budget is the worst
  /// outcome).
  bool supports_time_budget = false;
};

/// One compression strategy. Implementations must be stateless and
/// thread-safe: the serving layer calls a single instance from many
/// connection threads concurrently.
class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual const CompressorInfo& info() const = 0;

  virtual StatusOr<CompressionResult> Compress(
      const PolynomialSet& polys, const AbstractionForest& forest,
      const CompressOptions& options) const = 0;
};

/// Name → compressor registry. `Default()` is the process-wide instance,
/// pre-populated with the four built-ins; subsystems resolve request
/// strings through it and error messages enumerate what is actually
/// registered. Thread-safe; registered compressors live for the registry's
/// lifetime (process lifetime for Default()).
class CompressorRegistry {
 public:
  /// An empty registry (for tests and embedders composing their own set).
  CompressorRegistry() = default;

  CompressorRegistry(const CompressorRegistry&) = delete;
  CompressorRegistry& operator=(const CompressorRegistry&) = delete;

  /// The process-wide registry with "opt", "greedy", "brute", and "prox"
  /// registered. Constructed on first use (no static-init-order hazards).
  static CompressorRegistry& Default();

  /// Registers a compressor under its info().name. Duplicate names are
  /// rejected (kInvalidArgument) — silently replacing an algorithm another
  /// subsystem already resolved would change results under its feet.
  Status Register(std::unique_ptr<Compressor> compressor);

  /// nullptr when no compressor of that name is registered.
  const Compressor* Find(const std::string& name) const;

  /// Find() with a useful failure: the error lists every registered name.
  StatusOr<const Compressor*> Resolve(const std::string& name) const;

  /// Registered names in sorted order.
  std::vector<std::string> Names() const;

  /// Capability records in name-sorted order (the ListAlgos payload).
  std::vector<CompressorInfo> Infos() const;

  /// "brute, greedy, opt, prox" — for error and usage text.
  std::string NamesCsv() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Compressor>> by_name_;
};

/// Registers the four built-in algorithm adapters into `registry`.
/// Default() calls this on construction; exposed so tests can compose a
/// fresh registry with the same contents.
Status RegisterBuiltinCompressors(CompressorRegistry& registry);

}  // namespace provabs

#endif  // PROVABS_ALGO_COMPRESSOR_H_
