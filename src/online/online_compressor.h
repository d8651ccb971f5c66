#ifndef PROVABS_ONLINE_ONLINE_COMPRESSOR_H_
#define PROVABS_ONLINE_ONLINE_COMPRESSOR_H_

#include <functional>
#include <string>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/valid_variable_set.h"
#include "algo/optimal_single_tree.h"
#include "common/random.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "engine/table.h"
#include "online/sampler.h"

namespace provabs {

/// The §6 online-compression pipeline ("Conclusion and Future Work"):
/// instead of materializing the full provenance and compressing it offline,
///   1. draw a sample of the database (group-aware when the query is a
///      GROUP BY, per the paper's heuristic);
///   2. run the provenance query on the sample;
///   3. estimate the full provenance size by extrapolating from a few
///      nested sample rates, and scale the user's bound down accordingly;
///   4. choose a VVS on the sample (greedy, or optimal when the forest is
///      a single tree);
///   5. evaluate the full query with variables pre-grouped through that
///      VVS, so the full-size provenance expression never materializes.
///
/// Step 5 is simulated here by applying the VVS substitution to the full
/// query's annotations as they are produced — equivalent to annotating the
/// input with meta-variables up front.
struct OnlineOptions {
  /// Sampling rates used for the nested size-extrapolation samples. The
  /// last rate is also the decision sample from which the VVS is chosen.
  std::vector<double> sample_rates = {0.05, 0.1, 0.2};
  /// Tables to sample (the fact/grouping relations); others stay intact.
  std::vector<std::string> sampled_tables;
  /// Compression algorithm for the decision sample, resolved through the
  /// CompressorRegistry ("opt", "greedy", "brute", "prox", ...). Empty
  /// keeps the paper's heuristic: optimal when the forest is a single tree
  /// (subject to `use_optimal_when_single_tree`), greedy otherwise.
  std::string algo;
  /// Required when `algo` names a grouping algorithm (no `produces_cut`
  /// capability, e.g. "prox"): the variable table its synthesized group
  /// representatives are interned into, so `OnlineResult::compressed`
  /// stays serializable. Ignored (may be null) for cut-based algorithms.
  VariableTable* vars = nullptr;
  /// Use OptimalSingleTree when the forest has exactly one tree (only
  /// consulted when `algo` is empty).
  bool use_optimal_when_single_tree = true;
  /// Wall-clock budget for the decision-sample compression, forwarded to
  /// CompressOptions::time_budget_ms. The anytime algorithms return their
  /// best-so-far cut on expiry (OnlineResult::budget_exhausted); 0 = none.
  uint64_t time_budget_ms = 0;
  uint64_t seed = 42;
};

/// Diagnostics + result of the online pipeline.
struct OnlineResult {
  /// The abstraction chosen on the sample, in unified form (cut for the
  /// tree algorithms, variable grouping for prox).
  CompressionResult abstraction;
  /// Mirror of `abstraction.vvs` for cut-based algorithms; empty when a
  /// grouping algorithm ran (a grouping is not a cut).
  ValidVariableSet vvs;
  PolynomialSet compressed;          ///< Full provenance, pre-grouped.
  /// The decision sample itself, retained as the warm state AppendOnline
  /// patches against: `abstraction.dp_state` (when the optimal DP ran) is
  /// fingerprinted to this set's revision, so appends can be re-derived
  /// through the delta log instead of a full re-run.
  PolynomialSet decision_sample;
  size_t sample_size_m = 0;          ///< |P_sample|_M at the last rate.
  size_t estimated_full_size_m = 0;  ///< Extrapolated |P_full|_M.
  size_t actual_full_size_m = 0;     ///< True |P_full|_M (for reporting).
  size_t adapted_bound = 0;          ///< Bound used on the sample.
  bool met_bound = false;            ///< |compressed|_M ≤ user bound.
  /// Mirror of `abstraction.budget_exhausted`: the sample compression hit
  /// OnlineOptions::time_budget_ms and returned its best-so-far cut.
  bool budget_exhausted = false;
};

/// A provenance query, re-runnable on any (sub)database.
using ProvenanceQuery = std::function<PolynomialSet(const Database&)>;

/// Runs the online pipeline. `bound_full` is the user's bound on the FULL
/// provenance size. Returns kInvalidArgument for empty rates, and
/// kInfeasible when even the sample admits no adequate abstraction.
StatusOr<OnlineResult> CompressOnline(const Database& db,
                                      const ProvenanceQuery& query,
                                      const AbstractionForest& forest,
                                      size_t bound_full,
                                      const OnlineOptions& options = {});

/// How AppendOnline re-derived the cut after an append.
struct OnlineAppendInfo {
  /// The delta-aware OptimalRecompress answered; the full DP was skipped.
  bool patched = false;
  /// Why patching was declined when it was (kNone while `patched`); the
  /// cut was then re-derived by a full algorithm run.
  RecompressFallback fallback = RecompressFallback::kNone;
};

/// Incremental continuation of the online pipeline under ingestion: folds
/// newly-arrived provenance polynomials (same variable space as the
/// original query's output) into a prior CompressOnline result without
/// re-running the pipeline. The new polynomials are appended to the
/// retained decision sample and the cut is re-derived through the
/// delta-aware OptimalRecompress — a full algorithm re-run happens only
/// when patching is declined (no retained DP state, delta log truncated,
/// append crossing the chosen cut, ...; see OnlineAppendInfo::fallback).
/// The new annotations are then grouped through the cut in force and
/// appended to `result->compressed`; rows emitted earlier keep the
/// grouping under which they were produced (the online model never
/// materializes the exact originals to regroup).
///
/// `options` should be the ones the original CompressOnline ran with (they
/// select the fallback algorithm). The pipeline's adapted bound
/// stays in force so the retained DP tables remain reusable; `met_bound`
/// is re-judged against `bound_full`. Grouping abstractions (e.g. "prox")
/// cannot be patched and are rejected with kInvalidArgument — re-run
/// CompressOnline instead.
Status AppendOnline(const AbstractionForest& forest,
                    const PolynomialSet& added, size_t bound_full,
                    OnlineResult* result, const OnlineOptions& options = {},
                    OnlineAppendInfo* info = nullptr);

}  // namespace provabs

#endif  // PROVABS_ONLINE_ONLINE_COMPRESSOR_H_
