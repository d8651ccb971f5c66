#ifndef PROVABS_ALGO_OPTIMAL_SINGLE_TREE_H_
#define PROVABS_ALGO_OPTIMAL_SINGLE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "abstraction/valid_variable_set.h"
#include "algo/compressor.h"  // CompressionResult (the unified result type)
#include "common/statusor.h"
#include "common/timer.h"
#include "core/polynomial_set.h"

namespace provabs {

/// Extra bucket headroom retained above k = |P|_M − B: the DP arrays are
/// computed at clamp K = min(|P|_M, k + kRetainHeadroom), so a retained
/// result can be re-queried after appends grow |P|_M (hence k) by up to
/// this many monomials without a full re-run. The reported result is
/// provably identical for every headroom value (clamping commutes with the
/// (min,+) convolution; the query runs in the k-clamped view), so the
/// headroom trades DP work for incremental patchability only. Every run
/// that did not exhaust its deadline keeps its per-tree DP tables (arrays,
/// loss table, chosen cut) on the result for OptimalRecompress.
inline constexpr uint32_t kRetainHeadroom = 64;

/// Tuning knobs, exposed for the §4.1 ablation benchmarks.
struct OptimalOptions {
  /// Use hash-map (sparse) DP arrays instead of dense (mostly-⊥) arrays.
  bool sparse_arrays = true;
  /// Skip the children convolution for height-1 nodes (their array is
  /// always {0:0} plus the self entry).
  bool height1_shortcut = true;
  /// Wall-clock cutoff, checked once per node of the bottom-up DP. The DP
  /// is anytime: on expiry the remaining nodes get degraded arrays (the
  /// all-leaves cut plus the node's own singleton), so the run still
  /// returns a VALID cut — adequacy is preserved exactly, optimality is
  /// what expiry trades away — with `budget_exhausted` set on the result.
  /// Default: never expires.
  Deadline deadline;
};

namespace internal {

/// One reachable bucket of a node's DP table.
struct DpEntry {
  uint32_t bucket = 0;  ///< min(ML, clamp).
  bool self = false;    ///< The optimum here is the singleton VVS {v}.
  uint64_t vl = 0;      ///< Minimal variable loss at this bucket.
};

/// Per-node DP table: one entry per reachable bucket, sorted by bucket;
/// absent buckets are ⊥. Flat, so a retained table costs 16 bytes per
/// bucket and one allocation per node.
struct DpNodeArray {
  std::vector<DpEntry> entries;

  /// Keeps `value` at `bucket` when the bucket is ⊥ or `value` is strictly
  /// smaller than what it holds.
  void Offer(uint32_t bucket, uint64_t value, bool self) {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), bucket,
        [](const DpEntry& e, uint32_t b) { return e.bucket < b; });
    if (it == entries.end() || it->bucket != bucket) {
      entries.insert(it, DpEntry{bucket, self, value});
    } else if (value < it->vl) {
      it->vl = value;
      it->self = self;
    }
  }
};

/// Flattened (bucket, vl) snapshots of one node's convolution prefixes
/// τ[0]..τ[w-1] at the clamp the node's array was computed at (entry order
/// is irrelevant — readers project into a dense view first). Retaining
/// them is what makes reconstruction convolution-free: the canonical cut
/// walk only ever needs, per child, the view-projection of two adjacent
/// prefixes, so Reconstruct reads these instead of re-running the (min,+)
/// convolution — the single most expensive step of the whole DP at the
/// root — a second time.
using ConvPrefixes = std::vector<std::vector<std::pair<uint32_t, uint64_t>>>;

/// The optimal DP's retained per-tree tables, carried opaquely on
/// CompressionResult::dp_state. Everything OptimalRecompress needs to
/// patch a previous run after localized appends: the clamp-K node arrays,
/// the loss table the run read (shared, not copied), the chosen cut, and
/// the fingerprints that gate reuse (bound, |P|_M, set revision, tree
/// shape). Immutable once published; Recompress copies it.
struct RetainedDpState {
  explicit RetainedDpState(std::shared_ptr<const LeafResidualIndex> table)
      : index(std::move(table)) {}

  uint32_t tree_index = 0;
  uint64_t bound = 0;
  size_t size_m = 0;        ///< |P|_M the DP ran against.
  uint64_t revision = 0;    ///< PolynomialSet::revision() at run time.
  uint32_t clamp = 0;       ///< Bucket clamp K the arrays hold.
  bool sparse_arrays = true;
  bool height1_shortcut = true;
  /// Tree-shape fingerprint: node count plus the leaf labels in DFS order.
  size_t node_count = 0;
  std::vector<VariableId> leaf_labels;
  /// The loss table the arrays were computed from. A full run shares the
  /// table it was handed (one per artifact generation in the server); a
  /// patched generation holds its own appended copy.
  std::shared_ptr<const LeafResidualIndex> index;
  /// Per-node arrays, individually shared: a patched generation deep-copies
  /// only the arrays on dirty leaf→root paths and aliases the rest, so the
  /// copy-on-patch cost is O(dirty path), not O(tree × clamp). The root's
  /// is null: every patch recomputes it, so keeping the largest array of
  /// the tree would only cost memory. Leaves share one {0:0} array.
  std::vector<std::shared_ptr<const DpNodeArray>> arrays;
  /// Per-node convolution prefixes, shared like `arrays` (null for the
  /// root, leaves, height-1 shortcut nodes, and dense-ablation runs, where
  /// Reconstruct rebuilds them on the fly).
  std::vector<std::shared_ptr<const ConvPrefixes>> prefixes;
  /// The cut chosen on THIS tree (node indices, no other trees' leaves).
  std::vector<NodeIndex> chosen;
};

}  // namespace internal

/// The bound-independent half of Algorithm 1 for tree `tree_index` of
/// `forest` over `polys`: the §4.1 residual index with every node's
/// singleton loss (LeafResidualIndex). One table answers the DP at every
/// bound and the trade-off curve. Returns kInvalidArgument if the tree
/// index is out of range or the tree is incompatible with the polynomials.
StatusOr<std::shared_ptr<const LeafResidualIndex>> BuildLossTable(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index);

/// Algorithm 1 (Optimal Valid Variables Selection): computes an optimal VVS
/// for the single tree `tree_index` of `forest` under monomial bound
/// `bound_b`, in time O(n·w·k²·|P|_M) (Proposition 14). Leaves of the tree
/// that do not occur in `polys` are handled natively (they contribute no
/// loss), so pre-pruning is not required. Builds its own loss table.
///
/// Returns kInfeasible if no VVS of the tree is adequate for `bound_b`
/// (Example 8), and kInvalidArgument if the tree is incompatible with the
/// polynomials.
StatusOr<CompressionResult> OptimalSingleTree(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, size_t bound_b, const OptimalOptions& options = {});

/// The same DP on `table`, a BuildLossTable result for exactly these
/// arguments (checked: same polynomial count and tree node count). The
/// retained DP state shares the table instead of copying it.
StatusOr<CompressionResult> OptimalSingleTree(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, size_t bound_b,
    std::shared_ptr<const LeafResidualIndex> table,
    const OptimalOptions& options = {});

/// Why OptimalRecompress declined to patch and the caller must fall back
/// to the full DP.
enum class RecompressFallback {
  kNone = 0,          ///< Patched successfully.
  kNoState,           ///< prev carries no (or incompatible) retained tables.
  kDeltaIncomplete,   ///< Delta log truncated or revisions don't line up.
  kShapeChanged,      ///< Forest/tree shape differs from the retained run.
  kHeadroomExhausted, ///< New k exceeds the retained bucket clamp.
  kCrossesCut,        ///< An append touches a leaf strictly below a chosen
                      ///< internal node (the abstracted interior).
};

/// Stable lower_snake_case name for logs/counters/tests.
const char* RecompressFallbackName(RecompressFallback fallback);

/// Incrementally re-solves a previous OptimalSingleTree run after `polys`
/// grew by `delta` (appends only). Re-derives only what the delta touched:
/// appended polynomials are folded into a copy of the retained loss table, the
/// DP arrays along dirty leaf→root paths are recomputed, and the root is
/// re-queried at the new k — every untouched array is reused as-is, so the
/// result is field-identical to a full re-run by construction.
///
/// On any gate failure (see RecompressFallback) returns kFailedPrecondition
/// with `fallback` set; the caller runs the full DP instead. Returns
/// kInfeasible exactly when the full DP would.
StatusOr<CompressionResult> OptimalRecompress(
    const PolynomialSet& polys, const AbstractionForest& forest,
    const CompressionResult& prev, const PolynomialSetDelta& delta,
    size_t bound_b, RecompressFallback* fallback = nullptr);

namespace internal {

/// The root DP array of Algorithm 1 run without bucket clamping on
/// `table` (a BuildLossTable result for these arguments): every achievable
/// monomial loss paired with its minimal variable loss, sorted by monomial
/// loss. Exposed for OptimalTradeoffCurve, which derives the whole
/// size/granularity Pareto frontier from one DP run.
StatusOr<std::vector<std::pair<uint32_t, uint64_t>>> RootLossProfile(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, const LeafResidualIndex& table);

}  // namespace internal

}  // namespace provabs

#endif  // PROVABS_ALGO_OPTIMAL_SINGLE_TREE_H_
