#ifndef PROVABS_ALGO_TRADEOFF_CURVE_H_
#define PROVABS_ALGO_TRADEOFF_CURVE_H_

#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"

namespace provabs {

/// One point of the size/granularity trade-off (§2.4): some VVS achieves
/// |P↓S|_M = size_m while keeping variable loss variable_loss, and no VVS
/// with |P↓S|_M ≤ size_m loses fewer variables.
struct TradeoffPoint {
  size_t size_m = 0;
  size_t variable_loss = 0;
};

/// Computes the full Pareto frontier of the (provenance size, variable
/// loss) trade-off for a single abstraction tree, in ONE run of Algorithm
/// 1's dynamic program (the root array already holds, for every achievable
/// monomial loss, the minimal variable loss — Definition 7's precise
/// abstractions). Points are returned with size_m strictly decreasing and
/// variable_loss strictly increasing; the first point has variable loss 0
/// (at the best size achievable for free) and the last is the maximal
/// compression.
///
/// An analyst can read the curve to pick a bound *before* committing to an
/// abstraction — answering "how much granularity does each extra unit of
/// compression cost?", which the paper's formulation implicitly optimizes
/// one bound at a time.
StatusOr<std::vector<TradeoffPoint>> OptimalTradeoffCurve(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index);

/// The same curve from `table`, a BuildLossTable result for these
/// arguments (algo/optimal_single_tree.h), so a caller that already holds
/// the tree's loss table skips rebuilding it.
StatusOr<std::vector<TradeoffPoint>> OptimalTradeoffCurve(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, const LeafResidualIndex& table);

}  // namespace provabs

#endif  // PROVABS_ALGO_TRADEOFF_CURVE_H_
