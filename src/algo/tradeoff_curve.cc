#include "algo/tradeoff_curve.h"

#include <algorithm>

#include "algo/optimal_single_tree.h"

namespace provabs {

StatusOr<std::vector<TradeoffPoint>> OptimalTradeoffCurve(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index) {
  auto table = BuildLossTable(polys, forest, tree_index);
  if (!table.ok()) return table.status();
  return OptimalTradeoffCurve(polys, forest, tree_index, **table);
}

StatusOr<std::vector<TradeoffPoint>> OptimalTradeoffCurve(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, const LeafResidualIndex& table) {
  auto profile = internal::RootLossProfile(polys, forest, tree_index, table);
  if (!profile.ok()) return profile.status();

  const size_t size_m = polys.SizeM();
  // Keep only Pareto-optimal entries: scanning monomial loss in DESCENDING
  // order, a point survives iff its variable loss beats every point with
  // larger loss (better compression).
  std::vector<TradeoffPoint> curve;
  uint64_t best_vl = UINT64_MAX;
  for (auto it = profile->rbegin(); it != profile->rend(); ++it) {
    const auto& [ml, vl] = *it;
    if (vl < best_vl) {
      best_vl = vl;
      curve.push_back(TradeoffPoint{size_m - ml, static_cast<size_t>(vl)});
    }
  }
  std::reverse(curve.begin(), curve.end());
  return curve;
}

}  // namespace provabs
