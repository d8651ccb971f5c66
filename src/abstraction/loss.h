#ifndef PROVABS_ABSTRACTION_LOSS_H_
#define PROVABS_ABSTRACTION_LOSS_H_

#include <cstdint>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/abstraction_tree.h"
#include "abstraction/valid_variable_set.h"
#include "core/polynomial_set.h"

namespace provabs {

/// The two loss measures of §3.1: monomial loss ML(S) = |P|_M − |P↓S|_M and
/// variable loss VL(S) = |P|_V − |P↓S|_V.
struct LossReport {
  size_t monomial_loss = 0;
  size_t variable_loss = 0;

  friend bool operator==(const LossReport& a, const LossReport& b) {
    return a.monomial_loss == b.monomial_loss &&
           a.variable_loss == b.variable_loss;
  }
};

/// Reference implementation: applies the VVS and re-counts. O(|P|_M) per
/// call — used by tests, the brute-force baseline, and as the "naive"
/// arm of the ML-computation ablation benchmark.
LossReport ComputeLossNaive(const PolynomialSet& polys,
                            const AbstractionForest& forest,
                            const ValidVariableSet& vvs);

/// The §4.1 "Efficient ML computation" index, kept as the opt DP's loss
/// table: every tree node's singleton loss, computed in one pass over the
/// polynomials when the index is built. Nothing in it depends on the
/// monomial bound, so one table over a (polynomial set, tree) pair answers
/// the DP at every bound, and NodeLoss is a lookup.
///
/// Abstracting node v merges two monomials of one polynomial exactly when
/// their leaves lie below v and their residuals agree — the monomial with
/// its tree variable replaced by a sentinel, hashed (64-bit; collisions
/// are possible in principle but astronomically unlikely, and the exact
/// ComputeLossNaive() is available wherever certainty is required). So
/// ML({v}) = Σ over residual keys of (occurrences below v − 1, if any).
///
/// One pass. Monomials of different polynomials never merge, so the build
/// takes one polynomial at a time and walks its monomials in leaf (DFS)
/// order, remembering in a flat open-addressing table the last leaf
/// position each residual key was seen at. A repeat of a key at position
/// i, last seen at position p, records one duplicate at LCA(p, i) — the
/// deepest ancestor of leaf i whose leaf range starts at or before p.
/// Summing duplicates up the tree gives every node's monomial loss: leaf
/// ranges are DFS-contiguous, so a key's occurrences below v are one run
/// of its position-sorted list, and exactly run-length − 1 of its
/// consecutive pairs meet inside v. Present-leaf counts are summed the
/// same way for the variable loss. The keys are not kept.
///
/// Appends. AppendPolynomials runs the same pass over polynomials added
/// since the build, adding each new duplicate to its LCA and every node
/// above it (the dirty leaf→root paths), and each newly present leaf to
/// its ancestors. Appended polynomials only merge among their own
/// monomials, so the patched table equals a fresh index over the grown
/// set, node for node.
class LeafResidualIndex {
 public:
  /// Builds the table for `tree` over `polys`. The tree must be compatible
  /// with the polynomials (≤1 tree variable per monomial).
  LeafResidualIndex(const PolynomialSet& polys, const AbstractionTree& tree);

  /// Loss of the singleton VVS {v} relative to the indexed polynomials:
  /// ml = monomials merged away by grouping all leaves below v;
  /// vl = (#present descendant leaves − 1), clamped at 0.
  LossReport NodeLoss(NodeIndex v) const {
    const uint32_t present = present_below_[v];
    return LossReport{dup_below_[v], present > 0 ? present - 1u : 0u};
  }

  /// Number of leaves below `v` whose variable actually occurs in the
  /// polynomials.
  size_t PresentLeavesBelow(NodeIndex v) const { return present_below_[v]; }

  /// Number of tree nodes the table covers.
  size_t node_count() const { return dup_below_.size(); }

  /// Rough resident size, for cache accounting.
  size_t ApproxBytes() const;

  /// Indexes the polynomials appended since the build (or the previous
  /// append), [indexed_count, polys.count()), and patches the node losses
  /// they change. `polys` must be the indexed set plus appends, and `tree`
  /// shape-identical to the tree the index was built for (same nodes and
  /// leaf labels in DFS order). Returns the dirty leaf positions (sorted,
  /// distinct): every node whose loss changed is an ancestor of one.
  std::vector<uint32_t> AppendPolynomials(const PolynomialSet& polys,
                                          const AbstractionTree& tree);

  /// Number of polynomials this index has consumed.
  size_t indexed_count() const { return indexed_count_; }

 private:
  static constexpr uint32_t kNoLeaf = 0xFFFFFFFFu;

  /// Leaf position of the (single) tree variable in `m`, or kNoLeaf.
  uint32_t LeafPosOf(const Monomial& m) const;

  struct Buffers;  // Per-polynomial buffers (loss.cc).

  /// Marks the leaves `poly` occurs at present and appends to `lcas` the
  /// LCA of each duplicate residual pair.
  void IndexPolynomial(const Polynomial& poly, const AbstractionTree& tree,
                       Buffers& buffers, std::vector<NodeIndex>& lcas);

  /// Variable id -> leaf position (kNoLeaf for non-leaves); ids are dense.
  std::vector<uint32_t> leafpos_;
  /// Leaf position -> leaf label, the variable a residual key replaces.
  std::vector<VariableId> leaf_labels_;
  /// Per node: duplicate residuals below it (its monomial loss), and
  /// leaves below it that occur in the polynomials.
  std::vector<size_t> dup_below_;
  std::vector<uint32_t> present_below_;
  size_t indexed_count_ = 0;
};

}  // namespace provabs

#endif  // PROVABS_ABSTRACTION_LOSS_H_
