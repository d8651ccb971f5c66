#include "abstraction/loss.h"

#include <algorithm>

#include "common/macros.h"

namespace provabs {

LossReport ComputeLossNaive(const PolynomialSet& polys,
                            const AbstractionForest& forest,
                            const ValidVariableSet& vvs) {
  PolynomialSet abstracted = vvs.Apply(forest, polys);
  LossReport r;
  r.monomial_loss = polys.SizeM() - abstracted.SizeM();
  r.variable_loss = polys.SizeV() - abstracted.SizeV();
  return r;
}

namespace {

// Sentinel standing for "the replaced tree variable" inside residual hashes.
constexpr VariableId kResidualSentinel = 0xFFFFFFFEu;

uint64_t HashResidual(const Monomial& m, VariableId replaced) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001B3ULL;
  };
  // Hash the residual in a canonical form: the remaining factors in their
  // (already sorted) order, then the replaced variable's exponent under the
  // sentinel LAST. Substituting the sentinel positionally instead would
  // make the hash depend on where the tree variable sorts among the other
  // factors, so equal residuals could hash differently when variable ids
  // interleave (this bit the TPC-H workloads, whose s/p ids alternate).
  uint32_t replaced_exp = 0;
  for (const Factor& f : m.factors()) {
    if (f.var == replaced) {
      replaced_exp = f.exp;
      continue;
    }
    mix(f.var);
    mix(f.exp);
  }
  mix(kResidualSentinel);
  mix(replaced_exp);
  return h;
}

/// The deepest ancestor-or-self of leaf node `leaf` whose leaf range holds
/// position `pos`.
NodeIndex DeepestCovering(const AbstractionTree& tree, NodeIndex leaf,
                          uint32_t pos) {
  NodeIndex v = leaf;
  while (pos < tree.node(v).leaf_begin || pos >= tree.node(v).leaf_end) {
    v = tree.node(v).parent;
  }
  return v;
}

/// Open-addressing map from residual key to the leaf position it was last
/// seen at, linear probing, re-sized per polynomial (no growth inside one).
class LastSeen {
 public:
  static constexpr uint32_t kAbsent = 0xFFFFFFFFu;

  /// Empties the map, sized for at most `max_keys` distinct keys.
  void Reset(size_t max_keys) {
    size_t capacity = 16;
    while (capacity < 2 * max_keys) capacity *= 2;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c /= 2) --shift_;
    keys_.resize(capacity);
    positions_.assign(capacity, kAbsent);
  }

  /// The position slot of `key`; a new key's slot holds kAbsent.
  uint32_t& Slot(uint64_t key) {
    const size_t mask = keys_.size() - 1;
    // Fibonacci hashing: the top bits of key · 2^64/φ.
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    for (;; i = (i + 1) & mask) {
      if (positions_[i] == kAbsent) {
        keys_[i] = key;
        return positions_[i];
      }
      if (keys_[i] == key) return positions_[i];
    }
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> positions_;
  int shift_ = 0;
};

}  // namespace

/// Per-polynomial buffers, reused across the polynomials of one pass.
struct LeafResidualIndex::Buffers {
  std::vector<std::pair<uint32_t, uint64_t>> pairs;  // (leaf position, key)
  std::vector<std::pair<uint32_t, uint64_t>> ordered;
  std::vector<uint32_t> counts;
  LastSeen last;
};

LeafResidualIndex::LeafResidualIndex(const PolynomialSet& polys,
                                     const AbstractionTree& tree) {
  const size_t num_leaves = tree.leaves().size();
  leaf_labels_.reserve(num_leaves);
  VariableId max_label = 0;
  for (NodeIndex leaf : tree.leaves()) {
    leaf_labels_.push_back(tree.node(leaf).label);
    max_label = std::max(max_label, tree.node(leaf).label);
  }
  leafpos_.assign(num_leaves == 0 ? 0 : size_t{max_label} + 1, kNoLeaf);
  for (uint32_t i = 0; i < num_leaves; ++i) leafpos_[leaf_labels_[i]] = i;

  // Duplicates are recorded at their LCA, then summed up the tree once.
  dup_below_.assign(tree.node_count(), 0);
  present_below_.assign(tree.node_count(), 0);
  Buffers buffers;
  std::vector<NodeIndex> lcas;
  for (const Polynomial& poly : polys.polynomials()) {
    lcas.clear();
    IndexPolynomial(poly, tree, buffers, lcas);
    for (NodeIndex lca : lcas) ++dup_below_[lca];
  }
  indexed_count_ = polys.count();
  // Pre-order storage puts every parent before its children, so a reverse
  // sweep finishes each subtree sum before adding it to the parent.
  for (size_t v = tree.node_count(); v-- > 1;) {
    const NodeIndex parent = tree.node(static_cast<NodeIndex>(v)).parent;
    dup_below_[parent] += dup_below_[v];
    present_below_[parent] += present_below_[v];
  }
}

void LeafResidualIndex::IndexPolynomial(const Polynomial& poly,
                                        const AbstractionTree& tree,
                                        Buffers& buffers,
                                        std::vector<NodeIndex>& lcas) {
  std::vector<std::pair<uint32_t, uint64_t>>& pairs = buffers.pairs;
  pairs.clear();
  for (const Monomial& m : poly.monomials()) {
    const uint32_t pos = LeafPosOf(m);
    if (pos != kNoLeaf) {
      pairs.emplace_back(pos, HashResidual(m, leaf_labels_[pos]));
    }
  }
  // Leaf order: positions are small integers, so a counting sort, unless
  // the polynomial is much smaller than the tree.
  const size_t num_leaves = leaf_labels_.size();
  const std::vector<std::pair<uint32_t, uint64_t>>* ordered = &pairs;
  if (pairs.size() * 8 < num_leaves) {
    std::sort(pairs.begin(), pairs.end());
  } else {
    buffers.counts.assign(num_leaves + 1, 0);
    for (const auto& pair : pairs) ++buffers.counts[pair.first + 1];
    for (size_t i = 0; i < num_leaves; ++i) {
      buffers.counts[i + 1] += buffers.counts[i];
    }
    buffers.ordered.resize(pairs.size());
    for (const auto& pair : pairs) {
      buffers.ordered[buffers.counts[pair.first]++] = pair;
    }
    ordered = &buffers.ordered;
  }
  // The walk: a repeat of a key is a duplicate at the LCA of its previous
  // and current leaf.
  buffers.last.Reset(pairs.size());
  for (const auto& [pos, key] : *ordered) {
    const NodeIndex leaf = tree.leaves()[pos];
    present_below_[leaf] = 1;
    uint32_t& last = buffers.last.Slot(key);
    if (last != LastSeen::kAbsent) {
      lcas.push_back(DeepestCovering(tree, leaf, last));
    }
    last = pos;
  }
}

uint32_t LeafResidualIndex::LeafPosOf(const Monomial& m) const {
  for (const Factor& f : m.factors()) {
    if (f.var < leafpos_.size() && leafpos_[f.var] != kNoLeaf) {
      // Compatibility guarantees at most one tree variable per monomial.
      return leafpos_[f.var];
    }
  }
  return kNoLeaf;
}

std::vector<uint32_t> LeafResidualIndex::AppendPolynomials(
    const PolynomialSet& polys, const AbstractionTree& tree) {
  std::vector<uint32_t> dirty;
  // Leaves present before this call, so newly present ones can be told
  // apart after IndexPolynomial marks them.
  std::vector<uint8_t> was_present(tree.leaves().size());
  for (uint32_t i = 0; i < was_present.size(); ++i) {
    was_present[i] = present_below_[tree.leaves()[i]] != 0;
  }
  Buffers buffers;
  std::vector<NodeIndex> lcas;
  for (size_t pi = indexed_count_; pi < polys.count(); ++pi) {
    lcas.clear();
    IndexPolynomial(polys[pi], tree, buffers, lcas);
    // A new duplicate raises the loss of its LCA and of every node above.
    for (NodeIndex lca : lcas) {
      for (NodeIndex v = lca; v != kInvalidNode; v = tree.node(v).parent) {
        ++dup_below_[v];
      }
    }
    for (const auto& pair : buffers.pairs) dirty.push_back(pair.first);
  }
  indexed_count_ = polys.count();
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (uint32_t pos : dirty) {
    if (was_present[pos]) continue;
    // IndexPolynomial marked the leaf itself; its ancestors gain it here.
    const NodeIndex leaf = tree.leaves()[pos];
    for (NodeIndex v = tree.node(leaf).parent; v != kInvalidNode;
         v = tree.node(v).parent) {
      ++present_below_[v];
    }
  }
  return dirty;
}

size_t LeafResidualIndex::ApproxBytes() const {
  return sizeof(LeafResidualIndex) +
         leafpos_.capacity() * sizeof(uint32_t) +
         leaf_labels_.capacity() * sizeof(VariableId) +
         dup_below_.capacity() * sizeof(size_t) +
         present_below_.capacity() * sizeof(uint32_t);
}

}  // namespace provabs
