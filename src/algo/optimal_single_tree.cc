#include "algo/optimal_single_tree.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/macros.h"

namespace provabs {

namespace {

using internal::ConvPrefixes;
using internal::DpEntry;
using internal::DpNodeArray;
using internal::RetainedDpState;

constexpr uint64_t kBottom = std::numeric_limits<uint64_t>::max();

/// ⊥ inside the convolution's dense buffers: a large FINITE sentinel, not
/// kBottom, so ⊥ + vl never wraps and the shift-min needs no per-element
/// absence branch (the compiler vectorizes it). Real vl values are bounded
/// by the leaf count, orders of magnitude below it, so ⊥-derived sums
/// never beat a real entry.
constexpr uint64_t kDenseInf = uint64_t{1} << 62;

/// (bucket, vl) pairs, one per bucket, sorted by bucket: a convolution
/// accumulator, or one prefix snapshot.
using Flat = std::vector<std::pair<uint32_t, uint64_t>>;

/// A node's entries folded into `clamp`: buckets at or above it collapse
/// into the clamp bucket (min vl wins). Sorted in, sorted out.
Flat FoldInto(const std::vector<DpEntry>& entries, uint32_t clamp) {
  Flat out;
  out.reserve(entries.size());
  uint64_t tail = kBottom;
  for (const DpEntry& e : entries) {
    if (e.bucket < clamp) {
      out.emplace_back(e.bucket, e.vl);
    } else if (e.vl < tail) {
      tail = e.vl;
    }
  }
  if (tail != kBottom) out.emplace_back(clamp, tail);
  return out;
}

/// Convolution of children arrays (procedure computeArray): combines cuts of
/// independent sibling subtrees; losses add, buckets clamp at `clamp`. When
/// `prefixes` is non-null, snapshots every prefix array τ[0]..τ[w-1] into it
/// (τ[i] = children 0..i folded; τ[w-1] equals the returned array) — the
/// raw material Reconstruct's prefix walk recovers the canonical cut from
/// without running this convolution again.
///
/// Children arrays may be stored at a LARGER clamp than `clamp`: clamping
/// commutes with the (min,+) convolution (min(min(s,c)+min(j,c), c) =
/// min(s+j, c)), so feeding K-clamped arrays through a c-clamped
/// convolution yields exactly the c-clamped result — this is what lets the
/// headroom-retaining DP answer queries in the k-clamped view.
DpNodeArray Convolve(
    const std::vector<const DpNodeArray*>& children, uint32_t clamp,
    ConvPrefixes* prefixes) {
  PROVABS_CHECK(!children.empty());
  // The copy must carry only the child's VALUES: `self` describes the
  // child's own singleton optimum, and a unary parent inheriting it would
  // make Reconstruct emit the parent where the DP actually scored the
  // child's singleton VVS — diverging from the dense ablation arm, whose
  // ConvolveDense never propagates the flag. Raw buckets beyond `clamp`
  // fold into the clamp bucket (min vl wins).
  Flat tau = FoldInto(children[0]->entries, clamp);
  if (prefixes) {
    prefixes->clear();
    prefixes->reserve(children.size());
    prefixes->push_back(tau);
  }
  for (size_t i = 1; i < children.size(); ++i) {
    // Pre-fold the child's raw buckets into the clamp (keeping the minimal
    // vl per folded bucket): min(s + min(j,c), c) == min(s + j, c), so the
    // step's result is unchanged and the inner loops see fewer entries.
    const Flat child_entries = FoldInto(children[i]->entries, clamp);
    // Near the root the accumulator approaches one entry per bucket, and a
    // shift-min over the whole clamp range is fastest. Thinner
    // accumulators combine their (prefix, child) pairs directly: through a
    // dense buffer over the reachable range when the pairs can fill it, by
    // sorting when a few pairs spread over a wide range. Every arm applies
    // the same minimum and emits buckets in order, so results are
    // identical.
    Flat next;
    const uint64_t reach = std::min<uint64_t>(
        clamp, uint64_t{tau.back().first} + child_entries.back().first);
    const size_t pairs = tau.size() * child_entries.size();
    if (tau.size() * 8 > static_cast<size_t>(clamp) + 1) {
      std::vector<uint64_t> dtau(clamp + 1, kDenseInf);
      for (const auto& [s, v] : tau) dtau[s] = v;  // tau is clamped.
      std::vector<uint64_t> dnext(clamp + 1, kDenseInf);
      for (const auto& [j, vl_child] : child_entries) {
        const uint32_t cap = clamp - j;  // s ≥ cap ⇒ s + j clamps.
        uint64_t* PROVABS_RESTRICT out = dnext.data() + j;
        const uint64_t* PROVABS_RESTRICT in = dtau.data();
        for (uint32_t s = 0; s < cap; ++s) {
          const uint64_t vl = in[s] + vl_child;
          if (vl < out[s]) out[s] = vl;
        }
        uint64_t tail = kDenseInf;
        for (uint32_t s = cap; s <= clamp; ++s) {
          if (dtau[s] < tail) tail = dtau[s];
        }
        if (tail + vl_child < dnext[clamp]) dnext[clamp] = tail + vl_child;
      }
      for (uint32_t b = 0; b <= clamp; ++b) {
        if (dnext[b] < kDenseInf) next.emplace_back(b, dnext[b]);
      }
    } else if (pairs * 8 > reach) {
      std::vector<uint64_t> acc(reach + 1, kDenseInf);
      for (const auto& [j, vl_child] : child_entries) {
        for (const auto& [s, vl_prefix] : tau) {
          const uint64_t b = std::min<uint64_t>(uint64_t{s} + j, clamp);
          const uint64_t vl = vl_prefix + vl_child;
          if (vl < acc[b]) acc[b] = vl;
        }
      }
      for (uint32_t b = 0; b <= reach; ++b) {
        if (acc[b] < kDenseInf) next.emplace_back(b, acc[b]);
      }
    } else {
      next.reserve(pairs);
      for (const auto& [s, vl_prefix] : tau) {
        for (const auto& [j, vl_child] : child_entries) {
          next.emplace_back(
              std::min<uint64_t>(uint64_t{s} + j, clamp), vl_prefix + vl_child);
        }
      }
      // Sorted by (bucket, vl): the first entry of each bucket is its min.
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 next.end());
    }
    tau = std::move(next);
    if (prefixes) prefixes->push_back(tau);
  }
  DpNodeArray out;
  // One spare slot for the node's own singleton entry.
  out.entries.reserve(tau.size() + 1);
  for (const auto& [b, v] : tau) out.entries.push_back(DpEntry{b, false, v});
  return out;
}

/// Dense-array variant of the same convolution, used when
/// OptimalOptions::sparse_arrays is false (ablation arm). Produces identical
/// results; only the data structure differs (vectors with ⊥ sentinels).
DpNodeArray ConvolveDense(const std::vector<const DpNodeArray*>& children,
                          uint32_t clamp) {
  PROVABS_CHECK(!children.empty());
  std::vector<uint64_t> tau(clamp + 1, kBottom);
  for (const DpEntry& e : children[0]->entries) {
    uint32_t bucket = std::min(e.bucket, clamp);
    if (e.vl < tau[bucket]) tau[bucket] = e.vl;
  }
  for (size_t i = 1; i < children.size(); ++i) {
    std::vector<uint64_t> dense_child(clamp + 1, kBottom);
    for (const DpEntry& e : children[i]->entries) {
      uint32_t bucket = std::min(e.bucket, clamp);
      if (e.vl < dense_child[bucket]) dense_child[bucket] = e.vl;
    }
    std::vector<uint64_t> next(clamp + 1, kBottom);
    for (uint32_t s = 0; s <= clamp; ++s) {
      if (tau[s] == kBottom) continue;
      for (uint32_t j = 0; j <= clamp; ++j) {
        if (dense_child[j] == kBottom) continue;
        uint32_t bucket = std::min(s + j, clamp);
        uint64_t vl = tau[s] + dense_child[j];
        if (vl < next[bucket]) next[bucket] = vl;
      }
    }
    tau = std::move(next);
  }
  DpNodeArray out;
  for (uint32_t b = 0; b <= clamp; ++b) {
    if (tau[b] != kBottom) out.entries.push_back(DpEntry{b, false, tau[b]});
  }
  return out;
}

/// Whole-algorithm state, so reconstruction can re-run convolutions. The
/// arrays are computed once at clamp K (query k + retained headroom); every
/// query and reconstruction runs in the `view`-clamped projection of those
/// arrays, which is bucket-for-bucket identical to what a direct clamp-view
/// DP would have produced.
struct Solver {
  const AbstractionTree* tree;
  const LeafResidualIndex* index;
  uint32_t clamp;  // K: the clamp the arrays hold.
  bool sparse_arrays = true;
  bool height1_shortcut = true;
  Deadline deadline;
  bool budget_exhausted = false;
  std::vector<DpNodeArray> arrays;         // per node (full runs)
  std::vector<NodeRef>* out_nodes;
  uint32_t tree_index;

  /// Patch mode (OptimalRecompress): reads fall back to the retained
  /// generation's shared per-node arrays and only the nodes recomputed
  /// this run live in `overlay` — the clean majority of the tree is never
  /// copied. unordered_map keeps references stable across inserts, so
  /// child pointers gathered for a convolution survive overlay growth.
  const std::vector<std::shared_ptr<const DpNodeArray>>* base_arrays =
      nullptr;
  std::unordered_map<NodeIndex, DpNodeArray> overlay;

  /// Convolution prefix snapshots, stored alongside the arrays with the
  /// same full/patch split: Reconstruct walks them instead of re-running
  /// the node's convolution. Absent (empty) for leaves, height-1 shortcut
  /// nodes, degraded (budget-expired) nodes, and the dense ablation arm —
  /// Reconstruct then falls back to a one-off view-clamped convolution.
  std::vector<ConvPrefixes> prefix_store;  // per node (full runs)
  const std::vector<std::shared_ptr<const ConvPrefixes>>* base_prefixes =
      nullptr;
  std::unordered_map<NodeIndex, ConvPrefixes> prefix_overlay;

  const DpNodeArray& Arr(NodeIndex v) const {
    if (base_arrays != nullptr) {
      auto it = overlay.find(v);
      if (it != overlay.end()) return it->second;
      return *(*base_arrays)[v];
    }
    return arrays[v];
  }
  DpNodeArray& MutableArr(NodeIndex v) {
    return base_arrays != nullptr ? overlay[v] : arrays[v];
  }
  const ConvPrefixes* PrefixesOf(NodeIndex v) const {
    if (base_arrays != nullptr) {
      auto it = prefix_overlay.find(v);
      if (it != prefix_overlay.end()) {
        return it->second.empty() ? nullptr : &it->second;
      }
      if (base_prefixes != nullptr && (*base_prefixes)[v] != nullptr &&
          !(*base_prefixes)[v]->empty()) {
        return (*base_prefixes)[v].get();
      }
      return nullptr;
    }
    if (v < prefix_store.size() && !prefix_store[v].empty()) {
      return &prefix_store[v];
    }
    return nullptr;
  }

  bool IsHeight1(NodeIndex v) const {
    const auto& n = tree->node(v);
    if (n.is_leaf()) return false;
    for (NodeIndex c : n.children) {
      if (!tree->node(c).is_leaf()) return false;
    }
    return true;
  }

  /// Recomputes one internal node's array from its (already current)
  /// children and its singleton loss, a table lookup. Shared by the full
  /// bottom-up pass and the dirty-path patch pass.
  void ComputeNode(NodeIndex v) {
    const auto& node = tree->node(v);
    DpNodeArray out;
    if (height1_shortcut && IsHeight1(v)) {
      // Children are all leaves: the convolution is trivially {0:0}.
      out.Offer(0, 0, false);
    } else {
      std::vector<const DpNodeArray*> children;
      children.reserve(node.children.size());
      for (NodeIndex c : node.children) children.push_back(&Arr(c));
      if (sparse_arrays) {
        ConvPrefixes prefs;
        out = Convolve(children, clamp, &prefs);
        if (base_arrays != nullptr) {
          prefix_overlay[v] = std::move(prefs);
        } else {
          prefix_store[v] = std::move(prefs);
        }
      } else {
        out = ConvolveDense(children, clamp);
      }
    }
    const LossReport self = index->NodeLoss(v);
    uint32_t self_bucket = std::min<uint64_t>(self.monomial_loss, clamp);
    out.Offer(self_bucket, self.variable_loss, true);
    MutableArr(v) = std::move(out);
  }

  void ComputeArrays() {
    const size_t n = tree->node_count();
    arrays.resize(n);
    prefix_store.resize(n);
    // DFS pre-order storage: reverse iteration is post-order.
    for (size_t i = n; i-- > 0;) {
      NodeIndex v = static_cast<NodeIndex>(i);
      const auto& node = tree->node(v);
      if (node.is_leaf()) {
        arrays[v].Offer(0, 0, false);
        continue;
      }
      // One wall-clock check per node bounds the overrun by a single
      // convolution. Expiry does NOT abort: the remaining nodes get
      // degraded arrays — the all-leaves cut {0:0} plus the node's own
      // singleton — skipping only the convolutions. Every array still
      // contains bucket 0, so reconstruction stays well-defined, and the
      // root's self entry carries the tree-maximal ML, so feasibility at
      // any k is decided exactly as the full DP would.
      if (!budget_exhausted && deadline.Expired()) budget_exhausted = true;
      if (budget_exhausted) {
        const LossReport self = index->NodeLoss(v);
        arrays[v].Offer(0, 0, false);
        uint32_t self_bucket = std::min<uint64_t>(self.monomial_loss, clamp);
        arrays[v].Offer(self_bucket, self.variable_loss, true);
        continue;
      }
      ComputeNode(v);
    }
  }

  /// Minimal vl at `bucket` in the `view`-clamped projection of arrays[v]:
  /// min over raw entries whose bucket clamps to `bucket`.
  uint64_t ViewedGet(NodeIndex v, uint32_t bucket, uint32_t view) const {
    uint64_t best = kBottom;
    for (const DpEntry& e : Arr(v).entries) {
      if (std::min(e.bucket, view) != bucket) continue;
      if (e.vl < best) best = e.vl;
    }
    return best;
  }

  /// Whether the `view`-clamped optimum at `bucket` is the singleton {v}.
  /// Reproduces Offer's strict-improvement rule: the self entry wins only
  /// if it is strictly below every convolution-derived candidate folding
  /// into this bucket. (Raw buckets where self displaced the convolution
  /// value hide a convolution candidate, but that candidate was strictly
  /// larger than the self value there, so the comparison is unaffected.)
  bool ViewedUsesSelf(NodeIndex v, uint32_t bucket, uint32_t view) const {
    uint64_t best_self = kBottom;
    uint64_t best_other = kBottom;
    for (const DpEntry& e : Arr(v).entries) {
      if (std::min(e.bucket, view) != bucket) continue;
      uint64_t& best = e.self ? best_self : best_other;
      if (e.vl < best) best = e.vl;
    }
    return best_self < best_other;
  }

  /// Reconstructs the cut achieving the `view`-clamped arrays[v] at
  /// `bucket` (a view-clamped bucket) into out_nodes.
  void Reconstruct(NodeIndex v, uint32_t bucket, uint32_t view) {
    const auto& node = tree->node(v);
    if (node.is_leaf()) {
      PROVABS_CHECK(bucket == 0);
      out_nodes->push_back(NodeRef{tree_index, v});
      return;
    }
    if (ViewedUsesSelf(v, bucket, view)) {
      out_nodes->push_back(NodeRef{tree_index, v});
      return;
    }
    if (height1_shortcut && IsHeight1(v)) {
      PROVABS_CHECK(bucket == 0);
      for (NodeIndex c : node.children) {
        out_nodes->push_back(NodeRef{tree_index, c});
      }
      return;
    }
    // Degraded (budget-expired) arrays carry no convolution entries beyond
    // bucket 0; the only non-self reconstruction through them is the
    // all-leaves cut, which the recursion below resolves (every child has
    // bucket 0).
    //
    // Prefix walk: recover the canonical split per child from the
    // convolution's retained prefix snapshots instead of re-running the
    // convolution. The snapshots sit at the clamp they were computed at
    // (K for retained DP runs, `view` for the fallback below); the walk
    // reads only their view-projections, which by the clamping lemma are
    // identical either way. Canonical choices reproduce the old
    // split-recording conv exactly: smallest prefix bucket s among optimal
    // (s, child) pairs, then smallest child vl, then smallest child bucket.
    const size_t w = node.children.size();
    std::vector<const DpNodeArray*> children;
    children.reserve(w);
    for (NodeIndex c : node.children) children.push_back(&Arr(c));
    const ConvPrefixes* prefs = PrefixesOf(v);
    ConvPrefixes local;
    if (prefs == nullptr || prefs->size() != w) {
      Convolve(children, view, &local);
      prefs = &local;
    }
    // Dense view-projection of one prefix snapshot: proj[min(b, view)] =
    // min value over folding raw buckets.
    auto project = [&](const std::vector<std::pair<uint32_t, uint64_t>>& fl,
                       std::vector<uint64_t>& out) {
      out.assign(view + 1, kBottom);
      for (const auto& [b, val] : fl) {
        uint32_t pb = std::min(b, view);
        if (val < out[pb]) out[pb] = val;
      }
    };
    std::vector<uint64_t> proj_cur, proj_prev;
    project((*prefs)[w - 1], proj_cur);
    PROVABS_CHECK(proj_cur[bucket] != kBottom);

    // child_buckets[i] = view-clamped bucket of child i in the chosen
    // combination.
    std::vector<uint32_t> child_buckets(w, 0);
    uint32_t j = bucket;
    for (size_t i = w; i-- > 1;) {
      const uint64_t target = proj_cur[j];
      project((*prefs)[i - 1], proj_prev);
      // Child i's entries folded into the view, sorted by bucket.
      const Flat folded = FoldInto(children[i]->entries, view);
      bool found = false;
      uint32_t s_pick = 0, jc_pick = 0;
      if (j < view) {
        // min(s + jc, view) = j < view forces s = j − jc exactly, so the
        // smallest admissible s is the largest admissible jc. Every
        // candidate pair scores ≥ target (it folds into this bucket), so
        // equality identifies a true witness.
        for (size_t e = folded.size(); e-- > 0;) {
          const uint32_t jc = folded[e].first;
          if (jc > j) continue;
          const uint32_t s = j - jc;
          if (proj_prev[s] != kBottom &&
              proj_prev[s] + folded[e].second == target) {
            s_pick = s;
            jc_pick = jc;
            found = true;
            break;
          }
        }
      } else {
        // j == view collects every pair with s + jc ≥ view. An s admits a
        // witness iff the minimal child vl over admissible buckets
        // (jc ≥ view − s) equals target − proj_prev[s] — candidates can
        // only score ≥ target, so min hits it exactly when one exists.
        // Scanning s ascending yields the canonical smallest split.
        std::vector<uint64_t> suffix_min(folded.size() + 1, kBottom);
        for (size_t e = folded.size(); e-- > 0;) {
          suffix_min[e] = std::min(suffix_min[e + 1], folded[e].second);
        }
        for (uint32_t s = 0; s <= view && !found; ++s) {
          if (proj_prev[s] == kBottom || proj_prev[s] > target) continue;
          const uint64_t need = target - proj_prev[s];
          const uint32_t min_jc = view - s;
          size_t e0 = static_cast<size_t>(
              std::lower_bound(folded.begin(), folded.end(),
                               std::make_pair(min_jc, uint64_t{0})) -
              folded.begin());
          if (e0 < folded.size() && suffix_min[e0] == need) {
            for (size_t e = e0; e < folded.size(); ++e) {
              if (folded[e].second == need) {
                s_pick = s;
                jc_pick = folded[e].first;
                found = true;
                break;
              }
            }
          }
        }
      }
      PROVABS_CHECK(found);
      child_buckets[i] = jc_pick;
      j = s_pick;
      proj_cur = std::move(proj_prev);
    }
    child_buckets[0] = j;
    for (size_t i = 0; i < w; ++i) {
      Reconstruct(node.children[i], child_buckets[i], view);
    }
  }
};

/// The retained form of node v's array, as OptimalRecompress reads it:
/// every patch recomputes the root, so the root's array (the largest) is
/// not kept, and all leaves share one {0:0} array.
std::shared_ptr<const DpNodeArray> RetainArray(const AbstractionTree& tree,
                                               NodeIndex v, DpNodeArray&& a) {
  static const std::shared_ptr<const DpNodeArray> kLeaf = [] {
    auto leaf = std::make_shared<DpNodeArray>();
    leaf->Offer(0, 0, false);
    return leaf;
  }();
  if (tree.node(v).is_leaf()) return kLeaf;
  if (v == tree.root()) return nullptr;
  return std::make_shared<DpNodeArray>(std::move(a));
}

/// The retained form of node v's convolution prefixes: none for the root
/// (recomputed by every patch) or for nodes without a convolution.
std::shared_ptr<const ConvPrefixes> RetainPrefixes(
    const AbstractionTree& tree, NodeIndex v, ConvPrefixes&& prefixes) {
  if (v == tree.root() || prefixes.empty()) return nullptr;
  return std::make_shared<ConvPrefixes>(std::move(prefixes));
}

/// Builds the forest-wide result from the cut chosen on `tree_index`:
/// leaves of OTHER trees are untouched by the single-tree algorithm and
/// are appended so the VVS is valid for the whole forest.
///
/// The cut's loss is the SUM of the chosen nodes' singleton losses: chosen
/// nodes cover disjoint leaf ranges and each monomial carries at most one
/// variable of the tree, so monomials merge only within one chosen node's
/// range and vanished/introduced variables never overlap across nodes —
/// the same additivity the DP's (min,+) convolution is built on. Summing
/// table lookups makes finishing O(|cut|) where ComputeLossNaive would
/// materialize the whole compressed set, which matters to the patch path:
/// an O(|P|) finish would swamp the dirty-path recompute it saved. (Like
/// the DP itself, this counts merges by residual-key identity and so
/// relies on provenance coefficients never cancelling to zero — Claim 25.)
CompressionResult FinishResult(std::vector<NodeRef> chosen,
                               const AbstractionForest& forest,
                               uint32_t tree_index,
                               const LeafResidualIndex& index, uint32_t k) {
  LossReport loss;
  for (const NodeRef& ref : chosen) {
    const LossReport self = index.NodeLoss(ref.node);
    loss.monomial_loss += self.monomial_loss;
    loss.variable_loss += self.variable_loss;
  }
  for (uint32_t t = 0; t < forest.tree_count(); ++t) {
    if (t == tree_index) continue;
    for (NodeIndex leaf : forest.tree(t).leaves()) {
      chosen.push_back(NodeRef{t, leaf});
    }
  }
  CompressionResult result;
  result.vvs = ValidVariableSet(std::move(chosen));
  result.loss = loss;
  result.adequate = result.loss.monomial_loss >= k;
  return result;
}

}  // namespace

StatusOr<std::shared_ptr<const LeafResidualIndex>> BuildLossTable(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index) {
  if (tree_index >= forest.tree_count()) {
    return Status::InvalidArgument("tree index out of range");
  }
  const AbstractionTree& tree = forest.tree(tree_index);
  Status compat = tree.CheckCompatible(polys);
  if (!compat.ok()) return compat;
  return std::shared_ptr<const LeafResidualIndex>(
      std::make_shared<LeafResidualIndex>(polys, tree));
}

StatusOr<CompressionResult> OptimalSingleTree(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, size_t bound_b, const OptimalOptions& options) {
  auto table = BuildLossTable(polys, forest, tree_index);
  if (!table.ok()) return table.status();
  return OptimalSingleTree(polys, forest, tree_index, bound_b,
                           std::move(*table), options);
}

StatusOr<CompressionResult> OptimalSingleTree(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, size_t bound_b,
    std::shared_ptr<const LeafResidualIndex> table,
    const OptimalOptions& options) {
  if (tree_index >= forest.tree_count()) {
    return Status::InvalidArgument("tree index out of range");
  }
  const AbstractionTree& tree = forest.tree(tree_index);
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  PROVABS_CHECK(table != nullptr &&
                table->indexed_count() == polys.count() &&
                table->node_count() == tree.node_count());

  const size_t size_m = polys.SizeM();
  const uint32_t k = bound_b >= size_m
                         ? 0u
                         : static_cast<uint32_t>(size_m - bound_b);
  // Arrays are computed with headroom above k so a retained run can absorb
  // appends; the query below always runs in the k-clamped view, so the
  // answer is independent of the headroom.
  const uint32_t clamp = static_cast<uint32_t>(std::min<uint64_t>(
      size_m, static_cast<uint64_t>(k) + kRetainHeadroom));

  Solver solver;
  solver.tree = &tree;
  solver.index = table.get();
  solver.clamp = clamp;
  solver.sparse_arrays = options.sparse_arrays;
  solver.height1_shortcut = options.height1_shortcut;
  solver.deadline = options.deadline;
  solver.tree_index = tree_index;
  solver.ComputeArrays();

  if (solver.ViewedGet(tree.root(), k, k) == kBottom) {
    return Status::Infeasible(
        "no valid variable set of the tree is adequate for the bound");
  }

  std::vector<NodeRef> chosen;
  solver.out_nodes = &chosen;
  solver.Reconstruct(tree.root(), k, k);

  std::vector<NodeIndex> chosen_here;
  chosen_here.reserve(chosen.size());
  for (const NodeRef& ref : chosen) chosen_here.push_back(ref.node);

  CompressionResult result =
      FinishResult(std::move(chosen), forest, tree_index, *table, k);
  result.budget_exhausted = solver.budget_exhausted;
  if (!solver.budget_exhausted) {
    auto state = std::make_shared<RetainedDpState>(std::move(table));
    state->tree_index = tree_index;
    state->bound = bound_b;
    state->size_m = size_m;
    state->revision = polys.revision();
    state->clamp = clamp;
    state->sparse_arrays = options.sparse_arrays;
    state->height1_shortcut = options.height1_shortcut;
    state->node_count = tree.node_count();
    state->leaf_labels.reserve(tree.leaves().size());
    for (NodeIndex leaf : tree.leaves()) {
      state->leaf_labels.push_back(tree.node(leaf).label);
    }
    state->arrays.resize(tree.node_count());
    state->prefixes.resize(tree.node_count());
    for (NodeIndex v = 0; v < tree.node_count(); ++v) {
      state->arrays[v] = RetainArray(tree, v, std::move(solver.arrays[v]));
      state->prefixes[v] =
          RetainPrefixes(tree, v, std::move(solver.prefix_store[v]));
    }
    state->chosen = std::move(chosen_here);
    result.dp_state = std::move(state);
  }
  return result;
}

const char* RecompressFallbackName(RecompressFallback fallback) {
  switch (fallback) {
    case RecompressFallback::kNone: return "none";
    case RecompressFallback::kNoState: return "no_state";
    case RecompressFallback::kDeltaIncomplete: return "delta_incomplete";
    case RecompressFallback::kShapeChanged: return "shape_changed";
    case RecompressFallback::kHeadroomExhausted: return "headroom_exhausted";
    case RecompressFallback::kCrossesCut: return "crosses_cut";
  }
  return "unknown";
}

StatusOr<CompressionResult> OptimalRecompress(
    const PolynomialSet& polys, const AbstractionForest& forest,
    const CompressionResult& prev, const PolynomialSetDelta& delta,
    size_t bound_b, RecompressFallback* fallback) {
  auto fail = [&](RecompressFallback why, const char* message) {
    if (fallback) *fallback = why;
    return Status::FailedPrecondition(message);
  };
  if (fallback) *fallback = RecompressFallback::kNone;
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  if (prev.dp_state == nullptr) {
    return fail(RecompressFallback::kNoState,
                "previous result carries no retained DP tables");
  }
  const RetainedDpState& st = *prev.dp_state;
  if (st.bound != bound_b) {
    return fail(RecompressFallback::kNoState,
                "retained tables were computed for a different bound");
  }
  if (!delta.complete || delta.from_revision != st.revision ||
      delta.to_revision != polys.revision()) {
    return fail(RecompressFallback::kDeltaIncomplete,
                "delta log does not cover the retained revision span");
  }
  if (st.tree_index >= forest.tree_count()) {
    return fail(RecompressFallback::kShapeChanged,
                "retained tree index no longer exists in the forest");
  }
  const AbstractionTree& tree = forest.tree(st.tree_index);
  // The delta gates above proved the prefix is exactly the set the
  // retained run validated, so only the appended suffix needs checking —
  // a whole-set rescan here would put an O(|P|) term on the patch path.
  Status compat = tree.CheckCompatible(polys, delta.first_added_index);
  if (!compat.ok()) return compat;
  bool same_shape = tree.node_count() == st.node_count &&
                    tree.leaves().size() == st.leaf_labels.size();
  if (same_shape) {
    for (size_t i = 0; i < st.leaf_labels.size(); ++i) {
      if (tree.node(tree.leaves()[i]).label != st.leaf_labels[i]) {
        same_shape = false;
        break;
      }
    }
  }
  if (!same_shape) {
    return fail(RecompressFallback::kShapeChanged,
                "tree shape differs from the retained run");
  }
  const size_t size_m = polys.SizeM();
  if (st.size_m + delta.added_monomials != size_m) {
    return fail(RecompressFallback::kDeltaIncomplete,
                "delta monomial count does not reconcile with |P|_M");
  }
  const uint32_t k = bound_b >= size_m
                         ? 0u
                         : static_cast<uint32_t>(size_m - bound_b);
  if (k > st.clamp) {
    return fail(RecompressFallback::kHeadroomExhausted,
                "new k exceeds the retained bucket clamp");
  }

  // Copy-on-patch: the retained state stays immutable for other readers.
  // The per-node arrays are shared pointers, so this copies O(tree) handles
  // plus the loss table — not the DP tables themselves.
  auto next = std::make_shared<RetainedDpState>(st);
  auto index = std::make_shared<LeafResidualIndex>(*st.index);
  const std::vector<uint32_t> dirty_leaves =
      index->AppendPolynomials(polys, tree);
  next->index = index;

  if (!dirty_leaves.empty()) {
    // Frontier test: an append landing strictly below a chosen internal
    // node changes the interior the previous cut abstracted away — the
    // ISSUE's contract is to recompress that from scratch.
    for (NodeIndex c : st.chosen) {
      const auto& node = tree.node(c);
      if (node.is_leaf()) continue;
      for (uint32_t pos : dirty_leaves) {
        if (pos >= node.leaf_begin && pos < node.leaf_end) {
          return fail(RecompressFallback::kCrossesCut,
                      "append touches a leaf inside the abstracted cut");
        }
      }
    }
  }

  Solver solver;
  solver.tree = &tree;
  solver.index = index.get();
  solver.clamp = st.clamp;
  solver.sparse_arrays = st.sparse_arrays;
  solver.height1_shortcut = st.height1_shortcut;
  solver.tree_index = st.tree_index;
  solver.base_arrays = &next->arrays;
  solver.base_prefixes = &next->prefixes;

  // Recompute exactly the ancestors of dirty leaves, bottom-up (reverse
  // pre-order), and the root, whose array is never retained. Clean
  // subtrees' arrays are byte-identical to what a full re-run would
  // compute, so reusing them preserves field-equality; the append already
  // patched the dirty nodes' losses in the table.
  std::vector<char> dirty(tree.node_count(), 0);
  dirty[tree.root()] = 1;
  for (uint32_t pos : dirty_leaves) {
    for (NodeIndex v = tree.leaves()[pos]; v != kInvalidNode && !dirty[v];
         v = tree.node(v).parent) {
      dirty[v] = 1;
    }
  }
  for (size_t i = tree.node_count(); i-- > 0;) {
    NodeIndex v = static_cast<NodeIndex>(i);
    if (!dirty[v] || tree.node(v).is_leaf()) continue;
    solver.ComputeNode(v);
  }

  if (solver.ViewedGet(tree.root(), k, k) == kBottom) {
    return Status::Infeasible(
        "no valid variable set of the tree is adequate for the bound");
  }
  std::vector<NodeRef> chosen;
  solver.out_nodes = &chosen;
  solver.Reconstruct(tree.root(), k, k);

  std::vector<NodeIndex> chosen_here;
  chosen_here.reserve(chosen.size());
  for (const NodeRef& ref : chosen) chosen_here.push_back(ref.node);

  CompressionResult result =
      FinishResult(std::move(chosen), forest, st.tree_index, *index, k);
  // Publish the recomputed arrays; every other node keeps aliasing the
  // previous generation's (identical) table.
  for (auto& [v, arr] : solver.overlay) {
    next->arrays[v] = RetainArray(tree, v, std::move(arr));
  }
  for (auto& [v, prefs] : solver.prefix_overlay) {
    next->prefixes[v] = RetainPrefixes(tree, v, std::move(prefs));
  }
  next->size_m = size_m;
  next->revision = delta.to_revision;
  next->chosen = std::move(chosen_here);
  result.dp_state = std::move(next);
  return result;
}

namespace internal {

StatusOr<std::vector<std::pair<uint32_t, uint64_t>>> RootLossProfile(
    const PolynomialSet& polys, const AbstractionForest& forest,
    uint32_t tree_index, const LeafResidualIndex& table) {
  if (tree_index >= forest.tree_count()) {
    return Status::InvalidArgument("tree index out of range");
  }
  const AbstractionTree& tree = forest.tree(tree_index);
  PROVABS_CHECK(table.indexed_count() == polys.count() &&
                table.node_count() == tree.node_count());

  // clamp = |P|_M exceeds every achievable monomial loss (at least one
  // monomial always survives per non-empty polynomial), so no bucket is
  // clamped and the root array is exact at every entry.
  Solver solver;
  solver.tree = &tree;
  solver.index = &table;
  solver.clamp = static_cast<uint32_t>(polys.SizeM());
  solver.tree_index = tree_index;
  // The default deadline is infinite; the DP cannot degrade.
  solver.ComputeArrays();

  std::vector<std::pair<uint32_t, uint64_t>> profile;
  for (const DpEntry& e : solver.arrays[tree.root()].entries) {
    profile.emplace_back(e.bucket, e.vl);
  }
  return profile;
}

}  // namespace internal

}  // namespace provabs
