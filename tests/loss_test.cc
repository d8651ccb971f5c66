#include "abstraction/loss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/polynomial.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

class LossTest : public ::testing::Test {
 protected:
  VariableTable vars_;
};

TEST_F(LossTest, NaiveLossOnIdentityCutIsZero) {
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars_));
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars_.Find("b1"), 1}}),
       Monomial(1.0, {{vars_.Find("b2"), 1}})}));
  LossReport r = ComputeLossNaive(polys, forest,
                                  ValidVariableSet::AllLeaves(forest));
  EXPECT_EQ(r.monomial_loss, 0u);
  EXPECT_EQ(r.variable_loss, 0u);
}

TEST_F(LossTest, ResidualIndexSingleLeafNodeHasNoLoss) {
  AbstractionTree tree = MakeFigure2PlansTree(vars_);
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars_.Find("b1"), 1}})}));
  LeafResidualIndex index(polys, tree);
  NodeIndex b1 = tree.FindLabel(vars_.Find("b1"));
  LossReport r = index.NodeLoss(b1);
  EXPECT_EQ(r.monomial_loss, 0u);
  EXPECT_EQ(r.variable_loss, 0u);
}

TEST_F(LossTest, ResidualIndexMatchesExample13SB) {
  // From Example 13: abstracting SB (over b1, b2) merges two monomial pairs
  // of P2 (ML = 2) and loses one variable (VL = 1).
  AbstractionTree tree = MakeFigure2PlansTree(vars_);
  VariableId m1 = vars_.Intern("m1");
  VariableId m3 = vars_.Intern("m3");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({
      Monomial(77.9, {{vars_.Find("b1"), 1}, {m1, 1}}),
      Monomial(80.5, {{vars_.Find("b1"), 1}, {m3, 1}}),
      Monomial(52.2, {{vars_.Find("e"), 1}, {m1, 1}}),
      Monomial(56.5, {{vars_.Find("e"), 1}, {m3, 1}}),
      Monomial(69.7, {{vars_.Find("b2"), 1}, {m1, 1}}),
      Monomial(100.65, {{vars_.Find("b2"), 1}, {m3, 1}}),
  }));
  LeafResidualIndex index(polys, tree);
  NodeIndex sb = tree.FindLabel(vars_.Find("SB"));
  LossReport r = index.NodeLoss(sb);
  EXPECT_EQ(r.monomial_loss, 2u);
  EXPECT_EQ(r.variable_loss, 1u);
}

TEST_F(LossTest, ResidualIndexDoesNotMergeAcrossPolynomials) {
  // b1·m1 in polynomial 1 and b2·m1 in polynomial 2 must NOT merge when
  // grouping SB: monomials of different polynomials are distinct.
  AbstractionTree tree = MakeFigure2PlansTree(vars_);
  VariableId m1 = vars_.Intern("m1");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars_.Find("b1"), 1}, {m1, 1}})}));
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars_.Find("b2"), 1}, {m1, 1}})}));
  LeafResidualIndex index(polys, tree);
  NodeIndex sb = tree.FindLabel(vars_.Find("SB"));
  LossReport r = index.NodeLoss(sb);
  EXPECT_EQ(r.monomial_loss, 0u);
  EXPECT_EQ(r.variable_loss, 1u);
}

TEST_F(LossTest, ResidualIndexRespectsExponents) {
  // b1²·m1 and b2·m1 do not merge under SB (SB² vs SB).
  AbstractionTree tree = MakeFigure2PlansTree(vars_);
  VariableId m1 = vars_.Intern("m1");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars_.Find("b1"), 2}, {m1, 1}}),
       Monomial(1.0, {{vars_.Find("b2"), 1}, {m1, 1}})}));
  LeafResidualIndex index(polys, tree);
  NodeIndex sb = tree.FindLabel(vars_.Find("SB"));
  EXPECT_EQ(index.NodeLoss(sb).monomial_loss, 0u);
}

TEST_F(LossTest, ResidualIndexAbsentLeavesAreInactive) {
  AbstractionTree tree = MakeFigure2PlansTree(vars_);
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars_.Find("f1"), 1}})}));
  LeafResidualIndex index(polys, tree);
  NodeIndex f = tree.FindLabel(vars_.Find("F"));
  // Only f1 occurs: grouping F = {f1, f2} has no present pair to merge.
  LossReport r = index.NodeLoss(f);
  EXPECT_EQ(r.monomial_loss, 0u);
  EXPECT_EQ(r.variable_loss, 0u);
  EXPECT_EQ(index.PresentLeavesBelow(f), 1u);
}

// Regression: residual hashing must be insensitive to where the tree
// variable sorts among the other factors. With interleaved ids (a < m1 <
// b, as TPC-H's alternating s/p interning produces), a·m1 has the tree
// variable first and b·m1 has it last; both monomials must still merge
// under the AB group. The original positional hash missed this.
TEST_F(LossTest, ResidualIndexHandlesInterleavedVariableIds) {
  VariableTable vars;
  VariableId a = vars.Intern("a");       // id 0 — tree leaf
  VariableId m1 = vars.Intern("mm");     // id 1 — non-tree factor
  VariableId b = vars.Intern("b");       // id 2 — tree leaf
  AbstractionTreeBuilder builder(vars);
  NodeIndex root = builder.AddRoot("AB");
  builder.AddChild(root, "a");
  builder.AddChild(root, "b");
  AbstractionTree tree = std::move(builder).Build();

  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{a, 1}, {m1, 1}}), Monomial(2.0, {{b, 1}, {m1, 1}})}));
  LeafResidualIndex index(polys, tree);
  LossReport r = index.NodeLoss(tree.root());
  EXPECT_EQ(r.monomial_loss, 1u);  // a·m1 and b·m1 merge into AB·m1.
  EXPECT_EQ(r.variable_loss, 1u);

  // And the exponent must still distinguish: a²·m1 vs b·m1 do not merge.
  PolynomialSet polys2;
  polys2.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{a, 2}, {m1, 1}}), Monomial(2.0, {{b, 1}, {m1, 1}})}));
  LeafResidualIndex index2(polys2, tree);
  EXPECT_EQ(index2.NodeLoss(tree.root()).monomial_loss, 0u);
}

// Property: for every node v of random trees over random polynomials, the
// table's NodeLoss equals the loss of the naive singleton-cut computation
// {v} ∪ other-leaves — after the build, and after each of several
// AppendPolynomials calls, where the patched table must also equal a fresh
// index over the grown set node for node. The instances cover:
//   - unary chains (random fanouts in {1, 2, 3}) and uniform trees;
//   - leaves absent from P (only part of the leaves is ever used);
//   - one leaf carrying several residuals of one polynomial, including
//     residuals that differ only in the tree variable's exponent, and
//     residuals repeated at many leaves (the duplicates the loss counts);
//   - interleaved variable ids (non-tree variables interned between the
//     leaves, the TPC-H hashing case HashResidual guards against).
class LossPropertyTest : public ::testing::TestWithParam<int> {};

/// A random tree whose links have fanout 1 (a unary chain link), 2 or 3,
/// over freshly interned leaves; `others` get interned between them.
AbstractionTree RandomTreeWithUnaryChains(Rng& rng, VariableTable& vars,
                                          const std::string& prefix,
                                          std::vector<VariableId>* leaves,
                                          std::vector<VariableId>* others) {
  AbstractionTreeBuilder builder(vars);
  int next_meta = 0;
  std::function<void(NodeIndex, int)> grow = [&](NodeIndex node, int depth) {
    if (depth >= 3 || (depth > 0 && rng.Bernoulli(0.3))) {
      const size_t fanout = 1 + rng.Uniform(3);
      for (size_t c = 0; c < fanout; ++c) {
        std::string name = prefix + "x" + std::to_string(leaves->size());
        leaves->push_back(vars.Intern(name));
        builder.AddChild(node, name);
        if (leaves->size() == 3) {
          others->push_back(vars.Intern(prefix + "o1"));
          others->push_back(vars.Intern(prefix + "o2"));
        }
      }
      return;
    }
    const size_t fanout = 1 + rng.Uniform(3);
    for (size_t c = 0; c < fanout; ++c) {
      grow(builder.AddChild(node, prefix + "M" + std::to_string(next_meta++)),
           depth + 1);
    }
  };
  grow(builder.AddRoot(prefix + "Root"), 0);
  if (others->empty()) {
    others->push_back(vars.Intern(prefix + "o1"));
    others->push_back(vars.Intern(prefix + "o2"));
  }
  return std::move(builder).Build();
}

/// One polynomial over a random subset of `used` leaves: a leaf gets
/// several monomials (different rests, exponent 1 or 2), and a rest
/// recurs across leaves.
Polynomial RandomPolynomial(Rng& rng, const std::vector<VariableId>& used,
                            const std::vector<VariableId>& others) {
  std::vector<Monomial> terms;
  const size_t n_terms = 4 + rng.Uniform(20);
  for (size_t t = 0; t < n_terms; ++t) {
    std::vector<Factor> f;
    if (rng.Bernoulli(0.9)) {
      f.push_back({used[rng.Uniform(used.size())],
                   rng.Bernoulli(0.2) ? 2u : 1u});
    }
    for (VariableId o : others) {
      if (rng.Bernoulli(0.4)) f.push_back({o, 1});
    }
    terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
  }
  return Polynomial::FromMonomials(std::move(terms));
}

void ExpectTableMatchesNaive(const LeafResidualIndex& index,
                             const PolynomialSet& polys,
                             const AbstractionForest& forest,
                             const std::string& where) {
  const AbstractionTree& tree = forest.tree(0);
  ASSERT_EQ(index.node_count(), tree.node_count());
  for (NodeIndex v = 0; v < tree.node_count(); ++v) {
    // Naive: cut = {v} plus every leaf outside v's subtree.
    ValidVariableSet vvs;
    vvs.Add(NodeRef{0, v});
    const auto& node = tree.node(v);
    for (uint32_t i = 0; i < tree.leaves().size(); ++i) {
      if (i >= node.leaf_begin && i < node.leaf_end) continue;
      vvs.Add(NodeRef{0, tree.leaves()[i]});
    }
    ASSERT_TRUE(vvs.Validate(forest).ok());
    LossReport naive = ComputeLossNaive(polys, forest, vvs);
    LossReport indexed = index.NodeLoss(v);
    EXPECT_EQ(indexed.monomial_loss, naive.monomial_loss)
        << where << ", node " << v;
    EXPECT_EQ(indexed.variable_loss, naive.variable_loss)
        << where << ", node " << v;
  }
}

TEST_P(LossPropertyTest, ResidualIndexAgreesWithNaive) {
  Rng rng(1000 + GetParam());
  VariableTable vars;
  const std::string prefix = "T" + std::to_string(GetParam()) + "_";

  std::vector<VariableId> leaves;
  std::vector<VariableId> others;
  AbstractionForest forest;
  if (GetParam() % 2 == 0) {
    forest.AddTree(
        RandomTreeWithUnaryChains(rng, vars, prefix, &leaves, &others));
  } else {
    const size_t num_leaves = 8 + rng.Uniform(12);
    for (size_t i = 0; i < num_leaves; ++i) {
      leaves.push_back(vars.Intern(prefix + "L" + std::to_string(i)));
      if (i == num_leaves / 2) {
        others.push_back(vars.Intern(prefix + "o1"));
        others.push_back(vars.Intern(prefix + "o2"));
      }
    }
    const std::vector<std::vector<uint32_t>> shapes = {
        {2}, {3}, {2, 2}, {2, 3}};
    forest.AddTree(BuildUniformTree(
        vars, leaves, shapes[rng.Uniform(shapes.size())], prefix));
  }
  ASSERT_TRUE(forest.Validate().ok());
  const AbstractionTree& tree = forest.tree(0);

  // Roughly a quarter of the leaves never occur in P.
  std::vector<VariableId> used;
  for (VariableId leaf : leaves) {
    if (rng.Bernoulli(0.75)) used.push_back(leaf);
  }
  if (used.empty()) used.push_back(leaves[0]);

  PolynomialSet polys;
  const size_t initial = 1 + rng.Uniform(4);
  for (size_t p = 0; p < initial; ++p) {
    polys.Add(RandomPolynomial(rng, used, others));
  }
  ASSERT_TRUE(forest.CheckCompatible(polys).ok());
  LeafResidualIndex index(polys, tree);
  ExpectTableMatchesNaive(index, polys, forest, "build");

  // Appends: 1..4 batches of 1..3 polynomials. Later batches may reach
  // leaves no earlier polynomial used, so leaves turn present mid-stream.
  used = leaves;
  const size_t batches = 1 + rng.Uniform(4);
  for (size_t b = 0; b < batches; ++b) {
    const size_t before = polys.count();
    const size_t count = 1 + rng.Uniform(3);
    for (size_t p = 0; p < count; ++p) {
      polys.Add(RandomPolynomial(rng, used, others));
    }
    ASSERT_TRUE(forest.CheckCompatible(polys).ok());
    std::vector<uint32_t> dirty = index.AppendPolynomials(polys, tree);
    EXPECT_EQ(index.indexed_count(), polys.count());
    // Dirty = exactly the leaf positions the appended polynomials touch.
    std::vector<uint32_t> touched;
    for (size_t pi = before; pi < polys.count(); ++pi) {
      for (const Monomial& m : polys[pi].monomials()) {
        for (const Factor& f : m.factors()) {
          const NodeIndex leaf = tree.FindLabel(f.var);
          if (leaf == kInvalidNode) continue;
          touched.push_back(tree.node(leaf).leaf_begin);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    EXPECT_EQ(dirty, touched) << "append " << b;

    const std::string where = "after append " + std::to_string(b);
    LeafResidualIndex fresh(polys, tree);
    for (NodeIndex v = 0; v < tree.node_count(); ++v) {
      EXPECT_EQ(index.NodeLoss(v), fresh.NodeLoss(v)) << where << ", node "
                                                      << v;
      EXPECT_EQ(index.PresentLeavesBelow(v), fresh.PresentLeavesBelow(v))
          << where << ", node " << v;
    }
    ExpectTableMatchesNaive(index, polys, forest, where);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LossPropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace provabs
