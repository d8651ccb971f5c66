// Randomized incremental-vs-full differential for the delta-aware update
// path (ISSUE 10). Across 30 seeds, every OptimalRecompress that accepts a
// patch must be FIELD-EQUAL to a cold full DP over the grown set — same
// loss, same adequacy, same chosen cut — and the compressed sets the two
// results produce must serialize BYTE-identically. Where the patch is
// declined (delta log truncated, append crossing the cut, headroom
// exhausted, ...) the full DP is authoritative and the differential is
// trivially satisfied; the deterministic tests below pin down that the
// accept and decline paths are both actually exercised.
//
// The add-then-evaluate arm covers the other cache that appends must
// invalidate: the compiled evaluation form (and through it the jit code
// cache, which keys emitted modules on the compiled fingerprint). After an
// Add, EvaluateAll must route through a NEW fingerprint and reproduce the
// naive per-polynomial reference bitwise — a stale module would mis-index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "algo/optimal_single_tree.h"
#include "common/random.h"
#include "core/compiled_polynomial_set.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Naive per-polynomial reference defining the canonical summation order.
std::vector<double> NaiveEvaluateAll(const Valuation& val,
                                     const PolynomialSet& polys) {
  std::vector<double> out;
  out.reserve(polys.count());
  for (const Polynomial& p : polys.polynomials()) {
    out.push_back(val.Evaluate(p));
  }
  return out;
}

std::vector<NodeRef> SortedNodes(const ValidVariableSet& vvs) {
  std::vector<NodeRef> nodes = vvs.nodes();
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

/// Attempts the patch, runs the cold DP, and cross-checks. Returns the
/// result to chain the next stage from (the patched one when it was
/// accepted, so later stages patch on top of patches), and reports whether
/// the patch path answered via `patched_out`.
CompressionResult RecompressAndCompare(const PolynomialSet& polys,
                                       const AbstractionForest& forest,
                                       const VariableTable& vars,
                                       const CompressionResult& prev,
                                       uint64_t from_revision, size_t bound,
                                       bool* patched_out) {
  *patched_out = false;
  PolynomialSetDelta delta = polys.DeltaSince(from_revision);
  RecompressFallback fallback = RecompressFallback::kNone;
  auto patched =
      OptimalRecompress(polys, forest, prev, delta, bound, &fallback);
  auto full = OptimalSingleTree(polys, forest, 0, bound);
  if (patched.status().code() == StatusCode::kInfeasible) {
    // Authoritative infeasibility: the full DP must agree exactly.
    EXPECT_EQ(full.status().code(), StatusCode::kInfeasible);
    CompressionResult roots;
    roots.vvs = ValidVariableSet::AllRoots(forest);
    return roots;
  }
  if (!patched.ok()) {
    // Declined: a fallback reason must have been reported and the caller's
    // full run stands — which may itself be infeasible (the bound stays
    // fixed while the set grows), matching what a fresh request would see.
    EXPECT_EQ(patched.status().code(), StatusCode::kFailedPrecondition)
        << patched.status().ToString();
    EXPECT_NE(fallback, RecompressFallback::kNone);
    if (!full.ok()) {
      EXPECT_EQ(full.status().code(), StatusCode::kInfeasible)
          << full.status().ToString();
      CompressionResult roots;
      roots.vvs = ValidVariableSet::AllRoots(forest);
      return roots;
    }
    return std::move(*full);
  }
  // An accepted patch while the full DP is infeasible would be a real
  // divergence: the patch contract is to return kInfeasible exactly when
  // the full DP would.
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return CompressionResult{};
  *patched_out = true;
  EXPECT_EQ(fallback, RecompressFallback::kNone);

  // Field equality against the cold run.
  EXPECT_EQ(patched->loss.monomial_loss, full->loss.monomial_loss);
  EXPECT_EQ(patched->loss.variable_loss, full->loss.variable_loss);
  EXPECT_EQ(patched->adequate, full->adequate);
  EXPECT_FALSE(patched->budget_exhausted);
  EXPECT_EQ(SortedNodes(patched->vvs), SortedNodes(full->vvs));

  // Byte identity of the compressed artifacts the two results produce.
  std::string patched_bytes =
      SerializePolynomialSet(patched->Apply(forest, polys), vars);
  std::string full_bytes =
      SerializePolynomialSet(full->Apply(forest, polys), vars);
  EXPECT_EQ(patched_bytes, full_bytes);
  return std::move(*patched);
}

/// Tree compatibility allows at most one variable OF THE TREE per
/// monomial; off-tree variables may ride along freely.
Polynomial RandomPolynomial(Rng& rng, const std::vector<VariableId>& leaves,
                            const std::vector<VariableId>& externals,
                            size_t max_monomials) {
  std::vector<Monomial> terms;
  const size_t m = 1 + rng.Uniform(max_monomials);
  for (size_t i = 0; i < m; ++i) {
    std::vector<Factor> f;
    f.push_back({leaves[rng.Uniform(leaves.size())], 1});
    if (!externals.empty() && rng.Bernoulli(0.4)) {
      f.push_back({externals[rng.Uniform(externals.size())], 1});
    }
    terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
  }
  return Polynomial::FromMonomials(std::move(terms));
}

class IncrementalDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDifferentialTest, PatchedEqualsFullAcrossUpdateShapes) {
  Rng rng(61000 + GetParam());
  VariableTable vars;

  const size_t num_leaves = 8 + rng.Uniform(9);
  std::vector<VariableId> leaves;
  for (size_t i = 0; i < num_leaves; ++i) {
    leaves.push_back(vars.Intern("inc" + std::to_string(GetParam()) + "_" +
                                 std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves,
                                  rng.Bernoulli(0.5)
                                      ? std::vector<uint32_t>{2, 2}
                                      : std::vector<uint32_t>{3},
                                  "IT" + std::to_string(GetParam()) + "_"));
  ASSERT_TRUE(forest.Validate().ok());

  std::vector<VariableId> externals;
  for (int i = 0; i < 2; ++i) {
    externals.push_back(vars.Intern("ext" + std::to_string(GetParam()) +
                                    "_" + std::to_string(i)));
  }

  PolynomialSet polys;
  const size_t num_polys = 4 + rng.Uniform(4);
  for (size_t p = 0; p < num_polys; ++p) {
    polys.Add(RandomPolynomial(rng, leaves, externals, 8));
  }
  ASSERT_TRUE(forest.CheckCompatible(polys).ok());

  // Find a feasible bound (bound >= |P|_M always is: the all-leaves cut
  // loses nothing). Half the seeds compress hard (tight bound, more
  // frontier crossings), half stay loose (small k, more accepted patches).
  size_t bound = rng.Bernoulli(0.5)
                     ? 1 + polys.SizeM() / 2
                     : (polys.SizeM() > 8 ? polys.SizeM() - 4
                                          : polys.SizeM());
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  while (!base.ok() &&
         base.status().code() == StatusCode::kInfeasible) {
    bound += 1 + bound / 2;
    base = OptimalSingleTree(polys, forest, 0, bound);
  }
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);
  CompressionResult current = std::move(*base);

  // Stage 1: a single localized add.
  uint64_t rev = polys.revision();
  polys.Add(RandomPolynomial(rng, leaves, externals, 3));
  bool patched = false;
  current = RecompressAndCompare(polys, forest, vars, current, rev, bound,
                                 &patched);

  // Stage 2: a batched add (several polynomials in one delta span).
  rev = polys.revision();
  const size_t batch = 2 + rng.Uniform(3);
  for (size_t i = 0; i < batch; ++i) {
    polys.Add(RandomPolynomial(rng, leaves, externals, 3));
  }
  current = RecompressAndCompare(polys, forest, vars, current, rev, bound,
                                 &patched);

  // Stage 3: an add aimed at the abstracted interior when one exists
  // (crossing the cut frontier — the patch must decline, the full DP
  // stands; RecompressAndCompare asserts both).
  if (current.dp_state != nullptr) {
    const AbstractionTree& tree = forest.tree(0);
    VariableId inner = kInvalidVariable;
    for (const NodeRef& ref : current.vvs.nodes()) {
      const auto& node = tree.node(ref.node);
      if (!node.is_leaf()) {
        inner = tree.node(tree.leaves()[node.leaf_begin]).label;
        break;
      }
    }
    if (inner != kInvalidVariable) {
      rev = polys.revision();
      polys.Add(Polynomial::FromMonomials(
          {Monomial(rng.UniformReal(0.5, 9.5), {{inner, 1}})}));
      current = RecompressAndCompare(polys, forest, vars, current, rev,
                                     bound, &patched);
    }
  }

  // Stage 4: add-then-evaluate. The compiled form (and the jit module
  // keyed on its fingerprint) must be invalidated by the appends: a fresh
  // fingerprint, and registry evaluation bitwise-equal to the naive
  // reference on the grown set.
  Valuation val;
  for (VariableId v : leaves) val.Set(v, rng.UniformReal(0.1, 2.0));
  uint64_t fp_before = polys.Compiled()->fingerprint();
  std::vector<double> warm = val.EvaluateAll(polys);
  std::vector<double> ref = NaiveEvaluateAll(val, polys);
  ASSERT_EQ(warm.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(Bits(warm[i]), Bits(ref[i])) << "polynomial " << i;
  }
  polys.Add(RandomPolynomial(rng, leaves, externals, 3));
  EXPECT_NE(polys.Compiled()->fingerprint(), fp_before);
  std::vector<double> after = val.EvaluateAll(polys);
  std::vector<double> ref_after = NaiveEvaluateAll(val, polys);
  ASSERT_EQ(after.size(), ref_after.size());
  for (size_t i = 0; i < ref_after.size(); ++i) {
    EXPECT_EQ(Bits(after[i]), Bits(ref_after[i])) << "polynomial " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range(0, 30));

// ------------------------------------------------ deterministic anchors

/// A shape where the patch MUST be accepted: the appended polynomial only
/// touches a leaf the cut kept, so no chosen interior is crossed and the
/// default kRetainHeadroom easily covers the growth.
TEST(IncrementalDeterministicTest, LocalizedAddTakesThePatchPath) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(vars.Intern("det" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "DET_"));

  // Every polynomial mentions all eight leaves once, so grouping ONE mid
  // node saves one monomial per polynomial — enough for a bound that only
  // needs a few: the optimal cut abstracts a single pair and keeps the
  // other six leaves chosen as themselves.
  PolynomialSet polys;
  for (int p = 0; p < 6; ++p) {
    std::vector<Monomial> terms;
    for (int m = 0; m < 8; ++m) {
      terms.emplace_back(1.0 + p + 0.25 * m,
                         std::vector<Factor>{{leaves[m], 1}});
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  const size_t bound = polys.SizeM() - 4;
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);

  // Find a leaf the cut kept and append there.
  const AbstractionTree& tree = forest.tree(0);
  VariableId kept = kInvalidVariable;
  for (const NodeRef& ref : base->vvs.nodes()) {
    if (tree.node(ref.node).is_leaf()) {
      kept = tree.node(ref.node).label;
      break;
    }
  }
  ASSERT_NE(kept, kInvalidVariable) << "bound chosen too tight for anchor";

  uint64_t rev = polys.revision();
  polys.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept, 1}})}));
  bool patched = false;
  RecompressAndCompare(polys, forest, vars, *base, rev, bound, &patched);
  EXPECT_TRUE(patched) << "localized add must take the patch path";
}

/// A shape where the patch MUST decline with kCrossesCut: the append lands
/// strictly below a chosen internal node.
TEST(IncrementalDeterministicTest, CrossingAddReportsCrossesCut) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(vars.Intern("crx" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "CRX_"));

  PolynomialSet polys;
  for (int p = 0; p < 6; ++p) {
    std::vector<Monomial> terms;
    for (int m = 0; m < 6; ++m) {
      terms.emplace_back(1.0 + m,
                         std::vector<Factor>{{leaves[(p + m) % 8], 1}});
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  const size_t bound = 1 + polys.SizeM() / 2;
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);

  const AbstractionTree& tree = forest.tree(0);
  VariableId inner = kInvalidVariable;
  for (const NodeRef& ref : base->vvs.nodes()) {
    const auto& node = tree.node(ref.node);
    if (!node.is_leaf()) {
      inner = tree.node(tree.leaves()[node.leaf_begin]).label;
      break;
    }
  }
  ASSERT_NE(inner, kInvalidVariable)
      << "halving bound must abstract some interior";

  uint64_t rev = polys.revision();
  polys.Add(Polynomial::FromMonomials({Monomial(2.0, {{inner, 1}})}));
  PolynomialSetDelta delta = polys.DeltaSince(rev);
  RecompressFallback fallback = RecompressFallback::kNone;
  auto patched =
      OptimalRecompress(polys, forest, *base, delta, bound, &fallback);
  EXPECT_FALSE(patched.ok());
  EXPECT_EQ(fallback, RecompressFallback::kCrossesCut);
  EXPECT_STREQ(RecompressFallbackName(fallback), "crosses_cut");
}

/// Exhausting the delta log must decline with kDeltaIncomplete instead of
/// patching against a hole.
TEST(IncrementalDeterministicTest, TruncatedDeltaLogDeclines) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(vars.Intern("trn" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {2}, "TRN_"));

  PolynomialSet polys;
  for (int p = 0; p < 4; ++p) {
    polys.Add(Polynomial::FromMonomials(
        {Monomial(1.0 + p, {{leaves[p % 4], 1}})}));
  }
  auto base = OptimalSingleTree(polys, forest, 0, polys.SizeM());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_NE(base->dp_state, nullptr);

  uint64_t rev = polys.revision();
  for (size_t i = 0; i < PolynomialSet::kDeltaLogCapacity + 4; ++i) {
    polys.Add(Polynomial::FromMonomials(
        {Monomial(1.0, {{leaves[i % 4], 1}})}));
  }
  PolynomialSetDelta delta = polys.DeltaSince(rev);
  EXPECT_FALSE(delta.complete);
  RecompressFallback fallback = RecompressFallback::kNone;
  auto patched = OptimalRecompress(polys, forest, *base, delta,
                                   polys.SizeM(), &fallback);
  EXPECT_FALSE(patched.ok());
  // The stale bound gate may fire first (|P|_M grew, the bound argument
  // here differs from the retained one) — accept either decline, never a
  // patch.
  EXPECT_NE(fallback, RecompressFallback::kNone);
}

/// The patch gates at their exact limits. The anchor has 8 polynomials
/// each mentioning all 16 leaves once (|P|_M = 128), so abstracting the
/// root can merge up to 120 monomials and every k below stays feasible.
/// `AppendSingles(n)` adds n one-monomial polynomials, one append each.
class IncrementalLimitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 16; ++i) {
      leaves_.push_back(vars_.Intern("lim" + std::to_string(i)));
    }
    forest_.AddTree(BuildUniformTree(vars_, leaves_, {4, 4}, "LIM_"));
    for (int p = 0; p < 8; ++p) {
      std::vector<Monomial> terms;
      for (int m = 0; m < 16; ++m) {
        terms.emplace_back(1.0 + p + 0.125 * m,
                           std::vector<Factor>{{leaves_[m], 1}});
      }
      polys_.Add(Polynomial::FromMonomials(std::move(terms)));
    }
  }

  /// Runs the retained DP at `bound` and records the revision it saw.
  CompressionResult Base(size_t bound) {
    auto base = OptimalSingleTree(polys_, forest_, 0, bound);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_NE(base->dp_state, nullptr);
    base_revision_ = polys_.revision();
    return std::move(*base);
  }

  void AppendSingles(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      polys_.Add(Polynomial::FromMonomials(
          {Monomial(1.5, {{leaves_[i % leaves_.size()], 1}})}));
    }
  }

  /// Declines with exactly `want` when the retained bound is passed.
  void ExpectDecline(const CompressionResult& base, size_t bound,
                     RecompressFallback want) {
    RecompressFallback fallback = RecompressFallback::kNone;
    auto patched = OptimalRecompress(
        polys_, forest_, base, polys_.DeltaSince(base_revision_), bound,
        &fallback);
    EXPECT_EQ(patched.status().code(), StatusCode::kFailedPrecondition)
        << patched.status().ToString();
    EXPECT_EQ(fallback, want) << RecompressFallbackName(fallback);
  }

  VariableTable vars_;
  std::vector<VariableId> leaves_;
  AbstractionForest forest_;
  PolynomialSet polys_;
  uint64_t base_revision_ = 0;
};

/// A bound of |P|_M + kDeltaLogCapacity keeps k at 0 through the whole
/// log, so only the log depth decides: exactly kDeltaLogCapacity appends
/// since the retained revision patch, one more declines.
TEST_F(IncrementalLimitTest, DeltaLogPatchesAtCapacityAndDeclinesBeyond) {
  const size_t bound = polys_.SizeM() + PolynomialSet::kDeltaLogCapacity;
  CompressionResult base = Base(bound);
  AppendSingles(PolynomialSet::kDeltaLogCapacity);
  ASSERT_TRUE(polys_.DeltaSince(base_revision_).complete);
  bool patched = false;
  RecompressAndCompare(polys_, forest_, vars_, base, base_revision_, bound,
                       &patched);
  EXPECT_TRUE(patched) << "a full delta log must patch";

  AppendSingles(1);
  ASSERT_FALSE(polys_.DeltaSince(base_revision_).complete);
  ExpectDecline(base, bound, RecompressFallback::kDeltaIncomplete);
}

/// With k = 0 at the retained run the clamp is exactly kRetainHeadroom, so
/// growing k by kRetainHeadroom patches and by one more declines.
TEST_F(IncrementalLimitTest, HeadroomPatchesAtTheClampAndDeclinesBeyond) {
  const size_t headroom = kRetainHeadroom;
  const size_t bound = polys_.SizeM();
  ASSERT_GE(polys_.SizeM(), headroom);
  CompressionResult base = Base(bound);
  AppendSingles(headroom);
  bool patched = false;
  RecompressAndCompare(polys_, forest_, vars_, base, base_revision_, bound,
                       &patched);
  EXPECT_TRUE(patched) << "growth of exactly kRetainHeadroom must patch";

  AppendSingles(1);
  ExpectDecline(base, bound, RecompressFallback::kHeadroomExhausted);
}

}  // namespace
}  // namespace provabs
