#include "algo/compressor.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/brute_force.h"
#include "algo/greedy_multi_tree.h"
#include "algo/optimal_single_tree.h"
#include "algo/prox_summarizer.h"
#include "common/random.h"
#include "io/serializer.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

// -------------------------------------------------- registry mechanics --

/// A minimal stub compressor for registration tests.
class StubCompressor : public Compressor {
 public:
  explicit StubCompressor(std::string name) {
    info_.name = std::move(name);
    info_.summary = "stub";
    info_.deterministic = true;
  }

  const CompressorInfo& info() const override { return info_; }

  StatusOr<CompressionResult> Compress(
      const PolynomialSet&, const AbstractionForest&,
      const CompressOptions&) const override {
    return Status::Unimplemented("stub");
  }

 private:
  CompressorInfo info_;
};

TEST(CompressorRegistryTest, DefaultRegistryHasAllFourBuiltins) {
  std::vector<std::string> names = CompressorRegistry::Default().Names();
  ASSERT_EQ(names.size(), 4u);
  // std::map order: sorted.
  EXPECT_EQ(names[0], "brute");
  EXPECT_EQ(names[1], "greedy");
  EXPECT_EQ(names[2], "opt");
  EXPECT_EQ(names[3], "prox");
}

TEST(CompressorRegistryTest, BuiltinCapabilitiesMatchTheAlgorithms) {
  std::vector<CompressorInfo> infos = CompressorRegistry::Default().Infos();
  ASSERT_EQ(infos.size(), 4u);
  // brute: exact, no tradeoff machinery.
  EXPECT_EQ(infos[0].name, "brute");
  EXPECT_TRUE(infos[0].exact);
  EXPECT_FALSE(infos[0].supports_tradeoff);
  EXPECT_TRUE(infos[0].produces_cut);
  // greedy: heuristic.
  EXPECT_EQ(infos[1].name, "greedy");
  EXPECT_FALSE(infos[1].exact);
  EXPECT_TRUE(infos[1].produces_cut);
  // opt: exact and the only one whose DP derives the Pareto frontier.
  EXPECT_EQ(infos[2].name, "opt");
  EXPECT_TRUE(infos[2].exact);
  EXPECT_TRUE(infos[2].supports_tradeoff);
  EXPECT_TRUE(infos[2].produces_cut);
  // prox: competitor heuristic producing a grouping, not a cut.
  EXPECT_EQ(infos[3].name, "prox");
  EXPECT_FALSE(infos[3].exact);
  EXPECT_FALSE(infos[3].produces_cut);
  for (const CompressorInfo& info : infos) {
    EXPECT_TRUE(info.deterministic) << info.name;
    EXPECT_FALSE(info.summary.empty()) << info.name;
    // Every built-in enforces CompressOptions::time_budget_ms (each at its
    // own check granularity); none silently ignores it.
    EXPECT_TRUE(info.supports_time_budget) << info.name;
  }
}

TEST(CompressorRegistryTest, RegistrationAndLookup) {
  CompressorRegistry registry;
  EXPECT_EQ(registry.Find("x"), nullptr);
  ASSERT_TRUE(registry.Register(std::make_unique<StubCompressor>("x")).ok());
  EXPECT_NE(registry.Find("x"), nullptr);
  EXPECT_EQ(registry.Names().size(), 1u);
}

TEST(CompressorRegistryTest, DuplicateNameIsRejected) {
  CompressorRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_unique<StubCompressor>("x")).ok());
  Status dup = registry.Register(std::make_unique<StubCompressor>("x"));
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  // The original registration survives.
  EXPECT_NE(registry.Find("x"), nullptr);
  EXPECT_EQ(registry.Names().size(), 1u);
}

TEST(CompressorRegistryTest, NullAndUnnamedRegistrationsAreRejected) {
  CompressorRegistry registry;
  EXPECT_EQ(registry.Register(nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(std::make_unique<StubCompressor>("")).code(),
            StatusCode::kInvalidArgument);
}

TEST(CompressorRegistryTest, UnknownLookupEnumeratesRegisteredNames) {
  auto resolved = CompressorRegistry::Default().Resolve("quantum");
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  std::string message = resolved.status().message();
  EXPECT_NE(message.find("quantum"), std::string::npos);
  EXPECT_NE(message.find("brute, greedy, opt, prox"), std::string::npos);
}

TEST(CompressorRegistryTest, FreshRegistryWithBuiltinsMatchesDefault) {
  CompressorRegistry registry;
  ASSERT_TRUE(RegisterBuiltinCompressors(registry).ok());
  EXPECT_EQ(registry.Names(), CompressorRegistry::Default().Names());
  // Registering the builtins twice trips duplicate detection.
  EXPECT_FALSE(RegisterBuiltinCompressors(registry).ok());
}

// ---------------------------------------------- adapter equivalence -----

/// Telephony workload fixture shared by the differential tests.
class RegistryDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TelephonyConfig config;
    config.num_customers = 300;
    config.num_plans = 32;
    config.num_months = 12;
    config.num_zip_codes = 8;
    Rng rng(config.seed);
    Database db = GenerateTelephony(config, rng);
    tv_ = MakeTelephonyVars(vars_, config);
    polys_ = RunTelephonyQuery(db, tv_);
    forest_.AddTree(BuildUniformTree(vars_, tv_.plan_vars, {4, 2}, "RD_"));
    ASSERT_TRUE(forest_.Validate().ok());
    ASSERT_TRUE(forest_.CheckCompatible(polys_).ok());
    bound_ = polys_.SizeM() * 3 / 4;
  }

  VariableTable vars_;
  TelephonyVars tv_;
  PolynomialSet polys_;
  AbstractionForest forest_;
  size_t bound_ = 0;
};

/// Registry routing must be a pure indirection: the compressed artifact a
/// registry-routed run produces serializes to the SAME BYTES as the direct
/// algorithm call's. Anything else would make cache entries and shipped
/// artifacts depend on which API layer compressed them.
TEST_F(RegistryDifferentialTest, OptRouteIsByteIdenticalToDirectCall) {
  auto direct = OptimalSingleTree(polys_, forest_, 0, bound_);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  CompressOptions options;
  options.bound = bound_;
  auto routed = CompressorRegistry::Default().Find("opt")->Compress(
      polys_, forest_, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  EXPECT_EQ(routed->loss.monomial_loss, direct->loss.monomial_loss);
  EXPECT_EQ(routed->loss.variable_loss, direct->loss.variable_loss);
  EXPECT_EQ(routed->adequate, direct->adequate);
  EXPECT_EQ(routed->Describe(forest_, vars_),
            direct->vvs.ToString(forest_, vars_));
  EXPECT_EQ(
      SerializePolynomialSet(routed->Apply(forest_, polys_), vars_),
      SerializePolynomialSet(direct->vvs.Apply(forest_, polys_), vars_));
}

TEST_F(RegistryDifferentialTest, GreedyRouteIsByteIdenticalToDirectCall) {
  auto direct = GreedyMultiTree(polys_, forest_, bound_);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  CompressOptions options;
  options.bound = bound_;
  auto routed = CompressorRegistry::Default().Find("greedy")->Compress(
      polys_, forest_, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  EXPECT_EQ(routed->loss.monomial_loss, direct->loss.monomial_loss);
  EXPECT_EQ(routed->loss.variable_loss, direct->loss.variable_loss);
  EXPECT_EQ(routed->Describe(forest_, vars_),
            direct->vvs.ToString(forest_, vars_));
  EXPECT_EQ(
      SerializePolynomialSet(routed->Apply(forest_, polys_), vars_),
      SerializePolynomialSet(direct->vvs.Apply(forest_, polys_), vars_));
}

TEST_F(RegistryDifferentialTest, BruteRouteMatchesDirectCall) {
  // A tiny sub-forest keeps the cut space enumerable.
  AbstractionForest small;
  std::vector<VariableId> leaves(tv_.plan_vars.begin(),
                                 tv_.plan_vars.begin() + 8);
  small.AddTree(BuildUniformTree(vars_, leaves, {2, 2}, "RB_"));
  size_t bound = polys_.SizeM() - 1;

  auto direct = BruteForce(polys_, small, bound);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  CompressOptions options;
  options.bound = bound;
  auto routed = CompressorRegistry::Default().Find("brute")->Compress(
      polys_, small, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  // Brute ties may pick different witness cuts; the optimal losses agree.
  EXPECT_EQ(routed->loss.variable_loss, direct->loss.variable_loss);
  EXPECT_TRUE(routed->adequate);
}

TEST_F(RegistryDifferentialTest, ProxRouteMatchesDirectCallAndApplies) {
  AbstractionForest small;
  std::vector<VariableId> leaves(tv_.plan_vars.begin(),
                                 tv_.plan_vars.begin() + 8);
  small.AddTree(BuildUniformTree(vars_, leaves, {2, 2}, "RP_"));
  size_t bound = polys_.SizeM() - 10;

  auto direct = ProxSummarize(polys_, small, bound);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  CompressOptions options;
  options.bound = bound;
  auto routed = CompressorRegistry::Default().Find("prox")->Compress(
      polys_, small, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  EXPECT_TRUE(routed->grouping);
  EXPECT_EQ(routed->substitution, direct->substitution);
  EXPECT_EQ(routed->loss.monomial_loss, direct->loss.monomial_loss);
  EXPECT_EQ(routed->adequate, direct->adequate);
  // The unified Apply performs the substitution: same |P↓S|_M as applying
  // the direct substitution by hand.
  PolynomialSet by_hand =
      polys_.MapVariables(SubstitutionFn(direct->substitution));
  EXPECT_EQ(routed->Apply(small, polys_).SizeM(), by_hand.SizeM());
  // Describe renders merged groups deterministically.
  std::string described = routed->Describe(small, vars_);
  EXPECT_EQ(described.front(), '{');
  EXPECT_EQ(described.back(), '}');
}

/// A raw grouping result contains synthesized representatives outside the
/// VariableTable; InternGrouping must make the applied set serializable
/// and round-trippable.
TEST_F(RegistryDifferentialTest, InternGroupingMakesProxSerializable) {
  AbstractionForest small;
  std::vector<VariableId> leaves(tv_.plan_vars.begin(),
                                 tv_.plan_vars.begin() + 8);
  small.AddTree(BuildUniformTree(vars_, leaves, {2, 2}, "RI_"));
  CompressOptions options;
  options.bound = polys_.SizeM() - 10;
  auto routed = CompressorRegistry::Default().Find("prox")->Compress(
      polys_, small, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_TRUE(routed->grouping);

  size_t applied_before = routed->Apply(small, polys_).SizeM();
  routed->InternGrouping(vars_);
  PolynomialSet compressed = routed->Apply(small, polys_);
  // Interning renames representatives; it must not change the shape.
  EXPECT_EQ(compressed.SizeM(), applied_before);

  std::string bytes = SerializePolynomialSet(compressed, vars_);
  VariableTable fresh;
  auto decoded = DeserializePolynomialSet(bytes, fresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->SizeM(), compressed.SizeM());
  EXPECT_EQ(decoded->count(), compressed.count());
}

// ------------------------------------------- |P↓S|_M from the loss ------

/// The server answers |P↓S|_M as |P|_M − monomial_loss without building the
/// view. Over seeded random instances whose coefficients are all positive
/// (so merged monomials can never cancel), that count must equal the
/// applied view's for every registered compressor, the grouping "prox"
/// included, and for a budget-exhausted "opt" run.
TEST(CompressedCountTest, SizeMinusLossEqualsAppliedSizeForEveryCompressor) {
  const CompressorRegistry& registry = CompressorRegistry::Default();
  std::map<std::string, int> checked;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    VariableTable vars;
    std::vector<VariableId> a_leaves, b_leaves, externals;
    for (int i = 0; i < 8; ++i) {
      a_leaves.push_back(vars.Intern("ca" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      b_leaves.push_back(vars.Intern("cb" + std::to_string(i)));
      externals.push_back(vars.Intern("cx" + std::to_string(i)));
    }
    AbstractionForest forest;
    forest.AddTree(BuildUniformTree(vars, a_leaves, {4, 2}, "CA_"));
    forest.AddTree(BuildUniformTree(vars, b_leaves, {2}, "CB_"));

    // At most one leaf of each tree per monomial keeps the forest
    // compatible; externals ride along.
    PolynomialSet polys;
    for (int p = 0; p < 6; ++p) {
      std::vector<Monomial> terms;
      const size_t m = 3 + rng.Uniform(8);
      for (size_t i = 0; i < m; ++i) {
        std::vector<Factor> f;
        f.push_back({a_leaves[rng.Uniform(a_leaves.size())], 1});
        if (rng.Bernoulli(0.5)) {
          f.push_back({b_leaves[rng.Uniform(b_leaves.size())], 1});
        }
        if (rng.Bernoulli(0.4)) {
          f.push_back({externals[rng.Uniform(externals.size())], 1});
        }
        terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
      }
      polys.Add(Polynomial::FromMonomials(std::move(terms)));
    }
    ASSERT_TRUE(forest.CheckCompatible(polys).ok());

    CompressOptions options;
    options.bound = polys.SizeM() - 1 - rng.Uniform(polys.SizeM() / 2);
    for (const char* name : {"opt", "greedy", "brute", "prox"}) {
      auto result = registry.Find(name)->Compress(polys, forest, options);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kInfeasible)
            << name << ": " << result.status().ToString();
        continue;
      }
      EXPECT_EQ(result->grouping, std::string(name) == "prox") << name;
      EXPECT_EQ(polys.SizeM() - result->loss.monomial_loss,
                result->Apply(forest, polys).SizeM())
          << name << " seed " << seed;
      ++checked[name];
    }

    OptimalOptions expired;
    expired.deadline = Deadline::AfterMillis(0);
    auto anytime = OptimalSingleTree(polys, forest, 0, options.bound, expired);
    if (anytime.ok()) {
      EXPECT_TRUE(anytime->budget_exhausted);
      EXPECT_EQ(polys.SizeM() - anytime->loss.monomial_loss,
                anytime->Apply(forest, polys).SizeM())
          << "budget-exhausted opt seed " << seed;
      ++checked["opt (budget exhausted)"];
    }
  }
  for (const char* name :
       {"opt", "greedy", "brute", "prox", "opt (budget exhausted)"}) {
    EXPECT_GT(checked[name], 0) << name << " never produced a result";
  }
}

/// Coefficients that cancel exactly to zero break the identity for "opt",
/// whose loss counts merges by residual identity (Claim 25): the count a
/// Compress reports stays |P|_M − monomial_loss, and the applied view,
/// which drops the zero monomial, is smaller.
TEST(CompressedCountTest, CancellingCoefficientsLeaveTheViewSmaller) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (const char* name : {"za", "zb", "zc", "zd"}) {
    leaves.push_back(vars.Intern(name));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {2}, "Z_"));
  PolynomialSet polys;
  // Abstracting {za, zb} merges 2·za − 2·zb into 0·Z, which Apply drops.
  polys.Add(Polynomial::FromMonomials(
      {Monomial(2.0, {{leaves[0], 1}}), Monomial(-2.0, {{leaves[1], 1}})}));
  polys.Add(Polynomial::FromMonomials({Monomial(1.0, {{leaves[0], 1}}),
                                       Monomial(3.0, {{leaves[1], 1}}),
                                       Monomial(1.0, {{leaves[2], 1}})}));
  ASSERT_EQ(polys.SizeM(), 5u);

  CompressOptions options;
  options.bound = 3;
  auto result =
      CompressorRegistry::Default().Find("opt")->Compress(polys, forest,
                                                           options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->loss.monomial_loss, 2u);
  EXPECT_EQ(polys.SizeM() - result->loss.monomial_loss, 3u);
  EXPECT_EQ(result->Apply(forest, polys).SizeM(), 2u);
}

// ---------------------------------------------------- time budgets ------

TEST_F(RegistryDifferentialTest, ExpiredDeadlineAbortsBruteAndProx) {
  BruteForceOptions brute;
  brute.deadline = Deadline::AfterMillis(0);
  auto b = BruteForce(polys_, forest_, polys_.SizeM() - 1, brute);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kOutOfRange);

  ProxOptions prox;
  prox.deadline = Deadline::AfterMillis(0);
  auto p = ProxSummarize(polys_, forest_, polys_.SizeM() / 2, prox);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kOutOfRange);
}

// The polynomial-time algorithms are ANYTIME: they check the deadline in
// their outer loops (opt per DP node, greedy per merge round) and on
// expiry return the best-so-far VALID cut flagged budget_exhausted instead
// of failing. An already-expired deadline is the deterministic probe: the
// returned cut must still be valid and its reported loss exact.
TEST_F(RegistryDifferentialTest, ExpiredDeadlineYieldsAnytimeOptCut) {
  OptimalOptions opt;
  opt.deadline = Deadline::AfterMillis(0);
  auto o = OptimalSingleTree(polys_, forest_, 0, bound_, opt);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_TRUE(o->budget_exhausted);
  // Degraded runs never retain patchable DP tables.
  EXPECT_EQ(o->dp_state, nullptr);
  // The reported loss is computed on the real polynomials, so it must
  // reconcile with applying the cut.
  EXPECT_EQ(o->loss, ComputeLossNaive(polys_, forest_, o->vvs));
  // Anytime expiry preserves feasibility exactly: the degraded root array
  // still carries the tree-maximal ML, so adequacy matches the full run.
  auto full = OptimalSingleTree(polys_, forest_, 0, bound_);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->budget_exhausted);
  EXPECT_EQ(o->adequate, full->adequate);
  // Optimality is what the budget traded away: the anytime VL may only be
  // worse (never better) than the optimum.
  EXPECT_GE(o->loss.variable_loss, full->loss.variable_loss);
}

TEST_F(RegistryDifferentialTest, ExpiredDeadlineYieldsAnytimeGreedyCut) {
  GreedyOptions greedy;
  greedy.deadline = Deadline::AfterMillis(0);
  auto g = GreedyMultiTree(polys_, forest_, bound_, greedy);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->budget_exhausted);
  // Zero merge rounds ran: the best-so-far cut is the all-leaves VVS with
  // zero loss, inadequate for any nontrivial bound.
  EXPECT_EQ(g->loss.monomial_loss, 0u);
  EXPECT_FALSE(g->adequate);
  EXPECT_EQ(g->loss, ComputeLossNaive(polys_, forest_, g->vvs));
}

// The registry-level contract: every registered algorithm honors
// CompressOptions::time_budget_ms, but the honoring splits by kind.
// "brute" and "prox" have no useful partial answer, so expiry aborts with
// kOutOfRange; the anytime "opt" and "greedy" return their best-so-far
// valid cut flagged budget_exhausted. What must never happen is a silently
// ignored budget — a budgeted run that takes the unbudgeted time and
// reports budget_exhausted = false.
//
// The expiry probes run through the registry adapter (so they also prove
// the adapter actually threads the budget into the algorithm options):
// "brute" and "prox" get a 1ms budget against instances that cost them
// hundreds of milliseconds (hundreds of full-loss cut evaluations /
// O(|V|²) oracle batches) — a 100x+ margin; the polynomial-time "opt" and
// "greedy" are first timed unbudgeted, and the test skips loudly if the
// machine finishes them too fast for a 1ms budget to be distinguishable
// (their zero-work anytime answer is covered deterministically by the
// AfterMillis(0) tests above).
TEST(TimeBudgetBattery, EveryRegisteredAlgorithmHonorsTimeBudget) {
  const CompressorRegistry& registry = CompressorRegistry::Default();
  for (const CompressorInfo& info : registry.Infos()) {
    ASSERT_TRUE(info.supports_time_budget) << info.name;
  }

  // A workload heavy enough that every algorithm needs well over 1ms: 2000
  // customers over 128 plans, abstracted by a 7-level binary tree (255
  // nodes — the opt DP's cost scales with node count and bucket-map size).
  TelephonyConfig config;
  config.num_customers = 2000;
  config.num_plans = 128;
  config.num_months = 12;
  config.num_zip_codes = 8;
  Rng rng(config.seed);
  Database db = GenerateTelephony(config, rng);
  VariableTable vars;
  TelephonyVars tv = MakeTelephonyVars(vars, config);
  PolynomialSet polys = RunTelephonyQuery(db, tv);
  AbstractionForest deep;
  deep.AddTree(BuildUniformTree(vars, tv.plan_vars, {2, 2, 2, 2, 2, 2},
                                "TBdeep_"));
  ASSERT_TRUE(deep.CheckCompatible(polys).ok());

  // brute needs an enumerable cut space; 8 leaves under {2, 2} keep it
  // small, but each cut costs a full loss recount over ~10k monomials —
  // tens of milliseconds unbudgeted, a comfortable margin over 1ms with
  // the deadline checked per cut.
  AbstractionForest small;
  std::vector<VariableId> brute_leaves(tv.plan_vars.begin(),
                                       tv.plan_vars.begin() + 8);
  small.AddTree(BuildUniformTree(vars, brute_leaves, {2, 2}, "TBsmall_"));

  // The exponential/quadratic algorithms: straight 1ms budget.
  for (const char* name : {"brute", "prox"}) {
    CompressOptions options;
    options.bound = polys.SizeM() / 2;
    options.time_budget_ms = 1;
    const AbstractionForest& forest =
        std::string(name) == "brute" ? small : deep;
    auto result = registry.Find(name)->Compress(polys, forest, options);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange) << name;
  }

  // The anytime polynomial-time algorithms: calibrate unbudgeted first. An
  // algorithm the machine finishes too fast for a 1ms budget to expire
  // distinguishably is skipped — per algorithm, so one fast algorithm
  // never drops the other's coverage (their zero-work anytime answer is
  // covered deterministically by the AfterMillis(0) tests above). The skip
  // is surfaced at the end so every eligible algorithm has been probed.
  std::vector<std::string> too_fast;
  for (const char* name : {"greedy", "opt"}) {
    CompressOptions options;
    options.bound = polys.SizeM() / 2;
    Timer timer;
    auto unbudgeted = registry.Find(name)->Compress(polys, deep, options);
    ASSERT_TRUE(unbudgeted.ok())
        << name << ": " << unbudgeted.status().ToString();
    EXPECT_FALSE(unbudgeted->budget_exhausted) << name;
    const double elapsed_ms = timer.ElapsedMillis();
    if (elapsed_ms < 4.0) {
      too_fast.push_back(std::string(name) + " (" +
                         std::to_string(elapsed_ms) + "ms unbudgeted)");
      continue;
    }
    options.time_budget_ms = 1;
    auto budgeted = registry.Find(name)->Compress(polys, deep, options);
    ASSERT_TRUE(budgeted.ok())
        << name << ": " << budgeted.status().ToString();
    EXPECT_TRUE(budgeted->budget_exhausted)
        << name << " ran " << elapsed_ms
        << "ms unbudgeted yet claims a 1ms budget never expired";
    // Anytime answers are still real answers: the reported loss is exact.
    EXPECT_EQ(budgeted->loss,
              ComputeLossNaive(polys, deep, budgeted->vvs))
        << name;
  }
  if (!too_fast.empty()) {
    std::string joined;
    for (const std::string& entry : too_fast) {
      if (!joined.empty()) joined += ", ";
      joined += entry;
    }
    GTEST_SKIP() << "machine too fast to distinguish a 1ms budget for: "
                 << joined;
  }
}

TEST(DeadlineTest, InfiniteNeverExpiresZeroExpiresImmediately) {
  EXPECT_FALSE(Deadline::Infinite().Expired());
  EXPECT_TRUE(Deadline::Infinite().infinite());
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_FALSE(Deadline::AfterMillis(0).infinite());
}

}  // namespace
}  // namespace provabs
