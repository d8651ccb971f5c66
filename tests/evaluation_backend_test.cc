// Cross-backend differential battery for the evaluation-backend registry
// (core/evaluation_backend.h). Naive per-polynomial Valuation::Evaluate is
// the reference defining the canonical summation order; every registered
// backend — compiled, simd_batch with scalar lanes forced,
// simd_batch with AVX2 lanes when the host has them, the jit with its
// compiled-kernel fallback forced, and the jit's emitted native code where
// executable memory is usable — must reproduce it
// BITWISE (IEEE-754 bit comparison, never tolerance): floating-point
// add/mul are not associative, so exact equality certifies the identical
// operation sequence. Coverage: exponents > 1, unassigned variables
// (default 1.0), variables assigned but absent from the set, empty
// polynomials, empty sets, ragged batch sizes around the SIMD lane width,
// and post-abstraction sets (tree cuts and interned prox-group views).
//
// Also the home of the slot-mapping regression tests: a DenseValuation
// materialized against one compiled form must be rejected (not silently
// mis-indexed) when evaluated under another — the copy-then-Add hazard the
// fingerprint scheme exists for — and of the measured-routing tests
// (EvaluationBackendRegistry::Route), driven by fake backends that spin.

#include "core/evaluation_backend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/compressor.h"
#include "common/random.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "jit/jit_backend.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The reference: per-polynomial naive Evaluate (Valuation::EvaluateAll
/// itself routes through the registry, so the reference must not use it).
std::vector<double> NaiveEvaluateAll(const Valuation& val,
                                     const PolynomialSet& polys) {
  std::vector<double> out;
  out.reserve(polys.count());
  for (const Polynomial& p : polys.polynomials()) {
    out.push_back(val.Evaluate(p));
  }
  return out;
}

void ExpectBitwiseEqual(const std::vector<double>& expected,
                        const std::vector<double>& actual,
                        const std::string& which) {
  ASSERT_EQ(expected.size(), actual.size()) << which;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(Bits(expected[i]), Bits(actual[i]))
        << which << ": polynomial " << i << " expected " << expected[i]
        << " got " << actual[i];
  }
}

/// Materializes `scenarios` against the snapshot of `polys`, evaluates the
/// whole batch with `evaluate`, and bit-compares every scenario against the
/// naive reference.
void RunBatchAndCheck(
    const PolynomialSet& polys, const std::vector<Valuation>& scenarios,
    const std::string& which,
    const std::function<Status(const CompiledPolynomialSet&,
                               const DenseValuation* const*, double* const*,
                               size_t)>& evaluate) {
  auto compiled = polys.Compiled();
  const size_t n = scenarios.size();
  std::vector<DenseValuation> dense;
  dense.reserve(n);
  for (const Valuation& val : scenarios) {
    dense.push_back(compiled->MaterializeValuation(val));
  }
  std::vector<const DenseValuation*> dense_ptrs(n);
  std::vector<std::vector<double>> out(
      n, std::vector<double>(compiled->poly_count()));
  std::vector<double*> out_ptrs(n);
  for (size_t s = 0; s < n; ++s) {
    dense_ptrs[s] = &dense[s];
    out_ptrs[s] = out[s].data();
  }
  Status status = evaluate(*compiled, dense_ptrs.data(), out_ptrs.data(), n);
  ASSERT_TRUE(status.ok()) << which << ": " << status.ToString();
  for (size_t s = 0; s < n; ++s) {
    ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[s], polys), out[s],
                       which + " scenario " + std::to_string(s));
  }
}

/// Runs one backend over the whole scenario batch in a single
/// EvaluateBatch call.
void RunBackendDifferential(const EvaluationBackend& backend,
                            const PolynomialSet& polys,
                            const std::vector<Valuation>& scenarios,
                            const std::string& which) {
  RunBatchAndCheck(polys, scenarios, which,
                   [&](const CompiledPolynomialSet& compiled,
                       const DenseValuation* const* dense,
                       double* const* outs, size_t n) {
                     return backend.EvaluateBatch(
                         compiled, 0, compiled.poly_count(), dense, outs, n);
                   });
}

/// Every backend instance the battery pins: the three registered built-ins
/// plus forced variants — a scalar-lane simd_batch (so the lane/transpose/
/// remainder logic is covered even when the host would auto-pick AVX2) and
/// a fallback-forced jit (so the compiled-kernel degradation path is
/// covered even where emitted code runs natively; the registered jit
/// instance covers the native path whenever the host permits it and CI's
/// NOJIT-forced run covers the env-knob route through the same fallback).
void RunAllBackendsDifferential(const PolynomialSet& polys,
                                const std::vector<Valuation>& scenarios) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  for (const std::string& name : registry.Names()) {
    RunBackendDifferential(*registry.Find(name), polys, scenarios,
                           "registered '" + name + "'");
  }
  SimdBatchBackend scalar(SimdBatchBackend::Mode::kForceScalar);
  EXPECT_FALSE(scalar.using_avx2());
  RunBackendDifferential(scalar, polys, scenarios, "simd_batch(scalar)");
  SimdBatchBackend auto_lanes(SimdBatchBackend::Mode::kAuto);
  RunBackendDifferential(
      auto_lanes, polys, scenarios,
      auto_lanes.using_avx2() ? "simd_batch(avx2)" : "simd_batch(auto)");
  JitBackend jit_fallback(JitBackend::Mode::kForceFallback);
  EXPECT_FALSE(jit_fallback.Available());
  RunBackendDifferential(jit_fallback, polys, scenarios, "jit(fallback)");
  if (polys.count() > 0 && !scenarios.empty()) {
    EXPECT_GT(jit_fallback.stats().fallback_forced, 0u);
  }
  JitBackend jit_auto(JitBackend::Mode::kAuto);
  RunBackendDifferential(jit_auto, polys, scenarios,
                         JitNativeActive() ? "jit(native)" : "jit(nojit)");
}

PolynomialSet MakeRandomSet(Rng& rng, const std::vector<VariableId>& ids) {
  PolynomialSet polys;
  const size_t num_polys = rng.Uniform(9);  // 0 = empty set case
  for (size_t p = 0; p < num_polys; ++p) {
    std::vector<Monomial> terms;
    const size_t n_terms = rng.Uniform(14);  // 0 = empty polynomial case
    for (size_t t = 0; t < n_terms; ++t) {
      std::vector<Factor> factors;
      const size_t n_factors = rng.Uniform(5);
      for (size_t f = 0; f < n_factors; ++f) {
        factors.push_back(
            {ids[rng.Uniform(ids.size())],
             static_cast<uint32_t>(1 + rng.Uniform(4))});  // exponents 1..4
      }
      terms.emplace_back(rng.UniformReal(-10.0, 10.0), std::move(factors));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

// --------------------------------------------------- registry units -----

TEST(EvaluationBackendRegistryTest, DefaultRegistersTheBuiltins) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  EXPECT_NE(registry.Find("compiled"), nullptr);
  EXPECT_NE(registry.Find("simd_batch"), nullptr);
  EXPECT_NE(registry.Find("jit"), nullptr);
  // The scalar reference is the test oracle (Valuation::Evaluate), not a
  // registered backend routing could ever probe.
  EXPECT_EQ(registry.Find("naive"), nullptr);
  // Names come back sorted, so usage/error text is stable.
  EXPECT_EQ(registry.NamesCsv(), "compiled, jit, simd_batch");

  const EvaluationBackend* simd = registry.Find("simd_batch");
  EXPECT_TRUE(simd->info().vectorized);
  EXPECT_TRUE(simd->info().deterministic);
  EXPECT_GT(simd->info().preferred_batch, 1u);
  EXPECT_FALSE(registry.Find("compiled")->info().vectorized);

  const EvaluationBackend* jit = registry.Find("jit");
  EXPECT_TRUE(jit->info().deterministic);
  EXPECT_FALSE(jit->info().vectorized);  // scalar per scenario, just faster
  EXPECT_EQ(jit->info().preferred_batch, 1u);

  // Every built-in except jit is unconditionally available; jit's
  // availability is the host's to decide (never true when forced off).
  EXPECT_TRUE(registry.Find("compiled")->Available());
  EXPECT_TRUE(registry.Find("simd_batch")->Available());
  EXPECT_EQ(jit->Available(), JitNativeActive());
}

TEST(EvaluationBackendRegistryTest, DuplicateNamesAreRejected) {
  EvaluationBackendRegistry registry;
  ASSERT_TRUE(RegisterBuiltinEvaluationBackends(registry).ok());
  Status dup = registry.Register(std::make_unique<SimdBatchBackend>());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("'simd_batch' is already registered"),
            std::string::npos)
      << dup.message();
  EXPECT_FALSE(registry.Register(nullptr).ok());
}

TEST(EvaluationBackendRegistryTest, UnknownNameListsTheRegisteredSet) {
  auto resolved = EvaluationBackendRegistry::Default().Resolve("turbo");
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resolved.status().message().find(
                "unknown evaluation backend 'turbo'"),
            std::string::npos)
      << resolved.status().message();
  EXPECT_NE(resolved.status().message().find("compiled, jit, simd_batch"),
            std::string::npos)
      << resolved.status().message();
}

// ------------------------------------------------- measured routing -----

/// Evaluates with the compiled kernel, first spinning for 1 ms on every
/// batch `slow` selects — so which of two otherwise identical backends is
/// faster depends on the snapshot and the batch width, and routing has to
/// measure it.
class SpinningBackend : public EvaluationBackend {
 public:
  using SlowWhen = std::function<bool(const CompiledPolynomialSet&, size_t)>;

  SpinningBackend(std::string name, SlowWhen slow)
      : info_{std::move(name), "spins on the batches it is slow on",
              /*vectorized=*/false, /*deterministic=*/true,
              /*preferred_batch=*/1},
        slow_(std::move(slow)) {}

  const EvaluationBackendInfo& info() const override { return info_; }

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    if (slow_(compiled, scenario_count)) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    for (size_t s = 0; s < scenario_count; ++s) {
      compiled.EvaluateRange(poly_begin, poly_end, *scenarios[s], outs[s]);
    }
  }

 private:
  EvaluationBackendInfo info_;
  SlowWhen slow_;
};

/// Routes the whole batch through `registry` with an empty name, checks
/// every answer bitwise against the oracle, and returns the backend that
/// ran it.
std::string RouteAndCheck(const EvaluationBackendRegistry& registry,
                          const PolynomialSet& polys,
                          const std::vector<Valuation>& scenarios,
                          bool* measuring = nullptr) {
  std::string ran;
  RunBatchAndCheck(polys, scenarios, "routed",
                   [&](const CompiledPolynomialSet& compiled,
                       const DenseValuation* const* dense,
                       double* const* outs, size_t n) {
                     StatusOr<BackendRoute> route =
                         registry.Route("", compiled, n);
                     if (!route.ok()) return route.status();
                     ran = route->backend()->info().name;
                     if (measuring != nullptr) {
                       *measuring = route->measuring();
                     }
                     return route->EvaluateBatch(
                         compiled, 0, compiled.poly_count(), dense, outs, n);
                   });
  return ran;
}

/// RouteAndCheck until the snapshot's class for this width has settled;
/// returns how many batches each backend ran on the way.
std::map<std::string, uint32_t> RouteUntilSettled(
    const EvaluationBackendRegistry& registry, const PolynomialSet& polys,
    const std::vector<Valuation>& scenarios) {
  std::map<std::string, uint32_t> ran;
  for (uint32_t i = 0; i < 4 * EvaluationBackendRegistry::kMaxProbeSamples;
       ++i) {
    bool measuring = false;
    const std::string name =
        RouteAndCheck(registry, polys, scenarios, &measuring);
    if (!measuring) break;
    ++ran[name];
  }
  return ran;
}

PolynomialSet MakeSetOfSize(size_t poly_count,
                            const std::vector<VariableId>& ids) {
  PolynomialSet polys;
  for (size_t p = 0; p < poly_count; ++p) {
    polys.Add(Polynomial::FromMonomials(
        {Monomial(1.5 + p, {{ids[p % ids.size()], 2}}),
         Monomial(-0.25, {{ids[(p + 1) % ids.size()], 1}})}));
  }
  return polys;
}

std::vector<Valuation> MakeScenarios(Rng& rng,
                                     const std::vector<VariableId>& ids,
                                     size_t count) {
  std::vector<Valuation> scenarios(count);
  for (Valuation& val : scenarios) {
    for (VariableId id : ids) val.Set(id, rng.UniformReal(-2.0, 2.0));
  }
  return scenarios;
}

std::vector<VariableId> MakeIds(VariableTable& vars) {
  std::vector<VariableId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(vars.Intern("r" + std::to_string(i)));
  }
  return ids;
}

TEST(MeasuredRoutingTest, FasterBackendWinsPerWidthClass) {
  // "narrow" is slow below 8 scenarios, "wide" at 8 and above.
  EvaluationBackendRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<SpinningBackend>(
                      "narrow", [](const CompiledPolynomialSet&, size_t n) {
                        return n < 8;
                      }))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<SpinningBackend>(
                      "wide", [](const CompiledPolynomialSet&, size_t n) {
                        return n >= 8;
                      }))
                  .ok());
  Rng rng(4242);
  VariableTable vars;
  const std::vector<VariableId> ids = MakeIds(vars);
  PolynomialSet polys = MakeSetOfSize(3, ids);
  // One width from each class: 1, 2-7, >= 8.
  for (size_t width : {size_t{1}, size_t{3}, size_t{9}}) {
    const std::vector<Valuation> scenarios = MakeScenarios(rng, ids, width);
    // The probe times both candidates in alternating blocks, equally
    // often: at least one block each, and more while the fast one's
    // microsecond batches add up to the time floor.
    std::map<std::string, uint32_t> ran =
        RouteUntilSettled(registry, polys, scenarios);
    const std::string faster = width < 8 ? "wide" : "narrow";
    constexpr uint32_t kBlock = EvaluationBackendRegistry::kProbeBlock;
    EXPECT_GE(ran["narrow"], kBlock) << "width " << width;
    EXPECT_GE(ran["wide"], kBlock) << "width " << width;
    EXPECT_LE(ran["narrow"], ran["wide"] + kBlock) << "width " << width;
    EXPECT_LE(ran["wide"], ran["narrow"] + kBlock) << "width " << width;

    // Then the class settles on the faster backend and stops timing.
    StatusOr<BackendRoute> route =
        registry.Route("", *polys.Compiled(), width);
    ASSERT_TRUE(route.ok());
    EXPECT_FALSE(route->measuring()) << "width " << width;
    EXPECT_EQ(route->backend()->info().name, faster) << "width " << width;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(RouteAndCheck(registry, polys, scenarios), faster);
    }
  }
}

TEST(MeasuredRoutingTest, EachSnapshotIsMeasuredIndependently) {
  // "p" is slow on one-polynomial snapshots, "q" on two-polynomial ones.
  EvaluationBackendRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<SpinningBackend>(
                      "p", [](const CompiledPolynomialSet& c, size_t) {
                        return c.poly_count() == 1;
                      }))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(std::make_unique<SpinningBackend>(
                      "q", [](const CompiledPolynomialSet& c, size_t) {
                        return c.poly_count() == 2;
                      }))
                  .ok());
  Rng rng(4343);
  VariableTable vars;
  const std::vector<VariableId> ids = MakeIds(vars);
  PolynomialSet one = MakeSetOfSize(1, ids);
  PolynomialSet two = MakeSetOfSize(2, ids);
  const std::vector<Valuation> scenarios = MakeScenarios(rng, ids, 1);

  // Interleaved traffic: each snapshot keeps its own measurements.
  bool one_measuring = true;
  bool two_measuring = true;
  for (uint32_t i = 0; i < 4 * EvaluationBackendRegistry::kMaxProbeSamples &&
                       (one_measuring || two_measuring);
       ++i) {
    RouteAndCheck(registry, one, scenarios, &one_measuring);
    RouteAndCheck(registry, two, scenarios, &two_measuring);
  }
  EXPECT_EQ(RouteAndCheck(registry, one, scenarios), "q");
  EXPECT_EQ(RouteAndCheck(registry, two, scenarios), "p");

  // The choice lives on the snapshot: a copy shares it, while an
  // independently compiled twin of the same polynomials measures afresh.
  PolynomialSet copy = one;
  StatusOr<BackendRoute> shared = registry.Route("", *copy.Compiled(), 1);
  ASSERT_TRUE(shared.ok());
  EXPECT_FALSE(shared->measuring());
  EXPECT_EQ(shared->backend()->info().name, "q");
  PolynomialSet twin = MakeSetOfSize(1, ids);
  StatusOr<BackendRoute> fresh = registry.Route("", *twin.Compiled(), 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->measuring());

  // Registering a backend starts every class over, so it gets its probe.
  ASSERT_TRUE(registry
                  .Register(std::make_unique<SpinningBackend>(
                      "r", [](const CompiledPolynomialSet&, size_t) {
                        return true;
                      }))
                  .ok());
  StatusOr<BackendRoute> again = registry.Route("", *one.Compiled(), 1);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->measuring());
}

TEST(MeasuredRoutingTest, WithoutASnapshotRoutingIsCompiled) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  for (size_t width : {size_t{0}, size_t{1}, size_t{8}, size_t{1000}}) {
    auto backend = registry.ResolveForBatch("", width);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ((*backend)->info().name, "compiled") << "width " << width;
  }
  // A default-constructed snapshot has no memo, and an empty batch has
  // nothing to measure: both take the snapshot-free answer untimed.
  CompiledPolynomialSet bare;
  StatusOr<BackendRoute> route = registry.Route("", bare, 4);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->backend()->info().name, "compiled");
  EXPECT_FALSE(route->measuring());
  PolynomialSet polys;
  StatusOr<BackendRoute> empty_batch = registry.Route("", *polys.Compiled(), 0);
  ASSERT_TRUE(empty_batch.ok());
  EXPECT_FALSE(empty_batch->measuring());

  // An explicit name resolves strictly, at any width, and is never timed —
  // including "jit" when unavailable (it degrades internally).
  StatusOr<BackendRoute> named = registry.Route("jit", *polys.Compiled(), 1000);
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->backend()->info().name, "jit");
  EXPECT_FALSE(named->measuring());
  EXPECT_FALSE(registry.Route("turbo", *polys.Compiled(), 1).ok());

  // An empty registry is the only hard failure.
  EvaluationBackendRegistry empty;
  EXPECT_FALSE(empty.ResolveForBatch("", 8).ok());
  EXPECT_FALSE(empty.Route("", *polys.Compiled(), 8).ok());
}

TEST(MeasuredRoutingTest, ForceNojitKeepsTheJitOutOfRouting) {
  // With PROVABS_EVAL_FORCE_NOJIT set the jit reports unavailable, so no
  // width class ever probes or picks it. A fresh registry keeps the probe
  // independent of Default()'s state.
  const char* saved = getenv("PROVABS_EVAL_FORCE_NOJIT");
  std::string saved_value = saved ? saved : "";
  setenv("PROVABS_EVAL_FORCE_NOJIT", "1", /*overwrite=*/1);

  EvaluationBackendRegistry registry;
  ASSERT_TRUE(RegisterBuiltinEvaluationBackends(registry).ok());
  EXPECT_FALSE(registry.Find("jit")->Available());
  Rng rng(4444);
  VariableTable vars;
  const std::vector<VariableId> ids = MakeIds(vars);
  PolynomialSet polys = MakeSetOfSize(5, ids);
  for (size_t width : {size_t{1}, size_t{9}}) {
    const std::vector<Valuation> scenarios = MakeScenarios(rng, ids, width);
    for (const auto& [name, count] :
         RouteUntilSettled(registry, polys, scenarios)) {
      EXPECT_NE(name, "jit") << count;
    }
    EXPECT_NE(RouteAndCheck(registry, polys, scenarios), "jit");
  }
  // Explicit selection still works; the backend degrades internally.
  StatusOr<BackendRoute> explicit_jit =
      registry.Route("jit", *polys.Compiled(), 1);
  ASSERT_TRUE(explicit_jit.ok());
  EXPECT_EQ(explicit_jit->backend()->info().name, "jit");

  if (saved) {
    setenv("PROVABS_EVAL_FORCE_NOJIT", saved_value.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("PROVABS_EVAL_FORCE_NOJIT");
  }
}

// ----------------------------------- slot-mapping (fingerprint) guard ---

// The regression the fingerprint scheme exists for: copy a set (copies
// share the compiled snapshot), materialize a valuation, then mutate the
// original and recompile. The stale valuation indexes the OLD slot
// mapping; evaluating it under the new form must fail loudly instead of
// mis-indexing (before the fix this read wrong slots — or out of bounds
// once the new form had more slots).
TEST(EvaluationBackendFingerprintTest, StaleValuationAfterCopyAndAddFails) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  VariableId y = vars.Intern("y");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({Monomial(2.0, {{x, 1}})}));

  PolynomialSet copy = polys;
  auto old_form = copy.Compiled();
  Valuation val;
  val.Set(x, 3.0);
  DenseValuation stale = old_form->MaterializeValuation(val);
  EXPECT_EQ(stale.source_fingerprint(), old_form->fingerprint());

  // Mutate the original: its recompiled form has a different slot mapping
  // (y takes slot 0 of the new monomial's factors) and a new fingerprint.
  polys.Add(Polynomial::FromMonomials({Monomial(5.0, {{y, 1}, {x, 1}})}));
  auto new_form = polys.Compiled();
  ASSERT_NE(new_form->fingerprint(), old_form->fingerprint());

  const EvaluationBackend* backend =
      EvaluationBackendRegistry::Default().Find("compiled");
  double out_slot = 0;
  const DenseValuation* scenario = &stale;
  double* out_ptr = &out_slot;
  Status status = backend->EvaluateBatch(*new_form, 0, 1, &scenario,
                                         &out_ptr, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("different compiled form"),
            std::string::npos)
      << status.message();

  // Against the form it was materialized from, the same valuation is fine
  // — the snapshot outlives the mutation.
  Status ok = backend->EvaluateBatch(*old_form, 0, 1, &scenario, &out_ptr, 1);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(out_slot, 6.0);
}

TEST(EvaluationBackendFingerprintTest, CopiesShareTheCompiledSnapshot) {
  VariableTable vars;
  VariableId x = vars.Intern("x");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials({Monomial(1.0, {{x, 2}})}));
  auto form = polys.Compiled();
  DenseValuation dense = form->MaterializeValuation(Valuation{});

  // A copy shares the snapshot, so the valuation stays valid for it.
  PolynomialSet copy = polys;
  auto copy_form = copy.Compiled();
  EXPECT_EQ(copy_form.get(), form.get());
  EXPECT_EQ(copy_form->fingerprint(), dense.source_fingerprint());

  // Identical CONTENT is not enough: an independently compiled twin has
  // its own fingerprint, because only the same snapshot guarantees the
  // same slot mapping.
  PolynomialSet twin;
  twin.Add(Polynomial::FromMonomials({Monomial(1.0, {{x, 2}})}));
  EXPECT_NE(twin.Compiled()->fingerprint(), form->fingerprint());
}

TEST(EvaluationBackendTest, RangeAndPointerValidation) {
  VariableTable vars;
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(1.0, {{vars.Intern("x"), 1}})}));
  auto compiled = polys.Compiled();
  DenseValuation dense = compiled->MaterializeValuation(Valuation{});
  const DenseValuation* scenario = &dense;
  double out_slot = 0;
  double* out_ptr = &out_slot;
  const EvaluationBackend& backend =
      *EvaluationBackendRegistry::Default().Find("simd_batch");

  EXPECT_EQ(backend.EvaluateBatch(*compiled, 0, 2, &scenario, &out_ptr, 1)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.EvaluateBatch(*compiled, 1, 0, &scenario, &out_ptr, 1)
                .code(),
            StatusCode::kInvalidArgument);
  const DenseValuation* null_scenario = nullptr;
  EXPECT_EQ(
      backend.EvaluateBatch(*compiled, 0, 1, &null_scenario, &out_ptr, 1)
          .code(),
      StatusCode::kInvalidArgument);
  // Empty ranges and empty batches are no-ops, not errors.
  EXPECT_TRUE(
      backend.EvaluateBatch(*compiled, 0, 0, &scenario, &out_ptr, 1).ok());
  EXPECT_TRUE(
      backend.EvaluateBatch(*compiled, 0, 1, nullptr, nullptr, 0).ok());
}

// ------------------------------------------- randomized differential ----

class BackendDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendDifferentialTest, AllBackendsBitwiseIdenticalToNaive) {
  Rng rng(6200 + GetParam());
  VariableTable vars;
  const size_t num_vars = 3 + rng.Uniform(30);
  std::vector<VariableId> ids;
  for (size_t i = 0; i < num_vars; ++i) {
    ids.push_back(vars.Intern("v" + std::to_string(i)));
  }
  PolynomialSet polys = MakeRandomSet(rng, ids);

  // Ragged batch sizes straddling the SIMD lane width (4) and the
  // preferred batch (8): full groups, remainder groups, single scenarios.
  const size_t batch = 1 + rng.Uniform(11);
  std::vector<Valuation> scenarios;
  for (size_t s = 0; s < batch; ++s) {
    Valuation val;
    // A random subset assigned (some scenarios assign nothing), plus a
    // variable outside the set entirely.
    for (VariableId id : ids) {
      if (rng.Bernoulli(0.6)) val.Set(id, rng.UniformReal(-2.0, 2.0));
    }
    val.Set(vars.Intern("outside"), 99.0);
    scenarios.push_back(std::move(val));
  }

  RunAllBackendsDifferential(polys, scenarios);

  // The convenience entry point agrees too, under both auto and explicit
  // routing.
  for (const std::string& name : {std::string(), std::string("simd_batch")}) {
    auto results = EvaluateScenarios(polys, scenarios, name);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), scenarios.size());
    for (size_t s = 0; s < scenarios.size(); ++s) {
      ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[s], polys), (*results)[s],
                         "EvaluateScenarios('" + name + "')");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSets, BackendDifferentialTest,
                         ::testing::Range(0, 24));

TEST(EvaluateScenariosTest, UnknownBackendFailsListingRegistered) {
  PolynomialSet polys;
  auto results = EvaluateScenarios(polys, {Valuation{}}, "turbo");
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("compiled, jit, simd_batch"),
            std::string::npos);
}

// Post-abstraction coverage: backends must agree with naive on sets
// produced by the compression algorithms — tree cuts substitute
// meta-variables in, and prox's InternGrouping introduces freshly interned
// group variables whose ids are far from the original dense range.
TEST(BackendAbstractionTest, CutAndGroupingViewsStayBitwiseEqual) {
  Rng rng(888);
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 16; ++i) {
    leaves.push_back(vars.Intern("x" + std::to_string(i)));
  }
  VariableId m = vars.Intern("m");

  PolynomialSet polys;
  for (int p = 0; p < 4; ++p) {
    std::vector<Monomial> terms;
    for (int t = 0; t < 20; ++t) {
      std::vector<Factor> f;
      f.push_back({leaves[rng.Uniform(leaves.size())],
                   static_cast<uint32_t>(1 + rng.Uniform(2))});
      if (rng.Bernoulli(0.5)) f.push_back({m, 1});
      terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }

  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "EB_"));
  ASSERT_TRUE(forest.CheckCompatible(polys).ok());
  CompressOptions options;
  options.bound = polys.SizeM() / 2;

  auto greedy = CompressorRegistry::Default().Find("greedy")->Compress(
      polys, forest, options);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  PolynomialSet cut_view = greedy->Apply(forest, polys);

  auto prox = CompressorRegistry::Default().Find("prox")->Compress(
      polys, forest, options);
  ASSERT_TRUE(prox.ok()) << prox.status().ToString();
  prox->InternGrouping(vars);
  PolynomialSet group_view = prox->Apply(forest, polys);

  for (const PolynomialSet* view : {&cut_view, &group_view}) {
    std::vector<Valuation> scenarios;
    for (int s = 0; s < 9; ++s) {
      Valuation val;
      for (VariableId v : view->Variables()) {
        if (rng.Bernoulli(0.7)) val.Set(v, rng.UniformReal(0.25, 1.75));
      }
      scenarios.push_back(std::move(val));
    }
    RunAllBackendsDifferential(*view, scenarios);
  }
}

}  // namespace
}  // namespace provabs
