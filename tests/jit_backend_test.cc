// Tests for the JIT evaluation tier above the encoder/arena layer: the
// code generator's end-to-end correctness (emitted native code bitwise
// equal to the naive interpreter), the fingerprint-keyed code cache
// (hit/miss accounting, page-rounded budget charge and release, LRU
// eviction that never drops the most recent entry, Invalidate), the
// backend's counted fallback reasons (force knob, env knob, emission
// failure), and concurrent GetOrEmit — the case the cache's locking
// exists for, exercised under TSan in CI.

#include "jit/jit_backend.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "jit/code_cache.h"
#include "jit/code_generator.h"
#include "jit/exec_arena.h"

namespace provabs {
namespace {

using jit::ExecArena;
using jit::GeneratePolynomialSetCode;
using jit::JitCodeCache;
using jit::JitModule;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A small deterministic set with the shapes that stress the generator:
/// empty polynomial, constant-only monomial, exponents > 1, repeated
/// variables, negative coefficients.
PolynomialSet MakeFixedSet(VariableTable& vars) {
  VariableId x = vars.Intern("x");
  VariableId y = vars.Intern("y");
  VariableId z = vars.Intern("z");
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(
      {Monomial(2.5, {{x, 2}}), Monomial(-1.25, {{y, 1}, {z, 3}})}));
  polys.Add(Polynomial::FromMonomials({}));  // empty: always 0.0
  polys.Add(Polynomial::FromMonomials({Monomial(7.75, {})}));  // constant
  polys.Add(Polynomial::FromMonomials(
      {Monomial(0.5, {{x, 1}, {y, 1}}), Monomial(3.0, {{z, 1}}),
       Monomial(-0.125, {{x, 4}})}));
  return polys;
}

PolynomialSet MakeRandomSet(Rng& rng, VariableTable& vars, size_t num_polys,
                            const std::string& prefix) {
  std::vector<VariableId> ids;
  for (size_t v = 0; v < 12; ++v) {
    ids.push_back(vars.Intern(prefix + std::to_string(v)));
  }
  PolynomialSet polys;
  for (size_t p = 0; p < num_polys; ++p) {
    std::vector<Monomial> terms;
    const size_t n_terms = 1 + rng.Uniform(6);
    for (size_t t = 0; t < n_terms; ++t) {
      std::vector<Factor> factors;
      const size_t n_factors = rng.Uniform(4);
      for (size_t f = 0; f < n_factors; ++f) {
        factors.push_back({ids[rng.Uniform(ids.size())],
                           static_cast<uint32_t>(1 + rng.Uniform(3))});
      }
      terms.emplace_back(rng.UniformReal(-5.0, 5.0), std::move(factors));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

Valuation MakeScenario(Rng& rng, const VariableTable& vars) {
  Valuation val;
  for (VariableId v = 0; v < vars.size(); ++v) {
    if (rng.Bernoulli(0.7)) val.Set(v, rng.UniformReal(-2.0, 2.0));
  }
  return val;
}

/// Evaluates the whole set through `backend` in one batch and
/// bit-compares against the naive interpreter.
void ExpectBackendMatchesNaive(const EvaluationBackend& backend,
                               const PolynomialSet& polys,
                               const Valuation& val,
                               const std::string& which) {
  auto compiled = polys.Compiled();
  DenseValuation dense = compiled->MaterializeValuation(val);
  std::vector<double> out(compiled->poly_count());
  const DenseValuation* scenario = &dense;
  double* out_ptr = out.data();
  Status status = backend.EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                        &scenario, &out_ptr, 1);
  ASSERT_TRUE(status.ok()) << which << ": " << status.ToString();
  size_t i = 0;
  for (const Polynomial& p : polys.polynomials()) {
    ASSERT_EQ(Bits(val.Evaluate(p)), Bits(out[i]))
        << which << ": polynomial " << i;
    ++i;
  }
}

// ------------------------------------------------ code generator --------

TEST(CodeGeneratorTest, EmitsOneEntryPerPolynomial) {
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  auto compiled = polys.Compiled();
  auto generated = GeneratePolynomialSetCode(*compiled,
                                             JitCodeCache::kDefaultMaxCodeBytes);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(generated->entry_offsets.size(), compiled->poly_count());
  EXPECT_FALSE(generated->code.empty());
  EXPECT_EQ(generated->entry_offsets[0], 0u);
  for (size_t p = 1; p < generated->entry_offsets.size(); ++p) {
    EXPECT_GT(generated->entry_offsets[p], generated->entry_offsets[p - 1]);
    EXPECT_LT(generated->entry_offsets[p], generated->code.size());
  }
  // The full-set range function sits after every per-polynomial function.
  EXPECT_GT(generated->range_entry, generated->entry_offsets.back());
  EXPECT_LT(generated->range_entry, generated->code.size());
}

TEST(CodeGeneratorTest, CodeCapIsOutOfRange) {
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  auto generated = GeneratePolynomialSetCode(*polys.Compiled(), 4);
  ASSERT_FALSE(generated.ok());
  EXPECT_EQ(generated.status().code(), StatusCode::kOutOfRange);
}

TEST(CodeGeneratorTest, CapBoundaryIsExact) {
  // The cap is decided from the CSR arrays before any code is generated,
  // so that size must be exact: the cap equal to the real blob size
  // succeeds, one byte less fails. 40 polynomials over 40 variables cover
  // every displacement width of both slot loads and result stores.
  Rng rng(12);
  VariableTable vars;
  std::vector<VariableId> ids;
  for (int v = 0; v < 40; ++v) {
    ids.push_back(vars.Intern("w" + std::to_string(v)));
  }
  PolynomialSet polys;
  for (int p = 0; p < 40; ++p) {
    std::vector<Monomial> terms;
    for (int t = 0; t < 3; ++t) {
      terms.emplace_back(rng.UniformReal(-5.0, 5.0),
                         std::vector<Factor>{
                             {ids[rng.Uniform(ids.size())],
                              static_cast<uint32_t>(1 + rng.Uniform(3))}});
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  auto compiled = polys.Compiled();
  ASSERT_GT(compiled->slot_count(), 16u) << "want slots past disp8 range";
  auto full = GeneratePolynomialSetCode(*compiled,
                                        JitCodeCache::kDefaultMaxCodeBytes);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t size = full->code.size();
  EXPECT_TRUE(GeneratePolynomialSetCode(*compiled, size).ok());
  auto over = GeneratePolynomialSetCode(*compiled, size - 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(CodeGeneratorTest, NativeCodeMatchesInterpreterBitwise) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  auto compiled = polys.Compiled();
  auto generated = GeneratePolynomialSetCode(*compiled,
                                             JitCodeCache::kDefaultMaxCodeBytes);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  auto arena =
      ExecArena::Create(generated->code.data(), generated->code.size());
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  JitModule module(compiled->fingerprint(), std::move(*arena),
                   std::move(generated->entry_offsets),
                   generated->range_entry);

  Rng rng(20260809);
  for (int round = 0; round < 16; ++round) {
    Valuation val = MakeScenario(rng, vars);
    DenseValuation dense = compiled->MaterializeValuation(val);
    // Per-polynomial entries and the full-set range function must both
    // match the interpreter bit-for-bit.
    std::vector<double> all(compiled->poly_count());
    module.EvalAll(dense.data(), all.data());
    size_t p = 0;
    for (const Polynomial& poly : polys.polynomials()) {
      ASSERT_EQ(Bits(val.Evaluate(poly)), Bits(module.Eval(p, dense.data())))
          << "round " << round << " polynomial " << p;
      ASSERT_EQ(Bits(val.Evaluate(poly)), Bits(all[p]))
          << "round " << round << " range function, polynomial " << p;
      ++p;
    }
  }
}

// ------------------------------------------------ code cache ------------

TEST(JitCodeCacheTest, HitMissAccountingAndBudgetCharge) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  JitCodeCache cache(/*byte_budget=*/size_t{4} << 20);
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  auto compiled = polys.Compiled();

  auto first = cache.GetOrEmit(*compiled);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->fingerprint(), compiled->fingerprint());
  JitCodeCache::Stats after_miss = cache.stats();
  EXPECT_EQ(after_miss.misses, 1u);
  EXPECT_EQ(after_miss.hits, 0u);
  EXPECT_EQ(after_miss.resident_modules, 1u);
  // The budget is charged at page granularity, exactly mapped_bytes().
  EXPECT_EQ(after_miss.resident_bytes, (*first)->mapped_bytes());
  EXPECT_GE((*first)->mapped_bytes(), (*first)->code_bytes());

  auto second = cache.GetOrEmit(*compiled);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->get(), first->get());  // same module, not re-emitted
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Invalidate releases the charge; the caller's shared_ptr stays valid.
  EXPECT_TRUE(cache.Invalidate(compiled->fingerprint()));
  EXPECT_FALSE(cache.Invalidate(compiled->fingerprint()));
  JitCodeCache::Stats after_drop = cache.stats();
  EXPECT_EQ(after_drop.invalidations, 1u);
  EXPECT_EQ(after_drop.resident_modules, 0u);
  EXPECT_EQ(after_drop.resident_bytes, 0u);
  EXPECT_EQ((*first)->fingerprint(), compiled->fingerprint());
}

TEST(JitCodeCacheTest, EvictsLruButNeverTheMostRecent) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  // A budget of one page: every new set's module (>= one page) forces the
  // previous one out, but the newest must always be admitted.
  JitCodeCache cache(/*byte_budget=*/1);
  Rng rng(7);
  VariableTable vars;
  PolynomialSet a = MakeRandomSet(rng, vars, 3, "a");
  PolynomialSet b = MakeRandomSet(rng, vars, 3, "b");

  auto mod_a = cache.GetOrEmit(*a.Compiled());
  ASSERT_TRUE(mod_a.ok()) << mod_a.status().ToString();
  EXPECT_EQ(cache.stats().resident_modules, 1u);  // over budget, but kept

  auto mod_b = cache.GetOrEmit(*b.Compiled());
  ASSERT_TRUE(mod_b.ok()) << mod_b.status().ToString();
  JitCodeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_modules, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_bytes, (*mod_b)->mapped_bytes());

  // The evicted module re-emits on next use (a fresh miss, not a hit).
  auto again = cache.GetOrEmit(*a.Compiled());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Evicted-but-held modules keep executing: the shared_ptr owns the
  // mapping, eviction only drops the cache's reference.
  Valuation val;
  DenseValuation dense = b.Compiled()->MaterializeValuation(val);
  (void)(*mod_b)->Eval(0, dense.data());
}

TEST(JitCodeCacheTest, EmitFailureIsRememberedNotRetried) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  // max_code_bytes of 1 makes every non-empty emission fail.
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget, /*max_code_bytes=*/1);
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  auto compiled = polys.Compiled();
  EXPECT_FALSE(cache.EmitFailed(compiled->fingerprint()));
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto module = cache.GetOrEmit(*compiled);
    ASSERT_FALSE(module.ok());
    EXPECT_EQ(module.status().code(), StatusCode::kOutOfRange);
  }
  JitCodeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // one attempt; the second call remembered
  EXPECT_EQ(stats.emit_failures, 1u);
  EXPECT_EQ(stats.resident_modules, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_TRUE(cache.EmitFailed(compiled->fingerprint()));

  // Another snapshot of the same polynomials is its own attempt.
  PolynomialSet twin = MakeFixedSet(vars);
  EXPECT_FALSE(cache.GetOrEmit(*twin.Compiled()).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(JitCodeCacheTest, ConcurrentGetOrEmitYieldsOneModule) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget);
  Rng rng(99);
  VariableTable vars;
  PolynomialSet shared_set = MakeRandomSet(rng, vars, 4, "s");
  auto compiled = shared_set.Compiled();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const JitModule>> modules(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto module = cache.GetOrEmit(*compiled);
      if (module.ok()) modules[t] = *module;
    });
  }
  for (auto& thread : threads) thread.join();

  // Exactly one emission; every thread got the same module.
  JitCodeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(modules[t], nullptr) << "thread " << t;
    EXPECT_EQ(modules[t].get(), modules[0].get());
  }
}

// ------------------------------------------------ backend fallbacks -----

TEST(JitBackendTest, ForcedFallbackCountsAndStaysBitwiseEqual) {
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  Rng rng(5);
  Valuation val = MakeScenario(rng, vars);

  JitBackend backend(JitBackend::Mode::kForceFallback);
  EXPECT_FALSE(backend.Available());
  ExpectBackendMatchesNaive(backend, polys, val, "forced fallback");
  JitBackend::Stats stats = backend.stats();
  EXPECT_EQ(stats.native_batches, 0u);
  EXPECT_EQ(stats.fallback_forced, 1u);
  EXPECT_EQ(stats.fallback_emit_failed, 0u);
}

TEST(JitBackendTest, EnvKnobForcesFallbackPerCall) {
  const char* saved = getenv("PROVABS_EVAL_FORCE_NOJIT");
  std::string saved_value = saved ? saved : "";

  setenv("PROVABS_EVAL_FORCE_NOJIT", "1", /*overwrite=*/1);
  EXPECT_TRUE(JitForceDisabled());
  EXPECT_FALSE(JitNativeActive());

  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  Rng rng(6);
  Valuation val = MakeScenario(rng, vars);
  JitBackend backend(JitBackend::Mode::kAuto);
  EXPECT_FALSE(backend.Available());
  ExpectBackendMatchesNaive(backend, polys, val, "env-forced fallback");
  EXPECT_EQ(backend.stats().fallback_forced, 1u);
  EXPECT_EQ(backend.stats().native_batches, 0u);

  // "0" and unset both mean not-forced; the knob is read per call.
  setenv("PROVABS_EVAL_FORCE_NOJIT", "0", /*overwrite=*/1);
  EXPECT_FALSE(JitForceDisabled());
  unsetenv("PROVABS_EVAL_FORCE_NOJIT");
  EXPECT_FALSE(JitForceDisabled());

  if (saved) {
    setenv("PROVABS_EVAL_FORCE_NOJIT", saved_value.c_str(), /*overwrite=*/1);
  }
}

TEST(JitBackendTest, EmitFailureFallsBackBitwiseEqual) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  // A cache whose code cap rejects everything: the backend must degrade to
  // the compiled kernel and count the reason, not fail the batch.
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget, /*max_code_bytes=*/1);
  JitBackend backend(JitBackend::Mode::kAuto, &cache);
  VariableTable vars;
  PolynomialSet polys = MakeFixedSet(vars);
  Rng rng(8);
  Valuation val = MakeScenario(rng, vars);
  ExpectBackendMatchesNaive(backend, polys, val, "emit-failed fallback");
  JitBackend::Stats stats = backend.stats();
  EXPECT_EQ(stats.fallback_emit_failed, 1u);
  EXPECT_EQ(stats.native_batches, 0u);
}

TEST(JitBackendTest, OverCapSetIsAttemptedOncePerSnapshot) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  // A set over the code cap: the first batch makes the one generation
  // attempt; every batch counts its fallback and stays bitwise equal.
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget, /*max_code_bytes=*/64);
  JitBackend backend(JitBackend::Mode::kAuto, &cache);
  Rng rng(9);
  VariableTable vars;
  PolynomialSet polys = MakeRandomSet(rng, vars, 30, "o");
  for (int batch = 0; batch < 10; ++batch) {
    Valuation val = MakeScenario(rng, vars);
    ExpectBackendMatchesNaive(backend, polys, val,
                              "over-cap batch " + std::to_string(batch));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().emit_failures, 1u);
  EXPECT_EQ(backend.stats().fallback_emit_failed, 10u);
  EXPECT_EQ(backend.stats().native_batches, 0u);
  // Routing sees the failure: this snapshot is no longer a jit candidate.
  EXPECT_TRUE(backend.Available());
  EXPECT_FALSE(backend.AvailableFor(*polys.Compiled()));
}

TEST(JitBackendTest, RoutingDropsTheJitAfterAFailedEmission) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  // simd_batch and a jit whose cache refuses every set: the jit is probed
  // once (name order puts it first), then dropped, and the class settles
  // on simd_batch without timing the jit's fallback again.
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget, /*max_code_bytes=*/1);
  auto owned = std::make_unique<JitBackend>(JitBackend::Mode::kAuto, &cache);
  const JitBackend* jit = owned.get();
  EvaluationBackendRegistry registry;
  ASSERT_TRUE(registry.Register(std::move(owned)).ok());
  ASSERT_TRUE(registry.Register(std::make_unique<SimdBatchBackend>()).ok());

  Rng rng(10);
  VariableTable vars;
  PolynomialSet polys = MakeRandomSet(rng, vars, 8, "d");
  auto compiled = polys.Compiled();
  std::string last;
  for (int batch = 0; batch < 12; ++batch) {
    Valuation val = MakeScenario(rng, vars);
    DenseValuation dense = compiled->MaterializeValuation(val);
    std::vector<double> out(compiled->poly_count());
    const DenseValuation* scenario = &dense;
    double* out_ptr = out.data();
    StatusOr<BackendRoute> route = registry.Route("", *compiled, 1);
    ASSERT_TRUE(route.ok());
    last = route->backend()->info().name;
    ASSERT_TRUE(route->EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                     &scenario, &out_ptr, 1)
                    .ok());
    size_t i = 0;
    for (const Polynomial& p : polys.polynomials()) {
      ASSERT_EQ(Bits(val.Evaluate(p)), Bits(out[i])) << "batch " << batch;
      ++i;
    }
  }
  EXPECT_EQ(last, "simd_batch");
  EXPECT_EQ(jit->stats().fallback_emit_failed, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(JitBackendTest, NativeBatchesAreCountedAndBitwiseEqual) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget);
  JitBackend backend(JitBackend::Mode::kAuto, &cache);
  EXPECT_TRUE(backend.Available());
  Rng rng(11);
  VariableTable vars;
  PolynomialSet polys = MakeRandomSet(rng, vars, 6, "n");
  for (int round = 0; round < 4; ++round) {
    Valuation val = MakeScenario(rng, vars);
    ExpectBackendMatchesNaive(backend, polys, val,
                              "native round " + std::to_string(round));
  }
  JitBackend::Stats stats = backend.stats();
  EXPECT_EQ(stats.native_batches, 4u);
  EXPECT_EQ(stats.fallback_forced, 0u);
  EXPECT_EQ(stats.fallback_emit_failed, 0u);
  // One emission served all four batches.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(JitBackendTest, PartialRangesUsePerPolynomialEntries) {
  if (!JitNativeActive()) GTEST_SKIP() << "no native jit on this host";
  // Partial [begin, end) ranges — the shape parallel chunking produces —
  // route through the per-polynomial entry points, not the full-set range
  // function; every sub-range must still be bitwise equal to naive.
  JitCodeCache cache(JitCodeCache::kDefaultByteBudget);
  JitBackend backend(JitBackend::Mode::kAuto, &cache);
  Rng rng(13);
  VariableTable vars;
  PolynomialSet polys = MakeRandomSet(rng, vars, 7, "r");
  auto compiled = polys.Compiled();
  Valuation val = MakeScenario(rng, vars);
  DenseValuation dense = compiled->MaterializeValuation(val);

  std::vector<double> expected;
  for (const Polynomial& p : polys.polynomials()) {
    expected.push_back(val.Evaluate(p));
  }
  const size_t count = compiled->poly_count();
  for (size_t begin = 0; begin < count; ++begin) {
    for (size_t end = begin; end <= count; ++end) {
      std::vector<double> out(end - begin);
      const DenseValuation* scenario = &dense;
      double* out_ptr = out.data();
      Status status = backend.EvaluateBatch(*compiled, begin, end, &scenario,
                                            &out_ptr, 1);
      ASSERT_TRUE(status.ok()) << status.ToString();
      for (size_t p = begin; p < end; ++p) {
        ASSERT_EQ(Bits(expected[p]), Bits(out[p - begin]))
            << "range [" << begin << ", " << end << ") polynomial " << p;
      }
    }
  }
}

}  // namespace
}  // namespace provabs
