// EvaluateBatcher behavior under the backend registry: ragged concurrent
// batch sizes around the SIMD lane width, backend selection and error
// propagation per request, snapshot-keyed grouping across mid-flight
// Add-invalidation of the compiled form, and the exactly-once dispatch
// contract — on a one-thread pool every (compiled form, backend) group is
// exactly ONE EvaluateBatch call per leader round, observed through a
// counting backend injected via the registry parameter.
//
// The concurrent sections run under TSan in CI (this suite is in the
// thread-sanitizer job's list) to certify the leader/follower protocol
// around the new grouping path.

#include "server/evaluate_batcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/evaluation_backend.h"
#include "core/polynomial.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "parallel/thread_pool.h"

namespace provabs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

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
        << which << ": polynomial " << i;
  }
}

/// A few polynomials over a handful of variables — small enough that the
/// whole set is one chunk on a one-thread pool, rich enough (exponents,
/// shared variables) that slot-mapping mistakes would change bits.
std::shared_ptr<PolynomialSet> MakeSet(Rng& rng, VariableTable& vars,
                                       size_t num_polys, const char* prefix) {
  std::vector<VariableId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(vars.Intern(std::string(prefix) + std::to_string(i)));
  }
  auto polys = std::make_shared<PolynomialSet>();
  for (size_t p = 0; p < num_polys; ++p) {
    std::vector<Monomial> terms;
    const size_t n_terms = 1 + rng.Uniform(6);
    for (size_t t = 0; t < n_terms; ++t) {
      std::vector<Factor> factors;
      const size_t n_factors = 1 + rng.Uniform(3);
      for (size_t f = 0; f < n_factors; ++f) {
        factors.push_back({ids[rng.Uniform(ids.size())],
                           static_cast<uint32_t>(1 + rng.Uniform(3))});
      }
      terms.emplace_back(rng.UniformReal(-4.0, 4.0), std::move(factors));
    }
    polys->Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

Valuation MakeScenario(Rng& rng, const PolynomialSet& polys) {
  Valuation val;
  for (VariableId v : polys.Variables()) {
    if (rng.Bernoulli(0.7)) val.Set(v, rng.UniformReal(-1.5, 1.5));
  }
  return val;
}

/// Delegates to the compiled scalar walk but counts EvaluateBatch
/// dispatches — the probe for the exactly-once-per-round contract.
class CountingBackend : public EvaluationBackend {
 public:
  const EvaluationBackendInfo& info() const override {
    static const EvaluationBackendInfo kInfo = {
        "counting", "compiled walk that counts dispatches", false, true, 1};
    return kInfo;
  }
  // mutable: DoEvaluateBatch is const on the backend interface.
  mutable std::atomic<uint64_t> calls{0};
  mutable std::atomic<uint64_t> scenarios_seen{0};

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    scenarios_seen.fetch_add(scenario_count, std::memory_order_relaxed);
    for (size_t s = 0; s < scenario_count; ++s) {
      compiled.EvaluateRange(poly_begin, poly_end, *scenarios[s], outs[s]);
    }
  }
};

/// Fires `n` concurrent Evaluate calls at one batcher and bit-checks every
/// result against the naive reference.
void RunConcurrent(EvaluateBatcher& batcher,
                   std::shared_ptr<const PolynomialSet> polys,
                   const std::vector<Valuation>& scenarios,
                   const std::string& backend = "") {
  const size_t n = scenarios.size();
  std::vector<StatusOr<std::vector<double>>> results(
      n, StatusOr<std::vector<double>>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      results[c] = batcher.Evaluate(polys, scenarios[c], backend);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < n; ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[c], *polys), *results[c],
                       "caller " + std::to_string(c));
  }
}

// Ragged concurrency around the simd_batch preferred width (8): single
// request, one under, exactly at, one over, and 10x — every coalescing
// shape from lone leader through full lane groups plus remainders.
TEST(EvaluateBatcherTest, RaggedBatchSizesStayBitwiseCorrect) {
  Rng rng(31000);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 6, "r");
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);

  size_t total = 0;
  for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{80}}) {
    std::vector<Valuation> scenarios;
    for (size_t s = 0; s < n; ++s) scenarios.push_back(MakeScenario(rng, *polys));
    RunConcurrent(batcher, polys, scenarios);
    total += n;
  }

  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_GE(stats.batches, 5u);  // at least one leader round per wave
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.groups, stats.batches);  // every round forms >= 1 group
  EXPECT_GE(stats.backend_calls, stats.groups);
  EXPECT_GE(stats.max_batch, 1u);
}

// Explicit backend names route per request — requests naming different
// backends coalesce into one round but split into per-backend groups, and
// all of them stay bitwise equal to naive.
TEST(EvaluateBatcherTest, PerRequestBackendSelection) {
  Rng rng(31001);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 5, "b");
  ThreadPool pool(2);
  EvaluateBatcher batcher(pool);

  for (const char* backend : {"compiled", "simd_batch", "jit", ""}) {
    std::vector<Valuation> scenarios;
    for (int s = 0; s < 9; ++s) scenarios.push_back(MakeScenario(rng, *polys));
    RunConcurrent(batcher, polys, scenarios, backend);
  }

  // Mixed names from concurrent callers.
  const std::vector<std::string> names = {"compiled", "simd_batch", "",
                                          "jit", "compiled", ""};
  std::vector<Valuation> scenarios;
  for (size_t s = 0; s < names.size(); ++s) {
    scenarios.push_back(MakeScenario(rng, *polys));
  }
  std::vector<StatusOr<std::vector<double>>> results(
      names.size(), StatusOr<std::vector<double>>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < names.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = batcher.Evaluate(polys, scenarios[c], names[c]);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < names.size(); ++c) {
    ASSERT_TRUE(results[c].ok()) << results[c].status().ToString();
    ExpectBitwiseEqual(NaiveEvaluateAll(scenarios[c], *polys), *results[c],
                       "backend '" + names[c] + "'");
  }
}

TEST(EvaluateBatcherTest, UnknownBackendFailsWithoutPoisoningTheRound) {
  Rng rng(31002);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 4, "u");
  ThreadPool pool(2);
  EvaluateBatcher batcher(pool);

  // A bad request and good requests race into the same batcher: the bad
  // one gets the registry's name-listing error, the good ones complete.
  Valuation good_val = MakeScenario(rng, *polys);
  StatusOr<std::vector<double>> bad(Status::Internal("unset"));
  StatusOr<std::vector<double>> good(Status::Internal("unset"));
  std::thread t1([&] { bad = batcher.Evaluate(polys, Valuation{}, "turbo"); });
  std::thread t2([&] { good = batcher.Evaluate(polys, good_val); });
  t1.join();
  t2.join();

  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("unknown evaluation backend 'turbo'"),
            std::string::npos)
      << bad.status().message();
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ExpectBitwiseEqual(NaiveEvaluateAll(good_val, *polys), *good, "good");
}

// Mid-flight Add-invalidation: requests materialize against the compiled
// snapshot they saw; a mutation (through a copy sharing storage, and then
// on the live set between waves) produces a NEW snapshot, and the batcher
// groups by snapshot — so stale-but-consistent requests and fresh requests
// coexist in one round, each bitwise correct against its own form, with no
// fingerprint rejections.
TEST(EvaluateBatcherTest, AddInvalidationSplitsGroupsBySnapshot) {
  Rng rng(31003);
  VariableTable vars;
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);

  auto original = MakeSet(rng, vars, 4, "m");
  original->Compiled();  // warm the cache so the copy shares the snapshot
  auto mutated = std::make_shared<PolynomialSet>(*original);
  ASSERT_EQ(original->Compiled().get(), mutated->Compiled().get());
  mutated->Add(Polynomial::FromMonomials(
      {Monomial(3.5, {{vars.Intern("m0"), 2}, {vars.Intern("fresh"), 1}})}));
  ASSERT_NE(original->Compiled().get(), mutated->Compiled().get());
  ASSERT_NE(original->Compiled()->fingerprint(),
            mutated->Compiled()->fingerprint());

  // Interleaved concurrent requests against both forms.
  constexpr size_t kPerSet = 10;
  std::vector<Valuation> old_scen, new_scen;
  for (size_t s = 0; s < kPerSet; ++s) {
    old_scen.push_back(MakeScenario(rng, *original));
    new_scen.push_back(MakeScenario(rng, *mutated));
  }
  std::vector<StatusOr<std::vector<double>>> old_res(
      kPerSet, StatusOr<std::vector<double>>(Status::Internal("unset")));
  std::vector<StatusOr<std::vector<double>>> new_res(
      kPerSet, StatusOr<std::vector<double>>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kPerSet; ++c) {
    threads.emplace_back(
        [&, c] { old_res[c] = batcher.Evaluate(original, old_scen[c]); });
    threads.emplace_back(
        [&, c] { new_res[c] = batcher.Evaluate(mutated, new_scen[c]); });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < kPerSet; ++c) {
    ASSERT_TRUE(old_res[c].ok()) << old_res[c].status().ToString();
    ExpectBitwiseEqual(NaiveEvaluateAll(old_scen[c], *original), *old_res[c],
                       "pre-mutation form");
    ASSERT_TRUE(new_res[c].ok()) << new_res[c].status().ToString();
    ASSERT_EQ(new_res[c]->size(), original->count() + 1);
    ExpectBitwiseEqual(NaiveEvaluateAll(new_scen[c], *mutated), *new_res[c],
                       "post-mutation form");
  }

  // The two forms never merged into one group.
  EXPECT_GE(batcher.stats().groups, 2u);
}

// The dispatch contract the chunking formula guarantees: on a ONE-thread
// pool a group is never split, so with every request in the same (form,
// backend) group there is exactly one EvaluateBatch call per leader round
// — counted by an injected backend, cross-checked against stats.
TEST(EvaluateBatcherTest, ExactlyOneDispatchPerGroupPerRound) {
  Rng rng(31004);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 7, "c");
  // Callers racing the set's first Compiled() may each build their own
  // snapshot (PolynomialSet::Compiled keeps whichever lands last), and
  // distinct snapshots form distinct groups; compile once up front so the
  // round structure below is the only variable.
  polys->Compiled();

  EvaluationBackendRegistry registry;
  ASSERT_TRUE(RegisterBuiltinEvaluationBackends(registry).ok());
  auto counting = std::make_unique<CountingBackend>();
  CountingBackend* counter = counting.get();
  ASSERT_TRUE(registry.Register(std::move(counting)).ok());

  ThreadPool pool(1);
  EvaluateBatcher batcher(pool, &registry);

  constexpr size_t kCallers = 16;
  constexpr int kRounds = 4;
  size_t total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Valuation> scenarios;
    for (size_t s = 0; s < kCallers; ++s) {
      scenarios.push_back(MakeScenario(rng, *polys));
    }
    RunConcurrent(batcher, polys, scenarios, "counting");
    total += kCallers;
  }

  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(counter->scenarios_seen.load(), total);
  // Single group per round (same form, same backend) and a one-thread pool
  // (single chunk): dispatches == groups == leader rounds.
  EXPECT_EQ(counter->calls.load(), stats.backend_calls);
  EXPECT_EQ(stats.backend_calls, stats.groups);
  EXPECT_EQ(stats.groups, stats.batches);
  EXPECT_LE(stats.batches, stats.requests);
}

// Soak: sustained waves through one batcher — leader handoff, stats
// monotonicity, and bitwise correctness hold over many rounds.
TEST(EvaluateBatcherTest, ManyRoundsSoak) {
  Rng rng(31005);
  VariableTable vars;
  auto polys = MakeSet(rng, vars, 5, "s");
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);

  constexpr int kWaves = 20;
  constexpr size_t kCallers = 6;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<Valuation> scenarios;
    for (size_t s = 0; s < kCallers; ++s) {
      scenarios.push_back(MakeScenario(rng, *polys));
    }
    RunConcurrent(batcher, polys, scenarios,
                  wave % 2 == 0 ? "" : "simd_batch");
  }
  EXPECT_EQ(batcher.stats().requests, kWaves * kCallers);
}

}  // namespace
}  // namespace provabs
