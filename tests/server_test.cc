#include "server/provenance_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "scenario/program.h"
#include "server/artifact_store.h"
#include "server/evaluate_batcher.h"
#include "server/wire_protocol.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

/// Serialized running-example buffers shared by the store/service tests:
/// the paper's P1/P2 polynomials, the Figure 2 plans tree and the Figure 3
/// months tree (label-disjoint, so they can coexist in one artifact).
class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    RunningExample ex = MakeRunningExample(vars_);
    polys_ = RunRunningExampleQuery(ex);
    polys_bytes_ = SerializePolynomialSet(polys_, vars_);
    AbstractionForest plans;
    plans.AddTree(MakeFigure2PlansTree(vars_));
    plans_bytes_ = SerializeForest(plans, vars_);
    AbstractionForest months;
    months.AddTree(MakeFigure3MonthsTree(vars_));
    months_bytes_ = SerializeForest(months, vars_);
  }

  VariableTable vars_;
  PolynomialSet polys_;
  std::string polys_bytes_;
  std::string plans_bytes_;
  std::string months_bytes_;
};

// ------------------------------------------------------- ArtifactStore --

using StoreTest = ServerFixture;

TEST_F(StoreTest, LoadAndGet) {
  ArtifactStore store(1 << 20);
  auto loaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->polys.count(), polys_.count());
  EXPECT_EQ((*loaded)->polys.SizeM(), polys_.SizeM());
  EXPECT_NE((*loaded)->FindForest("plans"), nullptr);
  EXPECT_EQ((*loaded)->FindForest("nope"), nullptr);

  auto got = store.Get("ex");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->generation, (*loaded)->generation);
  EXPECT_EQ(store.Get("missing"), nullptr);
}

TEST_F(StoreTest, LoadRejectsMalformedBytes) {
  ArtifactStore store(1 << 20);
  EXPECT_FALSE(store.Load("bad", "garbage", {}).ok());
  // A forest buffer in the polynomial slot is an artifact-kind error.
  EXPECT_FALSE(store.Load("bad", plans_bytes_, {}).ok());
  EXPECT_FALSE(store.Load("bad", polys_bytes_, {{"f", "junk"}}).ok());
}

TEST_F(StoreTest, ForestOnlyLoadMergesAndBumpsGeneration) {
  ArtifactStore store(1 << 20);
  auto first = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(first.ok());
  uint64_t gen1 = (*first)->generation;

  auto second = store.Load("ex", "", {{"months", months_bytes_}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT((*second)->generation, gen1);
  EXPECT_NE((*second)->FindForest("plans"), nullptr);
  EXPECT_NE((*second)->FindForest("months"), nullptr);
  EXPECT_EQ((*second)->polys.SizeM(), polys_.SizeM());

  // Forest-only load without a prior artifact is an error.
  EXPECT_EQ(store.Load("fresh", "", {{"months", months_bytes_}})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(StoreTest, ResultCacheCountsHitsAndMisses) {
  ArtifactStore store(1 << 20);
  ArtifactStore::ResultKey key{"ex", 1, "plans", 10, "opt"};
  EXPECT_EQ(store.LookupResult(key), nullptr);
  EXPECT_EQ(store.stats().result_misses, 1u);

  ArtifactStore::CompressedResult result;
  result.loss.monomial_loss = 3;
  result.vvs_names = "{Plans}";
  store.InsertResult(key, std::move(result));
  auto hit = store.LookupResult(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->loss.monomial_loss, 3u);
  EXPECT_EQ(hit->vvs_names, "{Plans}");
  EXPECT_EQ(store.stats().result_hits, 1u);

  // A different bound (or generation) is a different entry.
  ArtifactStore::ResultKey other = key;
  other.bound = 11;
  EXPECT_EQ(store.LookupResult(other), nullptr);
  other = key;
  other.generation = 2;
  EXPECT_EQ(store.LookupResult(other), nullptr);
  EXPECT_EQ(store.stats().result_misses, 3u);
}

TEST_F(StoreTest, LruEvictsUnderByteBudget) {
  // Budget fits roughly one artifact: loading a second evicts the first.
  // One shard, so both names share a budget and a recency list (with the
  // default sharding each name would own its own slice and both survive).
  ArtifactStore tiny(ApproxPolynomialSetBytes(polys_) + polys_bytes_.size(),
                     /*shards=*/1);
  ASSERT_TRUE(tiny.Load("a", polys_bytes_, {}).ok());
  ASSERT_TRUE(tiny.Load("b", polys_bytes_, {}).ok());
  EXPECT_GT(tiny.stats().evictions, 0u);
  EXPECT_EQ(tiny.Get("a"), nullptr);
  // The most recently used entry always survives, even over budget.
  EXPECT_NE(tiny.Get("b"), nullptr);
}

TEST_F(StoreTest, ShardedStoreServesAllShards) {
  // With many shards, entries land in per-shard partitions but the store
  // behaves as one cache: all loads visible, stats aggregate across shards.
  ArtifactStore store(64 << 20, /*shards=*/8);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        store.Load("art" + std::to_string(i), polys_bytes_, {}).ok());
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(store.Get("art" + std::to_string(i)), nullptr) << i;
  }
  ArtifactStore::Stats stats = store.stats();
  EXPECT_EQ(stats.artifact_count, 16u);
  EXPECT_GT(stats.cached_bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(StoreTest, GetOrComputePublishesOnlyCompletedResults) {
  ArtifactStore store(1 << 20);
  ArtifactStore::ResultKey key{"ex", 1, "plans", 10, "opt"};

  // A failing compute returns its Status and leaves the cache untouched.
  int runs = 0;
  auto failing = [&]() -> StatusOr<ArtifactStore::CompressedResult> {
    ++runs;
    return Status::Infeasible("no adequate VVS");
  };
  ArtifactStore::GetOrComputeInfo info;
  auto failed = store.GetOrCompute(key, failing, &info);
  EXPECT_EQ(failed.status().code(), StatusCode::kInfeasible);
  EXPECT_FALSE(info.cache_hit);
  EXPECT_FALSE(info.dedup_hit);
  EXPECT_EQ(store.stats().result_count, 0u);

  // Not poisoned: the next call recomputes, succeeds, and caches.
  auto succeeding = [&]() -> StatusOr<ArtifactStore::CompressedResult> {
    ++runs;
    ArtifactStore::CompressedResult result;
    result.loss.monomial_loss = 5;
    result.vvs_names = "{Plans}";
    return result;
  };
  auto ok = store.GetOrCompute(key, succeeding, &info);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->loss.monomial_loss, 5u);
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(store.stats().result_count, 1u);

  // A third call is a pure cache hit; the compute fn never runs.
  auto hit = store.GetOrCompute(key, failing, &info);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ((*hit)->loss.monomial_loss, 5u);
  EXPECT_EQ(runs, 2);
}

/// Runs "opt" against `artifact` and caches the result under `key`, the
/// way ProvenanceService fills a Compress miss.
std::shared_ptr<const ArtifactStore::CompressedResult> InsertOptResult(
    ArtifactStore& store, const ArtifactStore::ResultKey& key,
    const Artifact& artifact) {
  CompressOptions options;
  options.bound = key.bound;
  auto run = CompressorRegistry::Default().Find("opt")->Compress(
      artifact.polys, *artifact.FindForest(key.forest), options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  ArtifactStore::CompressedResult result;
  result.loss = run->loss;
  result.adequate = run->adequate;
  result.algo_result = std::move(*run);
  return store.InsertResult(key, std::move(result));
}

TEST_F(StoreTest, CompressedViewIsChargedWhenFirstBuilt) {
  ArtifactStore store(64 << 20, /*shards=*/1);
  auto loaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Artifact& artifact = **loaded;
  const uint64_t artifact_bytes = store.stats().cached_bytes;
  ArtifactStore::ResultKey key{"ex", artifact.generation, "plans",
                               polys_.SizeM() - 1, "opt"};
  auto result = InsertOptResult(store, key, artifact);
  ASSERT_NE(result, nullptr);

  // A compression alone is charged without its view: the first view
  // request builds and compiles it and charges exactly its estimate to the
  // result's slot; later ones return the same view and charge nothing.
  const PolynomialSet cold =
      result->algo_result.Apply(*artifact.FindForest("plans"), artifact.polys);
  const size_t view_bytes = ApproxPolynomialSetBytes(cold);
  const uint64_t compressed_bytes = store.stats().cached_bytes;
  EXPECT_GT(compressed_bytes, artifact_bytes);
  std::shared_ptr<const PolynomialSet> view =
      store.CompressedView(key, result, artifact);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(SerializePolynomialSet(*view, *artifact.vars),
            SerializePolynomialSet(cold, *artifact.vars));
  EXPECT_EQ(store.stats().cached_bytes, compressed_bytes + view_bytes);
  EXPECT_EQ(store.CompressedView(key, result, artifact), view);
  EXPECT_EQ(store.stats().cached_bytes, compressed_bytes + view_bytes);

  // A view built for a result whose slot was replaced meanwhile is served
  // but charged to nobody.
  auto replaced = InsertOptResult(store, key, artifact);
  EXPECT_EQ(store.stats().cached_bytes, compressed_bytes);
  store.InsertResult(key, ArtifactStore::CompressedResult{});
  const uint64_t stale_bytes = store.stats().cached_bytes;
  EXPECT_NE(store.CompressedView(key, replaced, artifact), nullptr);
  EXPECT_EQ(store.stats().cached_bytes, stale_bytes);

  // Charging evicts down to the budget: with room for the artifact and a
  // viewless result only, the charged result survives and the artifact,
  // now least recently used, goes.
  ArtifactStore tight(compressed_bytes + view_bytes - 1, /*shards=*/1);
  auto tight_loaded =
      tight.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(tight_loaded.ok());
  key.generation = (*tight_loaded)->generation;
  auto tight_result = InsertOptResult(tight, key, **tight_loaded);
  EXPECT_EQ(tight.stats().evictions, 0u);
  EXPECT_NE(tight.CompressedView(key, tight_result, **tight_loaded), nullptr);
  EXPECT_EQ(tight.stats().evictions, 1u);
  EXPECT_EQ(tight.Get("ex"), nullptr);
  EXPECT_EQ(tight.LookupResult(key), tight_result);
  EXPECT_LE(tight.stats().cached_bytes, compressed_bytes + view_bytes - 1);
}

/// Runs "opt" on the artifact's shared loss table and caches the result
/// under `key`, the way ProvenanceService fills an opt Compress miss.
std::shared_ptr<const ArtifactStore::CompressedResult> InsertTableResult(
    ArtifactStore& store, const ArtifactStore::ResultKey& key,
    const Artifact& artifact,
    const std::shared_ptr<const LeafResidualIndex>& table) {
  auto run = OptimalSingleTree(artifact.polys, *artifact.FindForest(key.forest),
                               0, key.bound, table);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  ArtifactStore::CompressedResult result;
  result.loss = run->loss;
  result.adequate = run->adequate;
  result.algo_result = std::move(*run);
  return store.InsertResult(key, std::move(result));
}

TEST_F(StoreTest, LossTableIsChargedOnceToItsArtifact) {
  // Sizes are deterministic, so a first store measures them and a second,
  // tightly budgeted one checks eviction and release.
  uint64_t artifact_bytes = 0;
  uint64_t table_bytes = 0;
  uint64_t max_result_bytes = 0;
  std::vector<uint64_t> bounds;
  {
    ArtifactStore store(64 << 20, /*shards=*/1);
    auto loaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const Artifact& artifact = **loaded;
    artifact_bytes = store.stats().cached_bytes;
    int builds = 0;
    auto table = store.LossTable("ex", artifact, "plans", 0, [&] { ++builds; });
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(builds, 1);
    table_bytes = (*table)->ApproxBytes();
    EXPECT_EQ(store.stats().cached_bytes, artifact_bytes + table_bytes);

    // N results at distinct bounds all read the one table: each is
    // charged its arrays and prefixes, and the table is never charged
    // again.
    auto curve = OptimalTradeoffCurve(
        artifact.polys, *artifact.FindForest("plans"), 0, **table);
    ASSERT_TRUE(curve.ok());
    for (const TradeoffPoint& point : *curve) bounds.push_back(point.size_m);
    ASSERT_GE(bounds.size(), 3u);
    uint64_t expected = artifact_bytes + table_bytes;
    for (uint64_t bound : bounds) {
      auto again = store.LossTable("ex", artifact, "plans", 0,
                                   [&] { ++builds; });
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *table);
      ArtifactStore::ResultKey key{"ex", artifact.generation, "plans", bound,
                                   "opt"};
      auto result = InsertTableResult(store, key, artifact, *again);
      ASSERT_NE(result, nullptr);
      const internal::RetainedDpState& state =
          *result->algo_result.dp_state;
      EXPECT_EQ(state.index, *table);  // Shared, not copied.
      EXPECT_EQ(ApproxDpStateBytes(state, /*owns_table=*/true) -
                    ApproxDpStateBytes(state, /*owns_table=*/false),
                table_bytes);
      const uint64_t result_bytes =
          sizeof(ArtifactStore::CompressedResult) +
          result->vvs_names.size() +
          ApproxDpStateBytes(state, /*owns_table=*/false);
      max_result_bytes = std::max(max_result_bytes, result_bytes);
      expected += result_bytes;
      EXPECT_EQ(store.stats().cached_bytes, expected) << "bound " << bound;
    }
    EXPECT_EQ(builds, 1);
  }

  // Room for the artifact, its table and one result: each insert evicts
  // the previous result, an empty filler evicts the last, the table stays
  // charged to the artifact throughout, and a reload releases both.
  const uint64_t filler_bytes = sizeof(ArtifactStore::CompressedResult);
  ArtifactStore store(artifact_bytes + table_bytes + max_result_bytes,
                      /*shards=*/1);
  auto loaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(loaded.ok());
  const Artifact& artifact = **loaded;
  int builds = 0;
  auto table = store.LossTable("ex", artifact, "plans", 0, [&] { ++builds; });
  ASSERT_TRUE(table.ok());
  for (uint64_t bound : bounds) {
    ASSERT_NE(store.Get("ex"), nullptr);  // Keeps the artifact recent.
    InsertTableResult(store,
                      {"ex", artifact.generation, "plans", bound, "opt"},
                      artifact, *table);
  }
  EXPECT_EQ(store.stats().result_count, 1u);
  EXPECT_EQ(store.stats().evictions, bounds.size() - 1);
  ASSERT_NE(store.Get("ex"), nullptr);
  store.InsertResult({"ex", artifact.generation, "plans", 0, "filler"},
                     ArtifactStore::CompressedResult{});
  EXPECT_EQ(store.stats().result_count, 1u);
  EXPECT_EQ(store.stats().cached_bytes,
            artifact_bytes + table_bytes + filler_bytes);
  auto kept = store.LossTable("ex", artifact, "plans", 0, [&] { ++builds; });
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, *table);
  EXPECT_EQ(builds, 1);

  auto reloaded = store.Load("ex", polys_bytes_, {{"plans", plans_bytes_}});
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(store.stats().cached_bytes, artifact_bytes + filler_bytes);
  auto rebuilt = store.LossTable("ex", **reloaded, "plans", 0,
                                 [&] { ++builds; });
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(builds, 2);
  EXPECT_NE(*rebuilt, *table);

  // Unknown forests and trees are structured errors, not builds.
  EXPECT_EQ(store.LossTable("ex", **reloaded, "nope", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.LossTable("ex", **reloaded, "plans", 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StoreTest, BudgetSmallerThanOneArtifactStillServesIt) {
  ArtifactStore store(1);
  ASSERT_TRUE(store.Load("only", polys_bytes_, {}).ok());
  EXPECT_NE(store.Get("only"), nullptr);
}

// ----------------------------------------------------- EvaluateBatcher --

using BatcherTest = ServerFixture;

TEST_F(BatcherTest, MatchesSerialEvaluation) {
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);
  Valuation val;
  val.Set(vars_.Find("m1"), 0.5);
  val.Set(vars_.Find("b1"), 0.25);
  auto shared = std::make_shared<PolynomialSet>(polys_);
  StatusOr<std::vector<double>> batched_or = batcher.Evaluate(shared, val);
  ASSERT_TRUE(batched_or.ok()) << batched_or.status().ToString();
  std::vector<double> batched = std::move(*batched_or);
  std::vector<double> serial = val.EvaluateAll(polys_);
  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], serial[i]);
  }
}

TEST_F(BatcherTest, ConcurrentCallersAllGetTheirOwnAnswers) {
  ThreadPool pool(4);
  EvaluateBatcher batcher(pool);
  auto shared = std::make_shared<PolynomialSet>(polys_);
  constexpr int kCallers = 16;
  std::vector<std::vector<double>> results(kCallers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      Valuation val;
      val.Set(vars_.Find("m1"), 0.1 * c);
      StatusOr<std::vector<double>> got = batcher.Evaluate(shared, val);
      if (got.ok()) results[c] = std::move(*got);
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kCallers; ++c) {
    Valuation val;
    val.Set(vars_.Find("m1"), 0.1 * c);
    std::vector<double> expected = val.EvaluateAll(polys_);
    ASSERT_EQ(results[c].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(results[c][i], expected[i]) << "caller " << c;
    }
  }
  EvaluateBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kCallers));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, static_cast<uint64_t>(kCallers));
  EXPECT_GE(stats.max_batch, 1u);
}

TEST_F(BatcherTest, ReusesPoolAcrossManyRounds) {
  // The satellite ThreadPool concern: one pool must survive many batching
  // rounds (the server's steady state) without wedging or leaking work.
  ThreadPool pool(2);
  EvaluateBatcher batcher(pool);
  auto shared = std::make_shared<PolynomialSet>(polys_);
  for (int round = 0; round < 50; ++round) {
    Valuation val;
    val.Set(vars_.Find("m3"), 0.01 * round);
    StatusOr<std::vector<double>> got = batcher.Evaluate(shared, val);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), polys_.count());
  }
  EXPECT_EQ(batcher.stats().requests, 50u);
  // Sequential callers never coalesce, so each round is its own batch.
  EXPECT_EQ(batcher.stats().batches, 50u);
}

// -------------------------------------------------- ProvenanceService --

class ServiceTest : public ServerFixture {
 protected:
  void SetUp() override {
    ServerFixture::SetUp();
    service_ = std::make_unique<ProvenanceService>(ServiceOptions{});
    LoadRequest load;
    load.artifact = "ex";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"plans", plans_bytes_}};
    Response resp = service_->Load(load);
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_EQ(resp.poly_count, polys_.count());
  }

  std::unique_ptr<ProvenanceService> service_;
};

TEST_F(ServiceTest, CompressThenCacheHit) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  Response first = service_->Compress(req);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.adequate);
  EXPECT_GT(first.vvs.size(), 0u);

  Response second = service_->Compress(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.monomial_loss, first.monomial_loss);
  EXPECT_EQ(second.variable_loss, first.variable_loss);
  EXPECT_EQ(second.vvs, first.vvs);
  EXPECT_EQ(second.stats.result_hits, 1u);
  EXPECT_EQ(second.stats.result_misses, 1u);
}

TEST_F(ServiceTest, ReloadInvalidatesResultCache) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.bound = polys_.SizeM() - 1;
  ASSERT_FALSE(service_->Compress(req).cache_hit);
  ASSERT_TRUE(service_->Compress(req).cache_hit);

  LoadRequest reload;
  reload.artifact = "ex";
  reload.polys_bytes = polys_bytes_;
  reload.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service_->Load(reload).ok());

  // Same request, fresh generation: the DP must run again.
  EXPECT_FALSE(service_->Compress(req).cache_hit);
}

/// A one-shot process reads back the artifact and result its service
/// computed. Under a tight budget the result can evict the artifact it was
/// computed from; the one-shot options never evict.
TEST_F(ServiceTest, OneShotOptionsKeepWhatTheServiceComputed) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.bound = polys_.SizeM() - 1;
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};

  ServiceOptions tight;
  tight.cache_bytes = 1;
  tight.cache_shards = 1;
  ProvenanceService evicting(tight);
  ASSERT_TRUE(evicting.Load(load).ok());
  ASSERT_TRUE(evicting.Compress(req).ok());
  EXPECT_EQ(evicting.store().Get("ex"), nullptr);

  ProvenanceService one_shot(ServiceOptions::OneShot());
  ASSERT_TRUE(one_shot.Load(load).ok());
  ASSERT_TRUE(one_shot.Compress(req).ok());
  std::shared_ptr<const Artifact> artifact = one_shot.store().Get("ex");
  ASSERT_NE(artifact, nullptr);
  EXPECT_NE(one_shot.store().PeekResult({"ex", artifact->generation, "plans",
                                         req.bound, "opt"}),
            nullptr);
  EXPECT_EQ(one_shot.Info({}).stats.evictions, 0u);
  // Only the language's own ceiling bounds a scenario family.
  EXPECT_EQ(ServiceOptions::OneShot().max_scenarios_per_request,
            scenario::kMaxScenarioFamily);
}

TEST_F(ServiceTest, EvaluateRawAndCompressed) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.assignments = {{"m1", 0.5}, {"b1", 0.0}};
  Response raw = service_->Evaluate(req);
  ASSERT_TRUE(raw.ok()) << raw.message;

  Valuation val;
  val.Set(vars_.Find("m1"), 0.5);
  val.Set(vars_.Find("b1"), 0.0);
  std::vector<double> expected = val.EvaluateAll(polys_);
  ASSERT_EQ(raw.values.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw.values[i], expected[i]);
  }

  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  // b1 was merged into a meta-variable by the compression; assigning it
  // would silently change nothing, so the compressed view rejects it.
  Response rejected = service_->Evaluate(req);
  EXPECT_EQ(rejected.code, StatusCode::kNotFound);

  // Month variables are outside the plans forest and survive compression.
  req.assignments = {{"m1", 0.5}};
  Response compressed = service_->Evaluate(req);
  ASSERT_TRUE(compressed.ok()) << compressed.message;
  EXPECT_EQ(compressed.values.size(), polys_.count());
  // The evaluate populated the compression cache; a repeat is a hit.
  Response again = service_->Evaluate(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.cache_hit);
  ASSERT_EQ(again.values.size(), compressed.values.size());
  for (size_t i = 0; i < compressed.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.values[i], compressed.values[i]);
  }
}

TEST_F(ServiceTest, ErrorsCarryStatusCodes) {
  CompressRequest missing;
  missing.artifact = "nope";
  missing.bound = 10;
  EXPECT_EQ(service_->Compress(missing).code, StatusCode::kNotFound);

  CompressRequest bad_forest;
  bad_forest.artifact = "ex";
  bad_forest.forest = "nope";
  bad_forest.bound = 10;
  EXPECT_EQ(service_->Compress(bad_forest).code, StatusCode::kNotFound);

  CompressRequest bad_algo;
  bad_algo.artifact = "ex";
  bad_algo.forest = "plans";
  bad_algo.algo = "quantum";
  bad_algo.bound = 10;
  EXPECT_EQ(service_->Compress(bad_algo).code, StatusCode::kInvalidArgument);

  CompressRequest infeasible;
  infeasible.artifact = "ex";
  infeasible.forest = "plans";
  infeasible.bound = 1;
  EXPECT_EQ(service_->Compress(infeasible).code, StatusCode::kInfeasible);

  EvaluateRequest bad_var;
  bad_var.artifact = "ex";
  bad_var.assignments = {{"no_such_var", 2.0}};
  EXPECT_EQ(service_->Evaluate(bad_var).code, StatusCode::kNotFound);

  // A variable that exists in the table (it labels a forest node) but does
  // not occur in the polynomials: assigning it would silently change
  // nothing, so it is rejected rather than ignored.
  EvaluateRequest absent_var;
  absent_var.artifact = "ex";
  absent_var.assignments = {{"Business", 0.5}};
  EXPECT_EQ(service_->Evaluate(absent_var).code, StatusCode::kNotFound);

  LoadRequest bad_load;
  bad_load.artifact = "bad";
  bad_load.polys_bytes = "not a buffer";
  EXPECT_FALSE(service_->Load(bad_load).ok());

  LoadRequest unnamed;
  EXPECT_EQ(service_->Load(unnamed).code, StatusCode::kInvalidArgument);
}

// Assignment validation runs against the evaluated snapshot's slot index:
// exactly the variables occurring in the evaluated polynomials are
// accepted, with the same codes and messages whichever way a name fails.
TEST_F(ServiceTest, EvaluateValidatesAssignmentsAgainstTheEvaluatedView) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  // Learn which plan leaves the cut merged and which meta-variable
  // survived.
  CompressRequest compress;
  compress.artifact = "ex";
  compress.forest = "plans";
  compress.bound = req.bound;
  Response cut = service_->Compress(compress);
  ASSERT_TRUE(cut.ok()) << cut.message;
  std::string meta;
  for (const char* inner :
       {"Plans", "Business", "SB", "Special", "F", "Y", "Standard"}) {
    const std::string label = inner;
    if (cut.vvs.find("{" + label + ",") != std::string::npos ||
        cut.vvs.find(" " + label + ",") != std::string::npos ||
        cut.vvs.find(" " + label + "}") != std::string::npos) {
      meta = label;
    }
  }
  ASSERT_FALSE(meta.empty()) << cut.vvs;

  const std::string kAbstracted =
      "variable 'b1' does not occur in the compressed view (set its "
      "surviving meta-variable instead)";
  // An abstracted-away leaf.
  req.assignments = {{"b1", 0.5}};
  Response leaf = service_->Evaluate(req);
  EXPECT_EQ(leaf.code, StatusCode::kNotFound);
  EXPECT_EQ(leaf.message, kAbstracted);
  // A name the artifact has never seen gets the same compressed-view text.
  req.assignments = {{"no_such_var", 0.5}};
  Response unknown = service_->Evaluate(req);
  EXPECT_EQ(unknown.code, StatusCode::kNotFound);
  EXPECT_EQ(unknown.message,
            "variable 'no_such_var' does not occur in the compressed view "
            "(set its surviving meta-variable instead)");
  // The surviving meta-variable is accepted and changes the answer exactly
  // as the oracle does on the compressed view.
  req.assignments = {{meta, 0.5}, {"m1", 0.25}};
  Response survivor = service_->Evaluate(req);
  ASSERT_TRUE(survivor.ok()) << survivor.message;
  {
    const Compressor* compressor = CompressorRegistry::Default().Find("opt");
    ASSERT_NE(compressor, nullptr);
    AbstractionForest forest;
    forest.AddTree(MakeFigure2PlansTree(vars_));
    CompressOptions options;
    options.bound = req.bound;
    auto cold = compressor->Compress(polys_, forest, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    PolynomialSet view = cold->Apply(forest, polys_);
    Valuation val;
    val.Set(vars_.Find(meta), 0.5);
    val.Set(vars_.Find("m1"), 0.25);
    EXPECT_EQ(survivor.values, val.EvaluateAll(view));
  }

  // The full-provenance path: every leaf occurring in P is accepted, and
  // an unknown name keeps its own message.
  req.compressed = false;
  req.assignments = {{"b1", 0.5}, {"m1", 0.25}};
  Response full = service_->Evaluate(req);
  ASSERT_TRUE(full.ok()) << full.message;
  Valuation val;
  val.Set(vars_.Find("b1"), 0.5);
  val.Set(vars_.Find("m1"), 0.25);
  EXPECT_EQ(full.values, val.EvaluateAll(polys_));
  req.assignments = {{"no_such_var", 0.5}};
  Response full_unknown = service_->Evaluate(req);
  EXPECT_EQ(full_unknown.code, StatusCode::kNotFound);
  EXPECT_EQ(full_unknown.message, "unknown variable 'no_such_var'");
  // The meta-variable labels a forest node but does not occur in P.
  req.assignments = {{meta, 0.5}};
  Response full_meta = service_->Evaluate(req);
  EXPECT_EQ(full_meta.code, StatusCode::kNotFound);
  EXPECT_EQ(full_meta.message, "unknown variable '" + meta + "'");
}

TEST_F(ServiceTest, TradeoffReturnsParetoFrontier) {
  TradeoffRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  Response resp = service_->Tradeoff(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  ASSERT_GT(resp.points.size(), 0u);
  EXPECT_EQ(resp.points.front().variable_loss, 0u);
  for (size_t i = 1; i < resp.points.size(); ++i) {
    EXPECT_LT(resp.points[i].size_m, resp.points[i - 1].size_m);
    EXPECT_GT(resp.points[i].variable_loss, resp.points[i - 1].variable_loss);
  }
}

TEST_F(ServiceTest, UnknownAlgoErrorEnumeratesRegisteredNames) {
  CompressRequest req;
  req.artifact = "ex";
  req.forest = "plans";
  req.algo = "quantum";
  req.bound = 10;
  Response resp = service_->Compress(req);
  EXPECT_EQ(resp.code, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("quantum"), std::string::npos);
  EXPECT_NE(resp.message.find("brute, greedy, opt, prox"),
            std::string::npos);
}

TEST_F(ServiceTest, BruteAndProxAreServable) {
  // Every registered algorithm is reachable through the same request path
  // and composes with the result cache (the key carries the algo string).
  for (const std::string algo : {"brute", "prox"}) {
    CompressRequest req;
    req.artifact = "ex";
    req.forest = "plans";
    req.algo = algo;
    req.bound = polys_.SizeM() - 1;
    Response first = service_->Compress(req);
    ASSERT_TRUE(first.ok()) << algo << ": " << first.message;
    EXPECT_FALSE(first.cache_hit) << algo;
    EXPECT_TRUE(first.adequate) << algo;
    EXPECT_FALSE(first.vvs.empty()) << algo;

    Response second = service_->Compress(req);
    ASSERT_TRUE(second.ok()) << algo;
    EXPECT_TRUE(second.cache_hit) << algo;
    EXPECT_EQ(second.vvs, first.vvs) << algo;
    EXPECT_EQ(second.monomial_loss, first.monomial_loss) << algo;
  }
}

TEST_F(ServiceTest, EvaluateOverProxCompressedView) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "prox";
  req.bound = polys_.SizeM() - 1;
  Response resp = service_->Evaluate(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.values.size(), polys_.count());
  // All-ones valuation: every polynomial evaluates to its monomial count
  // weighted by coefficients, unchanged by variable renaming — so the
  // compressed view must agree with the raw artifact.
  EvaluateRequest raw;
  raw.artifact = "ex";
  Response raw_resp = service_->Evaluate(raw);
  ASSERT_TRUE(raw_resp.ok());
  ASSERT_EQ(raw_resp.values.size(), resp.values.size());
  for (size_t i = 0; i < resp.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(resp.values[i], raw_resp.values[i]) << i;
  }
}

TEST_F(ServiceTest, ListAlgosReturnsCapabilityRecords) {
  Response resp = service_->ListAlgos(ListAlgosRequest{});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.request_kind, MessageKind::kListAlgosRequest);
  ASSERT_EQ(resp.algos.size(), 4u);
  EXPECT_EQ(resp.algos[0].name, "brute");
  EXPECT_TRUE(resp.algos[0].exact);
  EXPECT_TRUE(resp.algos[0].produces_cut);
  EXPECT_EQ(resp.algos[1].name, "greedy");
  EXPECT_EQ(resp.algos[2].name, "opt");
  EXPECT_TRUE(resp.algos[2].supports_tradeoff);
  EXPECT_TRUE(resp.algos[2].produces_cut);
  EXPECT_EQ(resp.algos[3].name, "prox");
  EXPECT_FALSE(resp.algos[3].produces_cut);
  for (const AlgoCapability& a : resp.algos) {
    EXPECT_TRUE(a.deterministic) << a.name;
    EXPECT_FALSE(a.summary.empty()) << a.name;
    EXPECT_TRUE(a.supports_time_budget) << a.name;
  }

  // And over the frame path: request 22 round-trips through HandleFrame.
  bool shutdown = false;
  std::string reply = service_->HandleFrame(
      EncodeListAlgosRequest(ListAlgosRequest{}), &shutdown);
  auto decoded = DecodeResponse(reply);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok());
  ASSERT_EQ(decoded->algos.size(), 4u);
  EXPECT_EQ(decoded->algos[2].name, "opt");
  EXPECT_FALSE(shutdown);
}

TEST_F(ServiceTest, ListBackendsReturnsCapabilityRecords) {
  Response resp = service_->ListBackends(ListBackendsRequest{});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.request_kind, MessageKind::kListBackendsRequest);
  ASSERT_EQ(resp.backends.size(), 3u);
  EXPECT_EQ(resp.backends[0].name, "compiled");
  EXPECT_FALSE(resp.backends[0].vectorized);
  EXPECT_EQ(resp.backends[1].name, "jit");
  EXPECT_FALSE(resp.backends[1].vectorized);
  EXPECT_EQ(resp.backends[2].name, "simd_batch");
  EXPECT_TRUE(resp.backends[2].vectorized);
  EXPECT_GT(resp.backends[2].preferred_batch, 1u);
  for (const EvalBackendCapability& b : resp.backends) {
    EXPECT_TRUE(b.deterministic) << b.name;
    EXPECT_FALSE(b.summary.empty()) << b.name;
  }

  // And over the frame path: request 23 round-trips through HandleFrame.
  bool shutdown = false;
  std::string reply = service_->HandleFrame(
      EncodeListBackendsRequest(ListBackendsRequest{}), &shutdown);
  auto decoded = DecodeResponse(reply);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok());
  ASSERT_EQ(decoded->backends.size(), 3u);
  EXPECT_EQ(decoded->backends[2].name, "simd_batch");
  EXPECT_FALSE(shutdown);
}

TEST_F(ServiceTest, EvaluateRoutesThroughNamedBackend) {
  EvaluateRequest req;
  req.artifact = "ex";
  req.assignments = {{"m1", 0.5}, {"b1", 0.0}};
  Response reference = service_->Evaluate(req);
  ASSERT_TRUE(reference.ok()) << reference.message;
  // An auto-routed request reports the registered backend that ran it —
  // through the probe and after the snapshot's choice has settled.
  const std::vector<std::string> names =
      EvaluationBackendRegistry::Default().Names();
  for (uint32_t i = 0; i < 4 * EvaluationBackendRegistry::kProbeSamples;
       ++i) {
    Response routed = service_->Evaluate(req);
    ASSERT_TRUE(routed.ok()) << routed.message;
    EXPECT_NE(std::find(names.begin(), names.end(), routed.eval_backend),
              names.end())
        << "'" << routed.eval_backend << "'";
    EXPECT_EQ(routed.values, reference.values);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), reference.eval_backend),
            names.end())
      << "'" << reference.eval_backend << "'";

  // Every registered backend returns bitwise-identical values and echoes
  // its name.
  for (const std::string& name :
       EvaluationBackendRegistry::Default().Names()) {
    req.eval_backend = name;
    Response got = service_->Evaluate(req);
    ASSERT_TRUE(got.ok()) << name << ": " << got.message;
    EXPECT_EQ(got.eval_backend, name);
    ASSERT_EQ(got.values.size(), reference.values.size()) << name;
    for (size_t i = 0; i < reference.values.size(); ++i) {
      uint64_t want, have;
      std::memcpy(&want, &reference.values[i], sizeof(want));
      std::memcpy(&have, &got.values[i], sizeof(have));
      EXPECT_EQ(want, have) << name << " polynomial " << i;
    }
  }

  // Unknown names fail up front with the registry's name-listing error.
  req.eval_backend = "turbo";
  Response bad = service_->Evaluate(req);
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message.find("unknown evaluation backend 'turbo'"),
            std::string::npos)
      << bad.message;
  EXPECT_NE(bad.message.find("simd_batch"), std::string::npos) << bad.message;
}

TEST_F(ServiceTest, EvaluateRejectsUnknownBackendBeforeCompressing) {
  int full_runs = 0;
  ServiceOptions options;
  options.compress_hook = [&](const ArtifactStore::ResultKey&) {
    ++full_runs;
  };
  ProvenanceService service(options);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service.Load(load).ok());

  EvaluateRequest req;
  req.artifact = "ex";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  req.assignments = {{"m1", 0.5}};
  req.eval_backend = "turbo";
  Response bad = service.Evaluate(req);
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message.find("unknown evaluation backend 'turbo'"),
            std::string::npos)
      << bad.message;
  EXPECT_EQ(full_runs, 0);
  EXPECT_EQ(bad.stats.result_misses, 0u);
  EXPECT_EQ(bad.stats.result_count, 0u);

  // A registered name on the same key then compresses exactly once.
  req.eval_backend = "compiled";
  Response good = service.Evaluate(req);
  ASSERT_TRUE(good.ok()) << good.message;
  EXPECT_EQ(full_runs, 1);
  EXPECT_EQ(good.stats.result_misses, 1u);
}

// ------------------------------------------- scenario programs ----------

/// Scenario-program service tests. The acceptance bar for the subsystem:
/// one EvaluateScenarioProgram request must be observationally identical —
/// bitwise, not approximately — to issuing every expanded scenario as its
/// own Evaluate request.
class ScenarioServiceTest : public ServiceTest {
 protected:
  /// Per-scenario reference arm: expands `program_source` locally against
  /// the raw polynomials and issues one Evaluate request per scenario with
  /// the scenario's variable assignments, concatenating the results
  /// scenario-major (exactly the kValues layout).
  std::vector<double> EvaluatePerScenario(const std::string& program_source) {
    auto compiled = polys_.Compiled();
    auto program =
        scenario::ScenarioProgram::Compile(program_source, compiled, vars_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    std::vector<DenseValuation> dense;
    EXPECT_TRUE(
        program->ExpandChunk(0, program->scenario_count(), &dense).ok());
    const std::vector<VariableId>& slots = compiled->slot_variables();
    std::vector<double> out;
    for (const DenseValuation& d : dense) {
      EvaluateRequest req;
      req.artifact = "ex";
      for (uint32_t s = 0; s < slots.size(); ++s) {
        req.assignments.emplace_back(vars_.NameOf(slots[s]), d[s]);
      }
      Response resp = service_->Evaluate(req);
      EXPECT_TRUE(resp.ok()) << resp.message;
      out.insert(out.end(), resp.values.begin(), resp.values.end());
    }
    return out;
  }
};

/// A values-shaped family whose response cannot fit the frame budget is
/// refused up front with a structured kOutOfRange naming the --shape top-k
/// workaround — before any valuation is computed, and never by dying in
/// the transport's frame-size check.
TEST_F(ScenarioServiceTest, OversizedValuesResponseRejectedStructured) {
  ServiceOptions small;
  small.max_response_bytes = 4096 + 100;  // fits the envelope, not 10k values
  ProvenanceService service(small);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service.Load(load).ok());

  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program =
      "LET a = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "SET PREFIX(m) = a; SET PREFIX(b) = b; SET * = c;";
  Response resp = service.EvaluateScenarioProgram(req);
  EXPECT_EQ(resp.code, StatusCode::kOutOfRange);
  EXPECT_NE(resp.message.find("--shape top-k"), std::string::npos)
      << resp.message;
  EXPECT_TRUE(resp.values.empty());

  // The suggested workaround actually works on the same service: top-k
  // keeps the response bounded regardless of family size.
  req.shape = ScenarioShape::kTopK;
  req.top_k = 3;
  Response shaped = service.EvaluateScenarioProgram(req);
  ASSERT_TRUE(shaped.ok()) << shaped.message;
  EXPECT_EQ(shaped.scenario_indices.size(), 3u);
}

/// The HandleFrame backstop: any handler whose encoded response outgrows
/// the budget is replaced by a structured error on a healthy connection.
TEST_F(ScenarioServiceTest, HandleFrameReplacesOversizedResponse) {
  ServiceOptions tiny;
  tiny.max_response_bytes = 8;  // every real response exceeds this
  ProvenanceService service(tiny);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service.Load(load).ok());

  bool shutdown = false;
  std::string encoded =
      service.HandleFrame(EncodeInfoRequest(InfoRequest{"ex"}), &shutdown);
  auto decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, StatusCode::kOutOfRange);
  EXPECT_NE(decoded->message.find("response limit"), std::string::npos)
      << decoded->message;
  EXPECT_FALSE(shutdown);
}

// The acceptance check: a three-parameter sweep family (10^3 = 1000
// scenarios) answered in ONE request, bitwise identical to 1000 individual
// Evaluate round trips.
TEST_F(ScenarioServiceTest, ThousandScenarioRequestMatchesIndividualEvaluates) {
  const std::string program_source =
      "LET a = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
      "SET PREFIX(m) = a; SET PREFIX(b) = b; SET * = c;";

  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = program_source;
  Response resp = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.scenario_count, 1000u);
  EXPECT_FALSE(resp.program_cache_hit);
  EXPECT_TRUE(resp.scenario_indices.empty());  // kValues: full vectors

  std::vector<double> expected = EvaluatePerScenario(program_source);
  ASSERT_EQ(resp.values.size(), expected.size());
  ASSERT_EQ(resp.values.size(), 1000 * polys_.count());
  for (size_t i = 0; i < expected.size(); ++i) {
    uint64_t want, have;
    std::memcpy(&want, &expected[i], sizeof(want));
    std::memcpy(&have, &resp.values[i], sizeof(have));
    ASSERT_EQ(want, have) << "value " << i;
  }

  // Chunking is an implementation detail: a service slicing the family
  // into tiny chunks returns the identical byte stream.
  ServiceOptions tiny_chunks;
  tiny_chunks.scenario_chunk = 7;
  ProvenanceService chunked(tiny_chunks);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(chunked.Load(load).ok());
  Response chunked_resp = chunked.EvaluateScenarioProgram(req);
  ASSERT_TRUE(chunked_resp.ok()) << chunked_resp.message;
  ASSERT_EQ(chunked_resp.values.size(), resp.values.size());
  for (size_t i = 0; i < resp.values.size(); ++i) {
    uint64_t want, have;
    std::memcpy(&want, &resp.values[i], sizeof(want));
    std::memcpy(&have, &chunked_resp.values[i], sizeof(have));
    ASSERT_EQ(want, have) << "chunked value " << i;
  }

  // Each response names the backends that ran it: one for the single
  // chunk, and for 143 chunks every backend routing probed on the way —
  // registered names, each once.
  const std::vector<std::string> names =
      EvaluationBackendRegistry::Default().Names();
  EXPECT_NE(std::find(names.begin(), names.end(), resp.eval_backend),
            names.end())
      << resp.eval_backend;
  std::vector<std::string> ran;
  std::string rest = chunked_resp.eval_backend;
  for (size_t comma; (comma = rest.find(',')) != std::string::npos;
       rest = rest.substr(comma + 1)) {
    ran.push_back(rest.substr(0, comma));
  }
  ran.push_back(rest);
  for (const std::string& name : ran) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << chunked_resp.eval_backend;
    EXPECT_EQ(std::count(ran.begin(), ran.end(), name), 1)
        << chunked_resp.eval_backend;
  }
}

TEST_F(ScenarioServiceTest, ShapedResponsesPickByObjective) {
  // One parameter, 4 scenarios. Objective = sum of polynomial values; the
  // catch-all scales every variable by d, so the objective is monotone in
  // d and the extremes are the first and last scenarios.
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(0.5, 1, 2, 4); SET * = d;";
  req.shape = ScenarioShape::kValues;
  Response all = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(all.ok()) << all.message;
  ASSERT_EQ(all.scenario_count, 4u);
  const size_t poly_count = polys_.count();
  std::vector<double> objectives(4, 0.0);
  for (size_t s = 0; s < 4; ++s) {
    for (size_t p = 0; p < poly_count; ++p) {
      objectives[s] += all.values[s * poly_count + p];
    }
  }

  req.shape = ScenarioShape::kArgmin;
  Response argmin = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(argmin.ok()) << argmin.message;
  ASSERT_EQ(argmin.scenario_indices.size(), 1u);
  ASSERT_EQ(argmin.objectives.size(), 1u);
  EXPECT_EQ(argmin.scenario_indices[0], 0u);  // d = 0.5 minimizes
  EXPECT_DOUBLE_EQ(argmin.objectives[0], objectives[0]);
  ASSERT_EQ(argmin.values.size(), poly_count);
  for (size_t p = 0; p < poly_count; ++p) {
    EXPECT_EQ(argmin.values[p], all.values[p]) << p;
  }

  req.shape = ScenarioShape::kArgmax;
  Response argmax = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(argmax.ok());
  ASSERT_EQ(argmax.scenario_indices.size(), 1u);
  EXPECT_EQ(argmax.scenario_indices[0], 3u);  // d = 4 maximizes
  EXPECT_DOUBLE_EQ(argmax.objectives[0], objectives[3]);

  req.shape = ScenarioShape::kTopK;
  req.top_k = 3;
  Response topk = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk.scenario_indices.size(), 3u);
  EXPECT_EQ(topk.scenario_indices,
            (std::vector<uint64_t>{3, 2, 1}));  // descending objective
  EXPECT_DOUBLE_EQ(topk.objectives[0], objectives[3]);
  EXPECT_DOUBLE_EQ(topk.objectives[2], objectives[1]);
  ASSERT_EQ(topk.values.size(), 3 * poly_count);

  // top_k larger than the family returns the whole family, ranked.
  req.top_k = 100;
  Response topall = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(topall.ok());
  EXPECT_EQ(topall.scenario_indices.size(), 4u);
}

TEST_F(ScenarioServiceTest, TiesBreakTowardTheEarlierScenario) {
  // Every scenario produces identical values (the parameter is unused by
  // the catch-all), so argmin/argmax must both pick index 0.
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(1, 2, 3); SET * = 1;";
  for (ScenarioShape shape : {ScenarioShape::kArgmin, ScenarioShape::kArgmax}) {
    req.shape = shape;
    Response resp = service_->EvaluateScenarioProgram(req);
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_EQ(resp.scenario_indices.size(), 1u);
    EXPECT_EQ(resp.scenario_indices[0], 0u);
  }
}

TEST_F(ScenarioServiceTest, ProgramCacheHitsAndGenerationInvalidation) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(1, 2); SET PREFIX(m) = d;";
  Response first = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.program_cache_hit);
  EXPECT_EQ(first.stats.program_misses, 1u);
  EXPECT_EQ(first.stats.program_count, 1u);

  Response second = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.program_cache_hit);
  EXPECT_EQ(second.stats.program_hits, 1u);
  for (size_t i = 0; i < first.values.size(); ++i) {
    uint64_t want, have;
    std::memcpy(&want, &first.values[i], sizeof(want));
    std::memcpy(&have, &second.values[i], sizeof(have));
    ASSERT_EQ(want, have) << i;
  }

  // A different program text is its own cache entry.
  EvaluateScenarioProgramRequest other = req;
  other.program = "LET d = GRID(1, 2); SET PREFIX(b) = d;";
  EXPECT_FALSE(service_->EvaluateScenarioProgram(other).program_cache_hit);

  // Reloading bumps the generation: the old compiled program is stale.
  LoadRequest reload;
  reload.artifact = "ex";
  reload.polys_bytes = polys_bytes_;
  reload.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(service_->Load(reload).ok());
  Response after_reload = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(after_reload.ok());
  EXPECT_FALSE(after_reload.program_cache_hit);
}

TEST_F(ScenarioServiceTest, CompressedViewProgramsEvaluateAndCache) {
  // Programs against a compressed view select over meta-variables; the
  // whole pipeline (compress -> compile -> expand -> batch) must work and
  // the program key must include the view.
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = polys_.SizeM() - 1;
  req.program = "LET d = GRID(0.5, 2); SET * = d;";
  Response resp = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.scenario_count, 2u);
  EXPECT_EQ(resp.values.size(), 2 * polys_.count());
  EXPECT_FALSE(resp.program_cache_hit);

  // Same text against the RAW view is a distinct program cache entry.
  EvaluateScenarioProgramRequest raw = req;
  raw.compressed = false;
  Response raw_resp = service_->EvaluateScenarioProgram(raw);
  ASSERT_TRUE(raw_resp.ok()) << raw_resp.message;
  EXPECT_FALSE(raw_resp.program_cache_hit);

  Response again = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.program_cache_hit);
}

TEST_F(ScenarioServiceTest, ScenarioErrorsAreStructured) {
  EvaluateScenarioProgramRequest req;
  req.program = "SET * = 1;";
  req.artifact = "nope";
  Response missing = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(missing.code, StatusCode::kNotFound);

  req.artifact = "ex";
  req.program = "LET d = SWEEP(1 .. 2 STEP);";  // parse error
  Response parse_err = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(parse_err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(parse_err.message.find("at offset"), std::string::npos)
      << parse_err.message;

  req.program = "SET ghost = 1;";  // semantic error
  Response sema_err = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(sema_err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(sema_err.message.find("'ghost'"), std::string::npos);

  req.program = "LET d = GRID(1); SET * = d < 1;";  // type error
  Response type_err = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(type_err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(type_err.message.find("type error"), std::string::npos);

  req.program = "SET * = 1;";
  req.shape = ScenarioShape::kTopK;
  req.top_k = 0;
  Response zero_k = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(zero_k.code, StatusCode::kInvalidArgument);
  EXPECT_NE(zero_k.message.find("top_k"), std::string::npos);

  req.shape = ScenarioShape::kValues;
  req.eval_backend = "turbo";
  Response bad_backend = service_->EvaluateScenarioProgram(req);
  EXPECT_EQ(bad_backend.code, StatusCode::kInvalidArgument);
  EXPECT_NE(bad_backend.message.find("unknown evaluation backend"),
            std::string::npos);

  // Failed compiles must not poison the cache.
  req.eval_backend.clear();
  Response fine = service_->EvaluateScenarioProgram(req);
  ASSERT_TRUE(fine.ok()) << fine.message;
}

TEST_F(ScenarioServiceTest, OversizedFamilyIsRejectedUpFront) {
  ServiceOptions small;
  small.max_scenarios_per_request = 10;
  ProvenanceService capped(small);
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  ASSERT_TRUE(capped.Load(load).ok());

  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET a = GRID(1, 2, 3, 4); LET b = GRID(1, 2, 3); SET * = a;";
  Response resp = capped.EvaluateScenarioProgram(req);
  EXPECT_EQ(resp.code, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("12 scenarios"), std::string::npos)
      << resp.message;
  EXPECT_NE(resp.message.find("limit of 10"), std::string::npos)
      << resp.message;

  // At the limit it still runs.
  req.program = "LET a = GRID(1, 2); LET b = GRID(1, 2, 3, 4, 5); SET * = a;";
  EXPECT_TRUE(capped.EvaluateScenarioProgram(req).ok());
}

TEST_F(ScenarioServiceTest, ScenarioFrameRoundTripsThroughHandleFrame) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "ex";
  req.program = "LET d = GRID(1, 2); SET PREFIX(m) = d;";
  bool shutdown = false;
  std::string reply = service_->HandleFrame(
      EncodeEvaluateScenarioProgramRequest(req), &shutdown);
  auto resp = DecodeResponse(reply);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->ok()) << resp->message;
  EXPECT_EQ(resp->request_kind, MessageKind::kEvaluateScenarioProgramRequest);
  EXPECT_EQ(resp->scenario_count, 2u);
  EXPECT_EQ(resp->values.size(), 2 * polys_.count());
  EXPECT_FALSE(shutdown);

  // Truncated scenario frames decode-fail into error responses.
  std::string full = EncodeEvaluateScenarioProgramRequest(req);
  for (size_t len : {size_t{0}, size_t{7}, full.size() - 1}) {
    auto err = DecodeResponse(
        service_->HandleFrame(full.substr(0, len), &shutdown));
    ASSERT_TRUE(err.ok());
    EXPECT_FALSE(err->ok());
  }
}

TEST_F(ServiceTest, HandleFrameDispatchesAndSurvivesGarbage) {
  InfoRequest info;
  info.artifact = "ex";
  bool shutdown = false;
  std::string reply =
      service_->HandleFrame(EncodeInfoRequest(info), &shutdown);
  auto resp = DecodeResponse(reply);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(resp->poly_count, polys_.count());
  EXPECT_FALSE(shutdown);

  // Garbage and truncated payloads produce decodable error responses.
  for (std::string bad :
       {std::string("XXXX"), std::string(),
        EncodeInfoRequest(info).substr(0, 7)}) {
    std::string err = service_->HandleFrame(bad, &shutdown);
    auto decoded = DecodeResponse(err);
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->ok());
  }
  EXPECT_FALSE(shutdown);

  std::string bye =
      service_->HandleFrame(EncodeShutdownRequest(ShutdownRequest{}),
                            &shutdown);
  EXPECT_TRUE(shutdown);
  auto bye_resp = DecodeResponse(bye);
  ASSERT_TRUE(bye_resp.ok());
  EXPECT_TRUE(bye_resp->ok());
}

// ------------------------------------------- incremental append path --

/// A workload designed so the opt cut abstracts exactly one mid node and
/// keeps six leaves chosen as themselves: appending over a kept leaf is
/// guaranteed patchable, and the compress_hook (which fires only on FULL
/// runs) proves the DP was skipped.
class IncrementalServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      leaves_.push_back(vars_.Intern("il" + std::to_string(i)));
    }
    forest_.AddTree(BuildUniformTree(vars_, leaves_, {4, 2}, "INC_"));
    for (int p = 0; p < 6; ++p) {
      std::vector<Monomial> terms;
      for (int m = 0; m < 8; ++m) {
        terms.emplace_back(1.0 + p + 0.25 * m,
                           std::vector<Factor>{{leaves_[m], 1}});
      }
      polys_.Add(Polynomial::FromMonomials(std::move(terms)));
    }
    bound_ = polys_.SizeM() - 4;
    polys_bytes_ = SerializePolynomialSet(polys_, vars_);
    forest_bytes_ = SerializeForest(forest_, vars_);

    auto base = OptimalSingleTree(polys_, forest_, 0, bound_);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    const AbstractionTree& tree = forest_.tree(0);
    for (const NodeRef& ref : base->vvs.nodes()) {
      if (tree.node(ref.node).is_leaf()) {
        kept_leaf_ = tree.node(ref.node).label;
        break;
      }
    }
    ASSERT_NE(kept_leaf_, kInvalidVariable);

    ServiceOptions sopts;
    sopts.compress_hook = [this](const ArtifactStore::ResultKey&) {
      full_runs_.fetch_add(1);
    };
    service_ = std::make_unique<ProvenanceService>(sopts);
    LoadRequest load;
    load.artifact = "inc";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"t", forest_bytes_}};
    Response resp = service_->Load(load);
    ASSERT_TRUE(resp.ok()) << resp.message;
  }

  /// One appended polynomial over the kept leaf, serialized for the wire.
  std::string AppendBytes() {
    PolynomialSet extra;
    extra.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept_leaf_, 1}})}));
    return SerializePolynomialSet(extra, vars_);
  }

  VariableTable vars_;
  std::vector<VariableId> leaves_;
  AbstractionForest forest_;
  PolynomialSet polys_;
  size_t bound_ = 0;
  std::string polys_bytes_;
  std::string forest_bytes_;
  VariableId kept_leaf_ = kInvalidVariable;
  std::atomic<int> full_runs_{0};
  std::unique_ptr<ProvenanceService> service_;
};

TEST_F(IncrementalServiceTest, AppendThenCompressSkipsTheFullDp) {
  CompressRequest creq;
  creq.artifact = "inc";
  creq.forest = "t";
  creq.algo = "opt";
  creq.bound = bound_;
  Response first = service_->Compress(creq);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.delta_patched);
  EXPECT_EQ(full_runs_.load(), 1);

  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  Response appended = service_->Append(areq);
  ASSERT_TRUE(appended.ok()) << appended.message;
  EXPECT_EQ(appended.poly_count, polys_.count() + 1);
  EXPECT_EQ(appended.monomial_count, polys_.SizeM() + 1);

  // Fresh generation: not a cache hit, but answered by patching the
  // cached predecessor — the hook (full runs only) must NOT fire.
  Response second = service_->Compress(creq);
  ASSERT_TRUE(second.ok()) << second.message;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.delta_patched);
  EXPECT_EQ(full_runs_.load(), 1) << "patched compress ran the full DP";
  EXPECT_EQ(second.stats.delta_patched, 1u);
  EXPECT_EQ(second.stats.delta_fallback_full, 0u);

  // Field equality against a local cold DP over the appended set.
  PolynomialSet grown = polys_;
  grown.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept_leaf_, 1}})}));
  auto cold = OptimalSingleTree(grown, forest_, 0, bound_);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(second.monomial_loss, cold->loss.monomial_loss);
  EXPECT_EQ(second.variable_loss, cold->loss.variable_loss);
  EXPECT_EQ(second.adequate, cold->adequate);
  EXPECT_EQ(second.compressed_monomials,
            cold->Apply(forest_, grown).SizeM());

  // The patched result is cached like any other fill.
  Response third = service_->Compress(creq);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_FALSE(third.delta_patched);
  EXPECT_EQ(full_runs_.load(), 1);
}

TEST_F(IncrementalServiceTest, GreedyAppendFallsBackToTheFullRun) {
  CompressRequest creq;
  creq.artifact = "inc";
  creq.forest = "t";
  creq.algo = "greedy";
  creq.bound = bound_;
  ASSERT_TRUE(service_->Compress(creq).ok());
  EXPECT_EQ(full_runs_.load(), 1);

  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  ASSERT_TRUE(service_->Append(areq).ok());

  // Greedy results retain no DP state, so the nearest cached ancestor
  // settles it: fall back to a full run, counted as such.
  Response resp = service_->Compress(creq);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_FALSE(resp.delta_patched);
  EXPECT_EQ(full_runs_.load(), 2);
  EXPECT_EQ(resp.stats.delta_fallback_full, 1u);
  EXPECT_EQ(resp.stats.delta_patched, 0u);
}

TEST_F(IncrementalServiceTest, AppendErrorsAreStructured) {
  AppendRequest missing;
  missing.artifact = "nope";
  missing.polys_bytes = AppendBytes();
  EXPECT_EQ(service_->Append(missing).code, StatusCode::kNotFound);

  AppendRequest empty;
  empty.artifact = "inc";
  EXPECT_EQ(service_->Append(empty).code, StatusCode::kInvalidArgument);

  AppendRequest garbage;
  garbage.artifact = "inc";
  garbage.polys_bytes = "not a polynomial buffer";
  EXPECT_FALSE(service_->Append(garbage).ok());
}

TEST_F(IncrementalServiceTest, AppendRoundTripsThroughHandleFrame) {
  AppendRequest areq;
  areq.artifact = "inc";
  areq.polys_bytes = AppendBytes();
  bool shutdown = false;
  std::string reply =
      service_->HandleFrame(EncodeAppendRequest(areq), &shutdown);
  auto resp = DecodeResponse(reply);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok()) << resp->message;
  EXPECT_EQ(resp->poly_count, polys_.count() + 1);
  EXPECT_FALSE(shutdown);
}

}  // namespace
}  // namespace provabs
