/// The concurrency battery for the serving layer's single-flight
/// compression path (run plain and under ThreadSanitizer in CI):
///
///  - InflightRegistry units: leader/waiter roles, failure non-stickiness.
///  - A 16-way burst of identical compress requests runs the DP exactly
///    once (counted via the injectable compress hook; the leader is held
///    until all 15 waiters have actually joined, so dedup is deterministic,
///    not timing-dependent).
///  - Distinct-key bursts demonstrably overlap: every DP is held at one
///    barrier that only opens when all of them are in flight at once.
///  - A failed DP is shared with concurrent waiters but never poisons the
///    cache: later requests recompute, and a feasible request succeeds.
///  - Randomized differential suite: for seeded random forests/bounds, the
///    responses of a concurrently hammered service (mixed same-key and
///    distinct-key) are byte-identical to a serial service's output — down
///    to the serialized compressed views.
///  - The first compressed Evaluates of a freshly compressed key, sent by 8
///    threads at once, build its view once: one compiled snapshot, one
///    byte charge, answers bitwise equal to a cold Apply.
///  - Eight fresh bounds on a freshly loaded artifact build its opt loss
///    table once (counted via the loss-table hook) and share it with the
///    trade-off curve and the delta patch; a reload builds a new one.
///  - A 16-thread mixed load/compress/evaluate/invalidate stress with
///    generation bumps mid-flight (the EvaluateBatcher + ThreadPool
///    invalidation-race soak).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "common/random.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "server/artifact_store.h"
#include "server/inflight_registry.h"
#include "server/provenance_service.h"
#include "server/wire_protocol.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

using Clock = std::chrono::steady_clock;
constexpr std::chrono::seconds kTimeout(30);

/// Blocks until `gauge()` reports `target`, yielding the (single, on CI)
/// CPU between polls; returns false on timeout instead of hanging the
/// suite.
template <typename Fn>
bool AwaitGauge(const Fn& gauge, uint64_t target) {
  auto deadline = Clock::now() + kTimeout;
  while (gauge() != target) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// All-or-timeout rendezvous: ArriveAndWait returns true only if all
/// `expected` participants were inside it simultaneously.
class Barrier {
 public:
  explicit Barrier(size_t expected) : expected_(expected) {}

  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ >= expected_) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_until(lock, Clock::now() + kTimeout,
                          [&] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
  const size_t expected_;
};

// -------------------------------------------------- InflightRegistry ----

TEST(InflightRegistryTest, SoleCallerComputesAndIsNotDeduped) {
  InflightRegistry registry;
  auto value = std::make_shared<const int>(7);
  bool deduped = true;
  InflightRegistry::Outcome out = registry.DoOrWait(
      "k", [&] { return InflightRegistry::Outcome{Status::OK(), value}; },
      &deduped);
  EXPECT_FALSE(deduped);
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.value.get(), value.get());
  EXPECT_EQ(registry.stats().computations, 1u);
  EXPECT_EQ(registry.stats().dedup_hits, 0u);
  EXPECT_EQ(registry.KeysNow(), 0u);  // slot erased after publication
}

TEST(InflightRegistryTest, FailureIsNotSticky) {
  InflightRegistry registry;
  int runs = 0;
  auto fail = [&] {
    ++runs;
    return InflightRegistry::Outcome{Status::Internal("boom"), nullptr};
  };
  EXPECT_EQ(registry.DoOrWait("k", fail).status.code(),
            StatusCode::kInternal);
  // The failed slot is gone; a second call computes again.
  EXPECT_EQ(registry.DoOrWait("k", fail).status.code(),
            StatusCode::kInternal);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(registry.stats().computations, 2u);
  EXPECT_EQ(registry.stats().dedup_hits, 0u);
}

TEST(InflightRegistryTest, ConcurrentCallersShareOneComputation) {
  InflightRegistry registry;
  constexpr int kCallers = 8;
  std::atomic<int> runs{0};
  auto value = std::make_shared<const int>(42);
  std::vector<std::thread> threads;
  std::vector<InflightRegistry::Outcome> outcomes(kCallers);
  std::vector<char> dedup(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      bool deduped = false;
      outcomes[c] = registry.DoOrWait(
          "k",
          [&] {
            runs.fetch_add(1);
            // Hold the slot until every other caller has joined it, so
            // the dedup count below is exact rather than scheduling luck.
            EXPECT_TRUE(AwaitGauge([&] { return registry.WaitersNow(); },
                                   kCallers - 1));
            return InflightRegistry::Outcome{Status::OK(), value};
          },
          &deduped);
      dedup[c] = deduped ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  int dedup_count = 0;
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(outcomes[c].status.ok());
    EXPECT_EQ(outcomes[c].value.get(), value.get());
    dedup_count += dedup[c];
  }
  EXPECT_EQ(dedup_count, kCallers - 1);
  InflightRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.dedup_hits, static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.peak_waiters, static_cast<uint64_t>(kCallers - 1));
  EXPECT_EQ(registry.WaitersNow(), 0u);
  EXPECT_EQ(registry.KeysNow(), 0u);
}

// ------------------------------------------- service-level single-flight --

/// Running-example service fixture with an injectable DP counter.
class SingleFlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunningExample ex = MakeRunningExample(vars_);
    polys_ = RunRunningExampleQuery(ex);
    polys_bytes_ = SerializePolynomialSet(polys_, vars_);
    AbstractionForest plans;
    plans.AddTree(MakeFigure2PlansTree(vars_));
    plans_bytes_ = SerializeForest(plans, vars_);
  }

  /// Builds a service whose compress hook runs `hook` after bumping the
  /// DP-execution counter.
  std::unique_ptr<ProvenanceService> MakeService(
      std::function<void(const ArtifactStore::ResultKey&)> hook = nullptr) {
    ServiceOptions options;
    options.eval_threads = 4;
    options.compress_hook = [this, hook](const ArtifactStore::ResultKey& k) {
      dp_runs_.fetch_add(1);
      if (hook) hook(k);
    };
    auto service = std::make_unique<ProvenanceService>(options);
    LoadRequest load;
    load.artifact = "ex";
    load.polys_bytes = polys_bytes_;
    load.forests = {{"plans", plans_bytes_}};
    Response resp = service->Load(load);
    EXPECT_TRUE(resp.ok()) << resp.message;
    return service;
  }

  CompressRequest Request(uint64_t bound, const std::string& algo = "opt") {
    CompressRequest req;
    req.artifact = "ex";
    req.forest = "plans";
    req.algo = algo;
    req.bound = bound;
    return req;
  }

  VariableTable vars_;
  PolynomialSet polys_;
  std::string polys_bytes_;
  std::string plans_bytes_;
  std::atomic<uint64_t> dp_runs_{0};
  /// Set by tests whose hook needs the service's own registry gauges (the
  /// hook closure is built before the service exists).
  ProvenanceService* service_ = nullptr;
};

TEST_F(SingleFlightTest, SameKeyBurstRunsDpExactlyOnce) {
  constexpr int kBurst = 16;
  // The leader parks inside the DP hook until all 15 other requests are
  // blocked on its shared_future — every non-leader is then provably a
  // dedup waiter, not a lucky cache hit.
  auto service = MakeService([&](const ArtifactStore::ResultKey&) {
    EXPECT_TRUE(AwaitGauge(
        [&] { return service_->store().inflight().WaitersNow(); },
        kBurst - 1));
  });
  service_ = service.get();

  const uint64_t bound = polys_.SizeM() - 1;
  std::vector<Response> responses(kBurst);
  std::vector<std::thread> threads;
  for (int c = 0; c < kBurst; ++c) {
    threads.emplace_back(
        [&, c] { responses[c] = service->Compress(Request(bound)); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(dp_runs_.load(), 1u);
  int leaders = 0;
  int dedup_hits = 0;
  for (const Response& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.message;
    if (resp.dedup_hit) {
      ++dedup_hits;
    } else {
      EXPECT_FALSE(resp.cache_hit);
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(dedup_hits, kBurst - 1);

  // Every response carries the result of the single DP run, and that
  // result is identical to a serial service's answer.
  ProvenanceService serial;
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = polys_bytes_;
  load.forests = {{"plans", plans_bytes_}};
  ASSERT_TRUE(serial.Load(load).ok());
  Response expected = serial.Compress(Request(bound));
  ASSERT_TRUE(expected.ok());
  for (const Response& resp : responses) {
    EXPECT_EQ(resp.monomial_loss, expected.monomial_loss);
    EXPECT_EQ(resp.variable_loss, expected.variable_loss);
    EXPECT_EQ(resp.adequate, expected.adequate);
    EXPECT_EQ(resp.vvs, expected.vvs);
    EXPECT_EQ(resp.compressed_monomials, expected.compressed_monomials);
  }

  // The cumulative counters surfaced on the wire agree: one more identical
  // request is now a plain cache hit on a fully drained registry.
  Response after = service->Compress(Request(bound));
  EXPECT_TRUE(after.cache_hit);
  EXPECT_FALSE(after.dedup_hit);
  EXPECT_EQ(after.stats.dedup_hits, static_cast<uint64_t>(kBurst - 1));
  EXPECT_EQ(after.stats.inflight_waiters, 0u);
  EXPECT_EQ(dp_runs_.load(), 1u);
}

TEST_F(SingleFlightTest, DistinctKeyBurstsOverlap) {
  // Eight requests with eight distinct bounds (eight distinct cache keys).
  // Each DP blocks at a shared barrier that only opens once ALL eight are
  // inside their DP simultaneously — if compression were serialized by a
  // service-wide lock, at most one DP could be in flight and the barrier
  // would time out.
  constexpr int kDistinct = 8;
  Barrier barrier(kDistinct);
  std::atomic<int> overlapped{0};
  auto service = MakeService([&](const ArtifactStore::ResultKey&) {
    if (barrier.ArriveAndWait()) overlapped.fetch_add(1);
  });

  const uint64_t base = polys_.SizeM() - 1;
  std::vector<Response> responses(kDistinct);
  std::vector<std::thread> threads;
  for (int c = 0; c < kDistinct; ++c) {
    threads.emplace_back([&, c] {
      responses[c] = service->Compress(Request(base - c));
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(overlapped.load(), kDistinct);
  EXPECT_EQ(dp_runs_.load(), static_cast<uint64_t>(kDistinct));
  for (const Response& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_FALSE(resp.cache_hit);
    EXPECT_FALSE(resp.dedup_hit);
  }
}

TEST_F(SingleFlightTest, FailedDpSharedWithWaitersButNeverCached) {
  constexpr int kBurst = 8;
  std::atomic<bool> burst_active{true};
  auto service = MakeService([&](const ArtifactStore::ResultKey&) {
    // Only the concurrent burst holds its leader; the sequential requests
    // after the join run straight through.
    if (!burst_active.load()) return;
    EXPECT_TRUE(AwaitGauge(
        [&] { return service_->store().inflight().WaitersNow(); },
        kBurst - 1));
  });
  service_ = service.get();

  // Bound 1 is infeasible for the running example (see server_test.cc).
  std::vector<Response> responses(kBurst);
  std::vector<std::thread> threads;
  for (int c = 0; c < kBurst; ++c) {
    threads.emplace_back(
        [&, c] { responses[c] = service->Compress(Request(1)); });
  }
  for (auto& t : threads) t.join();
  burst_active.store(false);

  // One DP ran; the failure was shared with all concurrent waiters.
  EXPECT_EQ(dp_runs_.load(), 1u);
  for (const Response& resp : responses) {
    EXPECT_EQ(resp.code, StatusCode::kInfeasible);
  }

  // Non-poisoning, part 1: the failure was never published to the cache.
  EXPECT_EQ(service->Compress(Request(1)).code, StatusCode::kInfeasible);
  EXPECT_EQ(dp_runs_.load(), 2u);  // recomputed, not replayed from a slot
  Response stats_probe = service->Info(InfoRequest{});
  EXPECT_EQ(stats_probe.stats.result_count, 0u);

  // Non-poisoning, part 2: a feasible request on the same artifact works.
  Response good = service->Compress(Request(polys_.SizeM() - 1));
  ASSERT_TRUE(good.ok()) << good.message;
  EXPECT_FALSE(good.cache_hit);
}

// ------------------------------------------- randomized differential ----

/// Small seeded telephony instance (not the 2-polynomial running example:
/// randomized forests need a real leaf population).
struct RandomWorkload {
  std::shared_ptr<VariableTable> vars;
  PolynomialSet polys;
  std::string polys_bytes;
  std::vector<std::pair<std::string, std::string>> forests;
  std::vector<VariableId> month_vars;
};

RandomWorkload MakeRandomWorkload(uint64_t seed) {
  RandomWorkload w;
  w.vars = std::make_shared<VariableTable>();
  TelephonyConfig config;
  config.num_customers = 120;
  config.num_plans = 32;
  config.num_months = 6;
  config.num_zip_codes = 12;
  config.seed = seed;
  Rng rng(seed);
  Database db = GenerateTelephony(config, rng);
  TelephonyVars tv = MakeTelephonyVars(*w.vars, config);
  w.polys = RunTelephonyQuery(db, tv);
  w.polys_bytes = SerializePolynomialSet(w.polys, *w.vars);
  w.month_vars = tv.month_vars;

  // Seeded random forests: uniform trees over the plan leaves with
  // random fan-out shapes.
  const std::vector<std::vector<uint32_t>> shapes = {
      {2}, {4}, {8}, {2, 2}, {4, 4}, {2, 8}};
  for (int f = 0; f < 3; ++f) {
    AbstractionForest forest;
    const auto& shape = shapes[rng.Uniform(shapes.size())];
    forest.AddTree(BuildUniformTree(*w.vars, tv.plan_vars, shape,
                                    "R" + std::to_string(f) + "_"));
    w.forests.emplace_back("f" + std::to_string(f),
                           SerializeForest(forest, *w.vars));
  }
  return w;
}

TEST(ServerConcurrencyDifferentialTest, ConcurrentMatchesSerialByteForByte) {
  const RandomWorkload w = MakeRandomWorkload(/*seed=*/20260730);

  // A seeded pool of request keys, mixing forests, algorithms, and bounds
  // (some repeated → same-key collisions, some unique → distinct-key
  // parallelism; a few infeasibly small → shared failures).
  Rng rng(7);
  struct Key {
    std::string forest;
    std::string algo;
    uint64_t bound;
  };
  std::vector<Key> keys;
  const uint64_t size_m = w.polys.SizeM();
  for (int i = 0; i < 10; ++i) {
    keys.push_back(Key{"f" + std::to_string(rng.Uniform(3)),
                       rng.Bernoulli(0.5) ? "opt" : "greedy",
                       rng.Bernoulli(0.2)
                           ? rng.Uniform(3)  // likely infeasible
                           : size_m / 2 + rng.Uniform(size_m / 2)});
  }

  auto load = [&](ProvenanceService& service) {
    LoadRequest req;
    req.artifact = "rnd";
    req.polys_bytes = w.polys_bytes;
    req.forests = w.forests;
    Response resp = service.Load(req);
    ASSERT_TRUE(resp.ok()) << resp.message;
  };
  auto request = [&](const Key& k) {
    CompressRequest req;
    req.artifact = "rnd";
    req.forest = k.forest;
    req.algo = k.algo;
    req.bound = k.bound;
    return req;
  };

  // Serial reference: one thread, each key once.
  ProvenanceService serial;
  load(serial);
  std::vector<Response> expected;
  for (const Key& k : keys) expected.push_back(serial.Compress(request(k)));

  // Concurrent run: 8 threads × 3 rounds over the same key pool, shifted
  // per thread so every moment mixes same-key and distinct-key traffic.
  ProvenanceService concurrent;
  load(concurrent);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<Response>> responses(
      kThreads, std::vector<Response>(kRounds * keys.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < keys.size(); ++i) {
          const Key& k = keys[(i + t) % keys.size()];
          responses[t][r * keys.size() + i] =
              concurrent.Compress(request(k));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every concurrent response matches the serial response for its key.
  std::map<std::string, const Response*> by_key;
  for (size_t i = 0; i < keys.size(); ++i) {
    by_key[keys[i].forest + "|" + keys[i].algo + "|" +
           std::to_string(keys[i].bound)] = &expected[i];
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < keys.size(); ++i) {
        const Key& k = keys[(i + t) % keys.size()];
        const Response& got = responses[t][r * keys.size() + i];
        const Response& want =
            *by_key[k.forest + "|" + k.algo + "|" + std::to_string(k.bound)];
        EXPECT_EQ(got.code, want.code);
        EXPECT_EQ(got.monomial_loss, want.monomial_loss);
        EXPECT_EQ(got.variable_loss, want.variable_loss);
        EXPECT_EQ(got.adequate, want.adequate);
        EXPECT_EQ(got.vvs, want.vvs);
        EXPECT_EQ(got.compressed_monomials, want.compressed_monomials);
      }
    }
  }

  // Byte-identical: for every successful key, the compressed view of the
  // result cached by the concurrent service serializes to exactly the
  // bytes the serial service produced.
  auto artifact_of = [](ProvenanceService& s) {
    return s.store().Get("rnd");
  };
  auto serial_artifact = artifact_of(serial);
  auto concurrent_artifact = artifact_of(concurrent);
  ASSERT_NE(serial_artifact, nullptr);
  ASSERT_NE(concurrent_artifact, nullptr);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!expected[i].ok()) continue;
    ArtifactStore::ResultKey rk{"rnd", serial_artifact->generation,
                                keys[i].forest, keys[i].bound,
                                keys[i].algo};
    auto serial_result = serial.store().LookupResult(rk);
    rk.generation = concurrent_artifact->generation;
    auto concurrent_result = concurrent.store().LookupResult(rk);
    ASSERT_NE(serial_result, nullptr) << "key " << i;
    ASSERT_NE(concurrent_result, nullptr) << "key " << i;
    auto concurrent_view = concurrent.store().CompressedView(
        rk, concurrent_result, *concurrent_artifact);
    rk.generation = serial_artifact->generation;
    auto serial_view =
        serial.store().CompressedView(rk, serial_result, *serial_artifact);
    EXPECT_EQ(SerializePolynomialSet(*concurrent_view,
                                     *concurrent_artifact->vars),
              SerializePolynomialSet(*serial_view, *serial_artifact->vars))
        << "key " << i;
  }

  // Concurrent evaluations under seeded valuations are exact too (the
  // batcher splits work but never changes per-polynomial arithmetic).
  std::vector<Response> eval_responses(kThreads);
  std::vector<std::thread> eval_threads;
  for (int t = 0; t < kThreads; ++t) {
    eval_threads.emplace_back([&, t] {
      EvaluateRequest req;
      req.artifact = "rnd";
      req.assignments = {{"m1", 0.25 * t}, {"m3", 1.5}};
      eval_responses[t] = concurrent.Evaluate(req);
    });
  }
  for (auto& t : eval_threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(eval_responses[t].ok()) << eval_responses[t].message;
    Valuation val;
    val.Set(w.vars->Find("m1"), 0.25 * t);
    val.Set(w.vars->Find("m3"), 1.5);
    std::vector<double> want = val.EvaluateAll(w.polys);
    ASSERT_EQ(eval_responses[t].values.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(eval_responses[t].values[i], want[i]) << "thread "
                                                             << t;
    }
  }
}

// ------------------------------------------- first compressed evaluate --

/// Delegates to the "compiled" kernel and records the fingerprint of every
/// snapshot it runs on. Unavailable to routing, so only requests that name
/// it reach it.
class FingerprintProbeBackend : public EvaluationBackend {
 public:
  FingerprintProbeBackend() { info_.name = "fingerprint_probe"; }
  const EvaluationBackendInfo& info() const override { return info_; }
  bool Available() const override { return false; }

  /// The fingerprints recorded since the last call.
  std::set<uint64_t> TakeSeen() const {
    std::set<uint64_t> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.swap(seen_);
    return out;
  }

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen_.insert(compiled.fingerprint());
    }
    Status status =
        EvaluationBackendRegistry::Default().Find("compiled")->EvaluateBatch(
            compiled, poly_begin, poly_end, scenarios, outs, scenario_count);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

 private:
  EvaluationBackendInfo info_;
  mutable std::mutex mutex_;
  mutable std::set<uint64_t> seen_;
};

/// Compress builds no view; the first compressed Evaluates of a key, sent
/// by 8 threads at once, build it once: every answer is bitwise equal to
/// Valuation::Evaluate over a cold Apply, every thread ran on the same
/// compiled snapshot, and the view's bytes were charged once.
TEST(ServerConcurrencyDifferentialTest, FirstCompressedEvaluatesShareOneView) {
  // Registered once per process, so the test survives --gtest_repeat.
  static const FingerprintProbeBackend* const probe = [] {
    auto owned = std::make_unique<FingerprintProbeBackend>();
    const FingerprintProbeBackend* raw = owned.get();
    Status status =
        EvaluationBackendRegistry::Default().Register(std::move(owned));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return raw;
  }();
  probe->TakeSeen();

  const RandomWorkload w = MakeRandomWorkload(/*seed=*/20261017);
  ServiceOptions options;
  options.eval_threads = 4;
  ProvenanceService service(options);
  LoadRequest load;
  load.artifact = "rnd";
  load.polys_bytes = w.polys_bytes;
  load.forests = w.forests;
  ASSERT_TRUE(service.Load(load).ok());
  CompressRequest compress;
  compress.artifact = "rnd";
  compress.forest = "f0";
  compress.algo = "opt";
  compress.bound = w.polys.SizeM() * 3 / 4;
  Response compressed = service.Compress(compress);
  ASSERT_TRUE(compressed.ok()) << compressed.message;
  const uint64_t bytes_before = service.store().stats().cached_bytes;

  // The oracle: a cold run and Apply against the server's own artifact, so
  // variable ids and monomial order match.
  std::shared_ptr<const Artifact> artifact = service.store().Get("rnd");
  ASSERT_NE(artifact, nullptr);
  const AbstractionForest& forest = *artifact->FindForest("f0");
  CompressOptions copts;
  copts.bound = compress.bound;
  auto cold_run = CompressorRegistry::Default().Find("opt")->Compress(
      artifact->polys, forest, copts);
  ASSERT_TRUE(cold_run.ok()) << cold_run.status().ToString();
  const PolynomialSet cold = cold_run->Apply(forest, artifact->polys);
  EXPECT_EQ(compressed.compressed_monomials, cold.SizeM());

  constexpr int kThreads = 8;
  std::vector<Response> responses(kThreads);
  Barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EvaluateRequest req;
      req.artifact = "rnd";
      req.compressed = true;
      req.forest = "f0";
      req.algo = "opt";
      req.bound = compress.bound;
      req.eval_backend = "fingerprint_probe";
      req.assignments = {{"m1", 0.25 * t}, {"m3", 1.5}};
      EXPECT_TRUE(start.ArriveAndWait());
      responses[t] = service.Evaluate(req);
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(responses[t].ok()) << responses[t].message;
    EXPECT_TRUE(responses[t].cache_hit);
    Valuation val;
    val.Set(artifact->vars->Find("m1"), 0.25 * t);
    val.Set(artifact->vars->Find("m3"), 1.5);
    ASSERT_EQ(responses[t].values.size(), cold.count());
    for (size_t i = 0; i < cold.count(); ++i) {
      const double want = val.Evaluate(cold.polynomials()[i]);
      EXPECT_EQ(std::memcmp(&responses[t].values[i], &want, sizeof(want)),
                0)
          << "thread " << t << " polynomial " << i;
    }
  }
  const std::set<uint64_t> seen = probe->TakeSeen();
  ASSERT_EQ(seen.size(), 1u);
  ArtifactStore::ResultKey key{"rnd", artifact->generation, "f0",
                               compress.bound, "opt"};
  std::shared_ptr<const PolynomialSet> view = service.store().CompressedView(
      key, service.store().LookupResult(key), *artifact);
  EXPECT_EQ(*seen.begin(), view->Compiled()->fingerprint());
  EXPECT_EQ(service.store().stats().cached_bytes,
            bytes_before + ApproxPolynomialSetBytes(cold));
}

/// Eight fresh bounds sent at once on a freshly loaded artifact build its
/// loss table once and share it: every answer equals a cold standalone
/// OptimalSingleTree, a Tradeoff builds nothing, an Append and the patched
/// Compress after it build nothing, and a reload builds a new table (here
/// for a Tradeoff, which a later Compress then shares).
TEST(ServerConcurrencyDifferentialTest, FreshBoundsShareOneLossTable) {
  const RandomWorkload w = MakeRandomWorkload(/*seed=*/20261018);
  std::atomic<int> builds{0};
  std::atomic<uint64_t> built_generation{0};
  std::atomic<int> full_runs{0};
  ServiceOptions options;
  options.eval_threads = 4;
  options.loss_table_hook = [&](uint64_t generation) {
    builds.fetch_add(1);
    built_generation.store(generation);
  };
  options.compress_hook = [&](const ArtifactStore::ResultKey&) {
    full_runs.fetch_add(1);
  };
  ProvenanceService service(options);
  LoadRequest load;
  load.artifact = "rnd";
  load.polys_bytes = w.polys_bytes;
  load.forests = w.forests;
  ASSERT_TRUE(service.Load(load).ok());
  std::shared_ptr<const Artifact> artifact = service.store().Get("rnd");
  ASSERT_NE(artifact, nullptr);
  const AbstractionForest& forest = *artifact->FindForest("f0");
  auto request = [](uint64_t bound) {
    CompressRequest req;
    req.artifact = "rnd";
    req.forest = "f0";
    req.algo = "opt";
    req.bound = bound;
    return req;
  };
  // Field equality with a cold standalone run (its own table) on `polys`.
  auto expect_cold = [](const Response& resp, const PolynomialSet& polys,
                        const AbstractionForest& f, const VariableTable& vars,
                        uint64_t bound) {
    auto cold = OptimalSingleTree(polys, f, 0, bound);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(resp.monomial_loss, cold->loss.monomial_loss) << bound;
    EXPECT_EQ(resp.variable_loss, cold->loss.variable_loss) << bound;
    EXPECT_EQ(resp.adequate, cold->adequate) << bound;
    EXPECT_EQ(resp.vvs, cold->Describe(f, vars)) << bound;
    EXPECT_EQ(resp.compressed_monomials, cold->Apply(f, polys).SizeM())
        << bound;
  };

  // Eight distinct feasible bounds, spread over the trade-off range.
  auto curve = OptimalTradeoffCurve(artifact->polys, forest, 0);
  ASSERT_TRUE(curve.ok()) << curve.status().ToString();
  const uint64_t size_m = artifact->polys.SizeM();
  const uint64_t min_size = curve->back().size_m;
  constexpr int kThreads = 8;
  std::vector<uint64_t> bounds;
  for (int t = 0; t < kThreads; ++t) {
    bounds.push_back(min_size + (size_m - min_size) * (t + 1) / kThreads);
  }
  ASSERT_EQ(std::set<uint64_t>(bounds.begin(), bounds.end()).size(),
            static_cast<size_t>(kThreads));

  std::vector<Response> responses(kThreads);
  Barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EXPECT_TRUE(start.ArriveAndWait());
      responses[t] = service.Compress(request(bounds[t]));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_generation.load(), artifact->generation);
  EXPECT_EQ(full_runs.load(), kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(responses[t].ok()) << responses[t].message;
    EXPECT_FALSE(responses[t].cache_hit);
    EXPECT_FALSE(responses[t].dedup_hit);
    expect_cold(responses[t], artifact->polys, forest, *artifact->vars,
                bounds[t]);
  }

  // The trade-off curve reads the same table.
  TradeoffRequest tradeoff;
  tradeoff.artifact = "rnd";
  tradeoff.forest = "f0";
  Response points = service.Tradeoff(tradeoff);
  ASSERT_TRUE(points.ok()) << points.message;
  EXPECT_EQ(builds.load(), 1);
  ASSERT_EQ(points.points.size(), curve->size());
  for (size_t i = 0; i < curve->size(); ++i) {
    EXPECT_EQ(points.points[i].size_m, (*curve)[i].size_m);
    EXPECT_EQ(points.points[i].variable_loss, (*curve)[i].variable_loss);
  }

  // Append over a leaf the cut at the loosest bound keeps: the Compress
  // after it is patched from the cached result, and neither builds.
  const uint64_t patch_bound = bounds.back();
  auto base = OptimalSingleTree(artifact->polys, forest, 0, patch_bound);
  ASSERT_TRUE(base.ok());
  VariableId kept = kInvalidVariable;
  for (const NodeRef& ref : base->vvs.nodes()) {
    const auto& node = forest.tree(ref.tree).node(ref.node);
    if (ref.tree == 0 && node.is_leaf()) kept = node.label;
  }
  ASSERT_NE(kept, kInvalidVariable);
  PolynomialSet extra;
  extra.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept, 1}})}));
  AppendRequest append;
  append.artifact = "rnd";
  append.polys_bytes = SerializePolynomialSet(extra, *artifact->vars);
  ASSERT_TRUE(service.Append(append).ok());
  Response patched = service.Compress(request(patch_bound));
  ASSERT_TRUE(patched.ok()) << patched.message;
  EXPECT_TRUE(patched.delta_patched);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(full_runs.load(), kThreads);
  std::shared_ptr<const Artifact> grown = service.store().Get("rnd");
  ASSERT_NE(grown, nullptr);
  expect_cold(patched, grown->polys, *grown->FindForest("f0"), *grown->vars,
              patch_bound);

  // A reload is a new generation with a new table; here its first user is
  // a Tradeoff, and the Compress after it builds nothing.
  ASSERT_TRUE(service.Load(load).ok());
  ASSERT_TRUE(service.Tradeoff(tradeoff).ok());
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(built_generation.load(), service.store().Get("rnd")->generation);
  Response reloaded = service.Compress(request(bounds[0]));
  ASSERT_TRUE(reloaded.ok()) << reloaded.message;
  EXPECT_EQ(builds.load(), 2);
}

// ------------------------------------------------- mixed-load stress ----

TEST(ServerConcurrencyStressTest, MixedLoadCompressEvaluateInvalidate) {
  // 16 threads hammer one service with a seeded mix of compress (varying
  // bounds/algos), raw and compressed evaluates, info probes, and — from
  // the two "producer" threads — artifact reloads that bump the generation
  // mid-flight and invalidate every cached result under the other threads'
  // feet. The assertions are about invariants, not timing: every response
  // is either OK or one of the statuses the request could legitimately
  // earn, and the service is still coherent afterwards.
  const RandomWorkload w = MakeRandomWorkload(/*seed=*/99);
  ServiceOptions options;
  options.eval_threads = 4;
  options.cache_bytes = size_t{4} << 20;
  ProvenanceService service(options);
  {
    LoadRequest req;
    req.artifact = "soak";
    req.polys_bytes = w.polys_bytes;
    req.forests = w.forests;
    ASSERT_TRUE(service.Load(req).ok());
  }

  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 40;
  const uint64_t size_m = w.polys.SizeM();
  std::atomic<int> violations{0};
  std::mutex violations_mutex;
  std::vector<std::string> violation_messages;
  auto violation = [&](const Response& resp) {
    violations.fetch_add(1);
    std::lock_guard<std::mutex> lock(violations_mutex);
    violation_messages.push_back(resp.ToStatus().ToString());
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        Response resp;
        switch (t < 2 && op % 10 == 9 ? 3 : rng.Uniform(3)) {
          case 0: {  // compress, sometimes infeasible
            CompressRequest req;
            req.artifact = "soak";
            req.forest = "f" + std::to_string(rng.Uniform(3));
            req.algo = rng.Bernoulli(0.5) ? "opt" : "greedy";
            req.bound = rng.Bernoulli(0.15)
                            ? 1 + rng.Uniform(2)  // infeasibly small
                            : size_m / 2 + rng.Uniform(size_m / 2);
            resp = service.Compress(req);
            if (!resp.ok() && resp.code != StatusCode::kInfeasible) {
              violation(resp);
            }
            break;
          }
          case 1: {  // evaluate, raw or over a compressed view
            EvaluateRequest req;
            req.artifact = "soak";
            // Month variables survive every plans-forest compression.
            req.assignments = {{"m1", rng.NextDouble()}};
            if (rng.Bernoulli(0.5)) {
              req.compressed = true;
              req.forest = "f" + std::to_string(rng.Uniform(3));
              req.algo = "opt";
              req.bound = size_m / 2 + rng.Uniform(size_m / 2);
            }
            resp = service.Evaluate(req);
            if (!resp.ok() && resp.code != StatusCode::kInfeasible) {
              violation(resp);
            }
            break;
          }
          case 2: {  // info probe (exercises stats under load)
            InfoRequest req;
            req.artifact = "soak";
            resp = service.Info(req);
            if (!resp.ok()) violation(resp);
            break;
          }
          default: {  // reload: generation bump invalidates results
            LoadRequest req;
            req.artifact = "soak";
            req.polys_bytes = w.polys_bytes;
            req.forests = w.forests;
            resp = service.Load(req);
            if (!resp.ok()) violation(resp);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  for (const std::string& msg : violation_messages) {
    ADD_FAILURE() << "unexpected response: " << msg;
  }

  // The service is still coherent: the registry drained, stats are sane,
  // and a fresh compress against the final generation succeeds.
  EXPECT_EQ(service.store().inflight().WaitersNow(), 0u);
  EXPECT_EQ(service.store().inflight().KeysNow(), 0u);
  Response info = service.Info(InfoRequest{"soak"});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.poly_count, w.polys.count());
  CompressRequest final_req;
  final_req.artifact = "soak";
  final_req.forest = "f0";
  final_req.algo = "opt";
  final_req.bound = size_m - 1;
  Response final_resp = service.Compress(final_req);
  ASSERT_TRUE(final_resp.ok()) << final_resp.message;
}

}  // namespace
}  // namespace provabs
