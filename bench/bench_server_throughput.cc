/// Extension bench: serving-layer throughput. Measures the three effects
/// the provenance server exists for (ROADMAP "serving layer"): (1) the
/// artifact cache turning repeat compressions into O(1) lookups, (2) the
/// evaluate batcher coalescing concurrent analyst valuations onto one
/// thread pool versus each request running EvaluateAll alone, and (3) the
/// single-flight layer collapsing a same-key burst of concurrent compress
/// requests to one DP run while distinct-key bursts proceed in parallel.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "parallel/thread_pool.h"
#include "server/client.h"
#include "server/provenance_service.h"
#include "server/server.h"

namespace provabs::bench {
namespace {

void Run(const std::vector<std::string>& algos) {
  PrintHeader("Serving layer: compression cache and evaluate batching");

  Workload w = MakeTelephonyWorkload();
  AbstractionForest forest;
  forest.AddTree(
      BuildUniformTree(*w.vars, w.tree_leaves, {4, 4}, "SRV_"));
  const size_t bound = FeasibleBound(w.polys, forest, 0.5);

  // A small forest over a leaf subset for the per-algorithm scenario: its
  // cut space is tiny, so even the exhaustive "brute" finishes and every
  // registered algorithm is comparable on one instance.
  std::vector<VariableId> small_leaves(
      w.tree_leaves.begin(),
      w.tree_leaves.begin() +
          std::min<size_t>(w.tree_leaves.size(), 32));
  AbstractionForest small_forest;
  small_forest.AddTree(
      BuildUniformTree(*w.vars, small_leaves, {2, 2}, "SRVS_"));
  const size_t small_bound = FeasibleBound(w.polys, small_forest, 0.5);

  ProvenanceService service;
  LoadRequest load;
  load.artifact = "bench";
  load.polys_bytes = SerializePolynomialSet(w.polys, *w.vars);
  load.forests = {{"default", SerializeForest(forest, *w.vars)},
                  {"small", SerializeForest(small_forest, *w.vars)}};
  Response loaded = service.Load(load);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.message.c_str());
    return;
  }

  // (1) Compression: cold DP vs cache hit. Compress builds no view: the
  // first compressed Evaluate of the key builds and compiles it, so the
  // two cold lines together are the cost of the first what-if on a fresh
  // granularity. Each is the median over reload cycles (a reload bumps the
  // generation, so every cycle is cold).
  CompressRequest compress;
  compress.artifact = "bench";
  compress.bound = bound;
  EvaluateRequest first_eval;
  first_eval.artifact = "bench";
  first_eval.compressed = true;
  first_eval.forest = compress.forest;
  first_eval.algo = compress.algo;
  first_eval.bound = bound;
  constexpr int kColdCycles = 11;
  std::vector<double> cold_times, first_eval_times;
  Response cold, first_eval_resp;
  for (int i = 0; i < kColdCycles; ++i) {
    if (i > 0) service.Load(load);
    Timer t_cold;
    cold = service.Compress(compress);
    cold_times.push_back(t_cold.ElapsedSeconds());
    Timer t_first_eval;
    first_eval_resp = service.Evaluate(first_eval);
    first_eval_times.push_back(t_first_eval.ElapsedSeconds());
  }
  std::sort(cold_times.begin(), cold_times.end());
  std::sort(first_eval_times.begin(), first_eval_times.end());
  const double cold_s = cold_times[kColdCycles / 2];
  const double first_eval_s = first_eval_times[kColdCycles / 2];
  // A fresh bound on the generation the last cycle left loaded: its loss
  // table is built, so this is the DP alone, the cost an analyst probing
  // many bounds pays per bound. The cold line above reloads every cycle,
  // so it includes the table build.
  std::vector<double> warm_times;
  Response warm;
  for (int i = 0; i < kColdCycles; ++i) {
    CompressRequest fresh = compress;
    fresh.bound = bound - 1 - static_cast<uint64_t>(i);
    Timer t_warm;
    warm = service.Compress(fresh);
    warm_times.push_back(t_warm.ElapsedSeconds());
  }
  std::sort(warm_times.begin(), warm_times.end());
  const double warm_s = warm_times[kColdCycles / 2];
  constexpr int kHits = 1000;
  Timer t_hits;
  for (int i = 0; i < kHits; ++i) service.Compress(compress);
  double hit_s = t_hits.ElapsedSeconds() / kHits;
  std::printf("%-28s %14s %16s %10s\n", "compress", "cold[s]",
              "cache-hit[s]", "speedup");
  std::printf("%-28s %14.5f %16.8f %9.0fx%s\n", "opt DP", cold_s, hit_s,
              hit_s > 0 ? cold_s / hit_s : 0.0,
              cold.ok() ? "" : " (error)");
  std::printf("%-28s %14.5f%s\n", "fresh bound, warm table", warm_s,
              warm.ok() ? "" : " (error)");
  std::printf("%-28s %14.5f%s\n", "first compressed evaluate",
              first_eval_s, first_eval_resp.ok() ? "" : " (error)");
  // Machine-keyed stat lines for tools/bench_smoke.sh: on the machine
  // BENCH_baseline.json was recorded on, the cached-compress ratio is
  // thresholded — a cache hit collapsing to less than the recorded floor
  // over the cold DP means the hot serving path regressed.
  std::printf("MACHINEKEY cpu=%s\n", CpuModel().c_str());
  std::printf("SRVSTAT metric=cached_compress ratio=%.1f\n",
              hit_s > 0 ? cold_s / hit_s : 0.0);

  // (2) Evaluation: per-request serial loop vs batched concurrent clients.
  const int kClients = 8;
  const int kRequestsPerClient = 50;
  std::vector<Valuation> valuations;
  for (int c = 0; c < kClients; ++c) {
    Valuation val;
    for (VariableId v : w.tree_leaves) val.Set(v, 0.5 + 0.05 * c);
    valuations.push_back(std::move(val));
  }

  Timer t_serial;
  for (int r = 0; r < kRequestsPerClient; ++r) {
    for (int c = 0; c < kClients; ++c) {
      auto answers = valuations[c].EvaluateAll(w.polys);
      (void)answers;
    }
  }
  double serial_s = t_serial.ElapsedSeconds();

  ThreadPool pool(std::thread::hardware_concurrency());
  EvaluateBatcher batcher(pool);
  auto shared = std::make_shared<PolynomialSet>(w.polys);
  Timer t_batched;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        auto answers = batcher.Evaluate(shared, valuations[c]);
        (void)answers;
      }
    });
  }
  for (auto& t : clients) t.join();
  double batched_s = t_batched.ElapsedSeconds();

  const double total = static_cast<double>(kClients) * kRequestsPerClient;
  std::printf("\n%-28s %14s %16s %10s\n", "evaluate (8 clients x 50)",
              "total[s]", "req/s", "speedup");
  std::printf("%-28s %14.4f %16.0f %10s\n", "serial loop", serial_s,
              total / serial_s, "1x");
  std::printf("%-28s %14.4f %16.0f %9.1fx\n", "batched (pool)", batched_s,
              total / batched_s, serial_s / batched_s);
  EvaluateBatcher::Stats stats = batcher.stats();
  std::printf("batcher: %llu requests in %llu batches (max batch %llu)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch));

  // (3) Concurrent compression. Reloading the artifact bumps its
  // generation, so every burst below starts cold (no cached result).
  // Same key: N threads request one key — single-flight runs the DP once
  // and the burst costs ~1 cold DP, not N. Distinct keys: N threads
  // request N different bounds — N DPs run concurrently (wall-clock gain
  // needs multi-core hardware; on 1 vCPU expect ~serial time, the point
  // being that nothing serializes them besides the CPU).
  const int kBurst = 8;
  auto reload = [&] {
    Response r = service.Load(load);
    if (!r.ok()) std::printf("reload failed: %s\n", r.message.c_str());
  };
  struct BurstResult {
    double seconds = 0;
    uint64_t dedup = 0;
    uint64_t errors = 0;
  };
  auto burst = [&](bool same_key) {
    std::vector<std::thread> workers;
    std::atomic<uint64_t> dedup{0};
    std::atomic<uint64_t> errors{0};
    Timer t;
    for (int c = 0; c < kBurst; ++c) {
      workers.emplace_back([&, c] {
        CompressRequest req;
        req.artifact = "bench";
        req.bound = same_key ? bound : bound - static_cast<uint64_t>(c);
        Response resp = service.Compress(req);
        if (resp.dedup_hit) dedup.fetch_add(1);
        // A failed DP returns in microseconds; counting it as a timing
        // sample would silently understate the burst cost.
        if (!resp.ok()) errors.fetch_add(1);
      });
    }
    for (auto& w2 : workers) w2.join();
    return BurstResult{t.ElapsedSeconds(), dedup.load(), errors.load()};
  };

  reload();
  BurstResult same = burst(/*same_key=*/true);
  reload();
  BurstResult distinct = burst(/*same_key=*/false);

  std::printf("\n%-28s %14s %16s %10s\n", "concurrent compress (8 thr)",
              "total[s]", "vs cold DP", "dedup");
  for (const auto& [label, r] :
       {std::make_pair("same key (single-flight)", same),
        std::make_pair("distinct keys (8 DPs)", distinct)}) {
    std::printf("%-28s %14.5f %15.2fx %9llu%s\n", label, r.seconds,
                cold_s > 0 ? r.seconds / cold_s : 0.0,
                static_cast<unsigned long long>(r.dedup),
                r.errors > 0 ? " (errors!)" : "");
  }

  // (4) Event-loop front end: request latency over a real socket with 64
  // idle connections parked on the server. Under the old
  // thread-per-connection design those cost 64 blocked threads; the epoll
  // loop holds them as bare fds, so a foreground client's Info round trips
  // should be indistinguishable from an empty server (ratio ~1.0).
  {
    Server server(service, ServerOptions{});
    Status started = server.Start();
    if (!started.ok()) {
      std::printf("server start failed: %s\n", started.ToString().c_str());
    } else {
      const int kInfoRpcs = 200;
      auto rpc_batch = [&](const char* what) -> double {
        auto client = Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          std::printf("%s connect failed: %s\n", what,
                      client.status().ToString().c_str());
          return -1.0;
        }
        Timer t;
        for (int i = 0; i < kInfoRpcs; ++i) {
          auto resp = client->Info(InfoRequest{});
          if (!resp.ok()) {
            std::printf("%s rpc failed: %s\n", what,
                        resp.status().ToString().c_str());
            return -1.0;
          }
        }
        return t.ElapsedSeconds();
      };
      rpc_batch("warmup");  // First-connection and cache warmup.
      double alone_s = rpc_batch("alone");
      std::vector<Client> parked;
      for (int c = 0; c < 64; ++c) {
        auto idle = Client::Connect("127.0.0.1", server.port());
        if (!idle.ok()) {
          std::printf("idle connect %d failed: %s\n", c,
                      idle.status().ToString().c_str());
          break;
        }
        parked.push_back(std::move(*idle));
      }
      double parked_s = rpc_batch("with 64 idle conns");
      const double ratio =
          (alone_s > 0 && parked_s > 0) ? alone_s / parked_s : 0.0;
      std::printf("\n%-28s %14s %16s %10s\n",
                  "event loop (200 Info RPCs)", "total[s]", "rpc/s",
                  "vs alone");
      std::printf("%-28s %14.4f %16.0f %10s\n", "alone", alone_s,
                  alone_s > 0 ? kInfoRpcs / alone_s : 0.0, "1x");
      std::printf("%-28s %14.4f %16.0f %9.2fx\n", "with 64 idle conns",
                  parked_s, parked_s > 0 ? kInfoRpcs / parked_s : 0.0,
                  ratio);
      Server::TransportStats tstats = server.transport_stats();
      std::printf("transport: %llu active conns, %llu rejected, %llu "
                  "idle-reaped, %llu loop wakeups\n",
                  static_cast<unsigned long long>(tstats.active_connections),
                  static_cast<unsigned long long>(tstats.rejected_connections),
                  static_cast<unsigned long long>(tstats.idle_reaped),
                  static_cast<unsigned long long>(tstats.loop_wakeups));
      // Thresholded by tools/bench_smoke.sh on the baseline machine: idle
      // connections dragging foreground latency to a fraction of the lone
      // client means the event loop regressed (per-connection threads,
      // busy wakeups, or O(conns) scans crept back in).
      std::printf("SRVSTAT metric=concurrent_connections ratio=%.2f\n",
                  ratio);
      parked.clear();
      server.Shutdown();
      server.Wait();
    }
  }

  // (5) Per-algorithm cold compress through the registry, each at the same
  // (small forest, bound) instance — the comparable baseline future
  // algorithm PRs extend. Reloading between runs keeps every run cold.
  std::printf("\n%-28s %14s %10s %10s %10s\n", "cold compress (forest "
              "small)", "time[s]", "ML", "VL", "cache");
  for (const std::string& algo : algos) {
    reload();
    CompressRequest req;
    req.artifact = "bench";
    req.forest = "small";
    req.algo = algo;
    req.bound = small_bound;
    Timer t;
    Response resp = service.Compress(req);
    double s = t.ElapsedSeconds();
    if (!resp.ok()) {
      std::printf("%-28s %14.5f %32s\n", algo.c_str(), s,
                  ("error: " + resp.message).c_str());
      continue;
    }
    std::printf("%-28s %14.5f %10llu %10llu %10s\n", algo.c_str(), s,
                static_cast<unsigned long long>(resp.monomial_loss),
                static_cast<unsigned long long>(resp.variable_loss),
                resp.cache_hit ? "hit" : "miss");
  }
}

}  // namespace
}  // namespace provabs::bench

int main(int argc, char** argv) {
  provabs::bench::Run(provabs::bench::SelectedAlgos(
      argc, argv, provabs::CompressorRegistry::Default().Names()));
  return 0;
}
