// perfbench_driver — the load driver behind perfbench/run.py.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --out-dir DIR
//
// Generates the workload's inputs from the seed, spawns provabs_server
// (default options) three times to time set-up, then drives it with two
// closed-loop connections for S seconds, checking every answer against
// the offline oracle. With --trace 0 the last stdout line is the JSON
// result with every end-to-end metric; with --trace 1 half the time runs
// untraced and half traced, then the per-layer probes run, and the JSON
// carries the per-layer metrics. Exits 1 on any oracle mismatch, 2 on bad
// arguments, 3 when the run itself could not be carried out.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "probes.h"
#include "server/client.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using provabs::Status;
using provabs::StatusOr;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string server;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 &&
         !args->workload.empty() && !args->server.empty() &&
         !args->out_dir.empty();
}

/// One JSON metric entry.
struct JsonMetric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonResult(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<JsonMetric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Prints one metric line: name, value, unit and sample count.
void PrintMetric(const std::string& name, double value, const std::string& unit,
                 size_t n, const std::string& note = "") {
  std::printf("metric %-26s %14.6g %-12s n=%zu%s%s\n", name.c_str(), value,
              unit.c_str(), n, note.empty() ? "" : "  ", note.c_str());
}

/// Prints the q-th percentile of a latency class, or why it is absent.
void PrintPercentile(const std::string& name, const Outcome& out,
                     const std::string& bucket, double q) {
  auto it = out.ms.find(bucket);
  const size_t n = it == out.ms.end() ? 0 : it->second.size();
  if (n == 0) {
    std::printf("metric %-26s %14s %-12s n=0  (no such requests in this "
                "workload)\n",
                name.c_str(), "n/a", "ms");
  } else if (!PercentileSupported(n, q)) {
    std::printf("metric %-26s %14s %-12s n=%zu  (too few samples; highest "
                "supported p%g)\n",
                name.c_str(), "n/a", "ms", n, HighestSupportedPercentile(n));
  } else {
    PrintMetric(name, Percentile(it->second, q), "ms", n);
  }
}

/// Measures one closed-loop phase of `seconds`.
StatusOr<Outcome> RunPhase(Workload& workload, uint16_t port, double seconds,
                           Tracer& tracer) {
  std::vector<provabs::Client> clients;
  provabs::ClientOptions options;
  options.connect_timeout_ms = 10'000;
  options.rpc_timeout_ms = 60'000;
  for (int c = 0; c < Workload::kConnections; ++c) {
    PROVABS_ASSIGN_OR_RETURN(provabs::Client client,
                             provabs::Client::Connect("127.0.0.1", port, options));
    clients.push_back(std::move(client));
  }
  std::atomic<uint64_t> next_request{0};
  PhaseControl control;
  control.tracer = &tracer;
  control.next_request = &next_request;
  std::vector<Outcome> outs(Workload::kConnections);
  const Clock::time_point start = Clock::now();
  control.deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < Workload::kConnections; ++c) {
    threads.emplace_back([&, c] {
      workload.Connection(c, clients[c], control, outs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  Outcome merged;
  merged.wall_s = MillisSince(start) / 1e3;
  for (Outcome& o : outs) merged.Merge(std::move(o));
  return merged;
}

/// The end-to-end metrics of a phase, printed by the names perfbench uses.
void PrintEndToEnd(const Outcome& out, double setup_s, size_t setup_n,
                   double rss_mb) {
  const uint64_t good = out.attempted - out.failed();
  PrintMetric("setup_s", setup_s, "s", setup_n, "median of the set-ups");
  PrintMetric("ops_per_s", static_cast<double>(good) / out.wall_s, "req/s",
              good);
  PrintMetric("whatifs_per_s", static_cast<double>(out.scenarios) / out.wall_s,
              "scenarios/s", out.scenarios);
  PrintMetric("failed_frac",
              out.attempted ? static_cast<double>(out.failed()) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              "ratio", out.attempted);
  PrintMetric("latency_p50_ms", Percentile(out.all_ms, 50), "ms",
              out.all_ms.size(), "every request");
  PrintMetric("latency_p90_ms", Percentile(out.all_ms, 90), "ms",
              out.all_ms.size(), "every request");
  PrintPercentile("evaluate_p50_ms", out, "evaluate", 50);
  PrintPercentile("evaluate_p99_ms", out, "evaluate", 99);
  PrintPercentile("full_evaluate_p50_ms", out, "full_evaluate", 50);
  PrintPercentile("scenario_p50_ms", out, "scenario", 50);
  PrintPercentile("scenario_p90_ms", out, "scenario", 90);
  PrintPercentile("compress_p50_ms", out, "compress", 50);
  PrintPercentile("compress_p90_ms", out, "compress", 90);
  PrintPercentile("append_p50_ms", out, "append", 50);
  PrintPercentile("recompress_p50_ms", out, "recompress", 50);
  PrintMetric("server_rss_mb", rss_mb, "MiB", 1, "VmHWM");
  PrintMetric("artifact_reloads", static_cast<double>(out.reloads), "count",
              out.attempted, "requests that found the artifact evicted");
  PrintMetric("size_ratio", Mean(out.size_ratios), "ratio",
              out.size_ratios.size());
  if (out.rel_errs.empty()) {
    std::printf("metric %-26s %14s %-12s n=0  (no compressed what-ifs with "
                "a full-provenance answer)\n",
                "whatif_rel_err", "n/a", "ratio");
  } else {
    PrintMetric("whatif_rel_err", Mean(out.rel_errs), "ratio",
                out.rel_errs.size());
  }
  for (const auto& [bucket, values] : out.ms) {
    const Summary s = Summarize(values);
    std::printf("class %-16s n=%-7zu p50=%.4f ms  p90=%.4f ms  p99=%.4f ms%s\n",
                bucket.c_str(), s.n, s.p50, s.p90, s.p99,
                PercentileSupported(s.n, 99) ? "" : "  (p99 unsupported)");
  }
  for (const std::string& note : out.notes) {
    std::printf("failure: %s\n", note.c_str());
  }
}

/// The per-layer metric names, in report order. The traced run must
/// produce every one of them on every workload.
const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "transport.overhead_us",      "wire.encode_us",
        "wire.decode_us",             "wire.response_bytes",
        "service.handle_us.load",     "service.handle_us.evaluate",
        "service.handle_us.compress", "service.handle_us.scenario",
        "service.handle_us.append",   "service.handle_us.tradeoff",
        "store.result_hit_ratio",     "store.evictions",
        "store.program_hit_ratio",    "inflight.dedup_hits",
        "delta.patched_ratio",        "client.artifact_reloads",
        "batcher.lane_width",         "batcher.wait_us",
        "io.deserialize_ms",          "io.delta_deserialize_us",
        "algo.compress_ms",           "algo.tradeoff_ms",
        "algo.recompress_us",         "abstraction.apply_ms"};
    for (const char* set : {"full", "comp"}) {
      n.push_back(std::string("core.compile_ms.") + set);
      for (const char* backend : {"compiled", "simd_batch", "jit"}) {
        for (const char* width : {"b1", "b8"}) {
          n.push_back(std::string("core.eval_us.") + backend + "." + width +
                      "." + set);
        }
      }
      n.push_back(std::string("jit.emit_ms.") + set);
      n.push_back(std::string("jit.native_ratio.") + set);
    }
    n.push_back("scenario.compile_us");
    n.push_back("scenario.expand_us");
    n.push_back("trace.overhead_pct");
    return n;
  }();
  return names;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  const Clock::time_point prepare_start = Clock::now();
  provabs::Status prepared = workload->Prepare(args.seed);
  if (!prepared.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 prepared.ToString().c_str());
    return 3;
  }
  for (const std::string& line : workload->Describe()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("inputs and oracle prepared in %.2f s (not part of setup_s)\n",
              MillisSince(prepare_start) / 1e3);

  // Set-up, three times: spawn, load, warm. The last server stays up.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  ServerProcess server;
  for (int r = 0; r < kSetups; ++r) {
    if (r > 0) {
      provabs::Status stopped = server.Stop(10'000);
      if (!stopped.ok()) {
        std::fprintf(stderr, "server stop: %s\n", stopped.ToString().c_str());
        return 3;
      }
    }
    const Clock::time_point start = Clock::now();
    provabs::Status started = server.Start(args.server, args.out_dir, 20'000);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 3;
    }
    provabs::ClientOptions options;
    options.connect_timeout_ms = 10'000;
    options.rpc_timeout_ms = 60'000;
    auto client = provabs::Client::Connect("127.0.0.1", server.port(), options);
    provabs::Status ready =
        client.ok() ? workload->Setup(*client) : client.status();
    if (!ready.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", ready.ToString().c_str());
      return 3;
    }
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  Tracer untraced(false);
  Tracer tracer(true);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  StatusOr<Outcome> measured =
      RunPhase(*workload, server.port(), phase_s, untraced);
  if (!measured.ok()) {
    std::fprintf(stderr, "measured phase failed: %s\n",
                 measured.status().ToString().c_str());
    return 3;
  }
  std::optional<Outcome> traced;
  if (args.trace) {
    StatusOr<Outcome> phase = RunPhase(*workload, server.port(), phase_s, tracer);
    if (!phase.ok()) {
      std::fprintf(stderr, "traced phase failed: %s\n",
                   phase.status().ToString().c_str());
      return 3;
    }
    traced = std::move(*phase);
  }

  StatusOr<double> rss = server.PeakRssMiB();
  provabs::ServerStats stats;
  {
    auto client = provabs::Client::Connect("127.0.0.1", server.port());
    StatusOr<provabs::Response> info =
        client.ok() ? client->Info(provabs::InfoRequest{}) : client.status();
    if (info.ok()) stats = info->stats;
  }
  std::vector<LayerMetric> layers;
  if (args.trace) {
    std::atomic<uint64_t> probe_request{1'000'000'000};
    layers = RunProbes(workload->probe_inputs(), server.port(), tracer,
                       probe_request);
  }
  provabs::Status stopped = server.Stop(10'000);
  if (!stopped.ok()) {
    std::fprintf(stderr, "server stop: %s\n", stopped.ToString().c_str());
  }

  // Deferred oracle checks run after the server is idle.
  workload->Finish(*measured);
  if (args.trace) workload->Finish(*traced);

  Outcome& main = *measured;
  const double setup_median = Median(setup_s);
  const double rss_mb = rss.ok() ? *rss : 0.0;
  const uint64_t mismatches =
      main.mismatches + (args.trace ? traced->mismatches : 0);
  const bool correct = mismatches == 0 && rss.ok();
  if (!rss.ok()) std::fprintf(stderr, "%s\n", rss.status().ToString().c_str());

  std::printf("-- end-to-end (%s phase, %.2f s) --\n",
              args.trace ? "untraced" : "measured", main.wall_s);
  PrintEndToEnd(main, setup_median, setup_s.size(), rss_mb);

  std::vector<JsonMetric> json;
  uint64_t attempted = main.attempted;
  uint64_t failed = main.failed();
  if (!args.trace) {
    const std::vector<double>& primary = main.ms[workload->primary_class()];
    PrintMetric("primary_p50_ms", Percentile(primary, 50), "ms",
                primary.size(), "primary class: " + workload->primary_class());
    json = {{"setup_s", setup_median, "s"},
            {"primary_p50_ms", Percentile(primary, 50), "ms"},
            {"server_rss_mb", rss_mb, "MiB"},
            {"size_ratio", Mean(main.size_ratios), "ratio"}};
  } else {
    Outcome& t = *traced;
    attempted += t.attempted;
    failed += t.failed();
    std::printf("-- end-to-end (traced phase, %.2f s) --\n", t.wall_s);
    PrintEndToEnd(t, setup_median, setup_s.size(), rss_mb);
    const double ops_untraced =
        static_cast<double>(main.attempted - main.failed()) / main.wall_s;
    const double ops_traced =
        static_cast<double>(t.attempted - t.failed()) / t.wall_s;
    const double overhead_pct = 100.0 * (ops_untraced - ops_traced) / ops_untraced;
    std::printf("tracing overhead: ops_per_s %.2f traced vs %.2f untraced "
                "(%.2f%%); latency_p50_ms %.4f traced vs %.4f untraced\n",
                ops_traced, ops_untraced, overhead_pct,
                Percentile(t.all_ms, 50), Percentile(main.all_ms, 50));

    layers.push_back({"store.result_hit_ratio",
                      Ratio(stats.result_hits,
                            stats.result_hits + stats.result_misses),
                      "ratio", stats.result_hits + stats.result_misses, ""});
    layers.push_back({"store.evictions", static_cast<double>(stats.evictions),
                      "count", 1, ""});
    layers.push_back({"store.program_hit_ratio",
                      Ratio(stats.program_hits,
                            stats.program_hits + stats.program_misses),
                      "ratio", stats.program_hits + stats.program_misses, ""});
    layers.push_back({"inflight.dedup_hits",
                      static_cast<double>(stats.dedup_hits), "count", 1, ""});
    layers.push_back({"delta.patched_ratio",
                      Ratio(stats.delta_patched,
                            stats.delta_patched + stats.delta_fallback_full),
                      "ratio", stats.delta_patched + stats.delta_fallback_full,
                      ""});
    layers.push_back({"batcher.lane_width",
                      Ratio(stats.eval_requests, stats.eval_groups), "ratio",
                      stats.eval_groups, ""});
    layers.push_back({"client.artifact_reloads",
                      static_cast<double>(main.reloads + t.reloads), "count",
                      main.attempted + t.attempted,
                      "requests that found the artifact evicted"});
    layers.push_back({"trace.overhead_pct", overhead_pct, "%", 2, ""});

    std::map<std::string, const LayerMetric*> by_name;
    for (const LayerMetric& m : layers) by_name[m.name] = &m;
    std::printf("-- per-layer metrics --\n");
    for (const std::string& name : PerLayerNames()) {
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        std::fprintf(stderr, "per-layer metric %s was not measured\n",
                     name.c_str());
        return 3;
      }
      PrintMetric(name, it->second->value, it->second->unit, it->second->n,
                  it->second->note);
      json.push_back({name, it->second->value, it->second->unit});
    }
    for (const LayerMetric& m : layers) {
      if (std::find(PerLayerNames().begin(), PerLayerNames().end(), m.name) ==
          PerLayerNames().end()) {
        PrintMetric(m.name, m.value, m.unit, m.n, m.note);
      }
    }
    std::printf("-- per-layer self time (traced phase and probes) --\n");
    for (const auto& [layer, time] : tracer.SelfTimes()) {
      std::printf("layer %-12s self %12.3f ms  spans %llu\n", layer.c_str(),
                  time.self_ms, static_cast<unsigned long long>(time.spans));
    }
    const std::string dump = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    provabs::Status written = tracer.WriteJsonLines(dump);
    std::printf("span dump: %s (%s)\n", dump.c_str(),
                written.ok() ? "written" : written.ToString().c_str());
  }
  if (!correct) {
    std::printf("ORACLE MISMATCH: %llu answers differ from the oracle\n",
                static_cast<unsigned long long>(mismatches));
  }
  std::printf("%s\n", JsonResult(correct, attempted, failed, json).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH --out-dir DIR\n");
    return 2;
  }
  return perfbench::Run(args);
}
