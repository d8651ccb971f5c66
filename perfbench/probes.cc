#include "probes.h"

#include <memory>
#include <thread>

#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"
#include "io/serializer.h"
#include "jit/code_cache.h"
#include "jit/jit_backend.h"
#include "parallel/thread_pool.h"
#include "scenario/program.h"
#include "server/client.h"
#include "server/evaluate_batcher.h"
#include "server/provenance_service.h"

namespace perfbench {

using provabs::PolynomialSet;
using provabs::Response;

namespace {

constexpr char kProbeArtifact[] = "probe";

class Prober {
 public:
  Prober(Tracer& tracer, std::atomic<uint64_t>& next_request)
      : tracer_(tracer), next_request_(next_request) {}

  /// Times `fn` (microseconds) `reps` times, each call under a root span.
  template <typename Fn>
  std::vector<double> Repeat(const std::string& span, size_t reps, Fn&& fn) {
    std::vector<double> us;
    for (size_t i = 0; i < reps; ++i) {
      ScopedSpan s(tracer_, span, -1, next_request_.fetch_add(1));
      const Clock::time_point start = Clock::now();
      fn();
      us.push_back(MicrosSince(start));
    }
    return us;
  }

  /// Repeats until at least `min_reps` calls and `min_ms` of work, capped
  /// at `max_reps` calls.
  template <typename Fn>
  std::vector<double> RepeatFor(const std::string& span, size_t min_reps,
                                double min_ms, size_t max_reps, Fn&& fn) {
    std::vector<double> us;
    double total_ms = 0.0;
    while (us.size() < max_reps &&
           (us.size() < min_reps || total_ms < min_ms)) {
      us.push_back(Repeat(span, 1, fn)[0]);
      total_ms += us.back() / 1e3;
    }
    return us;
  }

  void Add(const std::string& name, const std::vector<double>& us,
           const std::string& unit, const std::string& note = "") {
    const double scale = unit == "ms" ? 1e-3 : 1.0;
    metrics_.push_back(
        LayerMetric{name, Median(us) * scale, unit, us.size(), note});
  }
  void AddValue(const std::string& name, double value,
                const std::string& unit, size_t n,
                const std::string& note = "") {
    metrics_.push_back(LayerMetric{name, value, unit, n, note});
  }

  std::vector<LayerMetric>& metrics() { return metrics_; }

 private:
  Tracer& tracer_;
  std::atomic<uint64_t>& next_request_;
  std::vector<LayerMetric> metrics_;
};

provabs::LoadRequest ProbeLoad(const Dataset& data, const std::string& name) {
  provabs::LoadRequest load;
  load.artifact = name;
  load.polys_bytes = data.polys_bytes;
  load.forests = {{"default", data.forest_bytes}};
  return load;
}

/// Client RPC against the live server versus in-process HandleFrame on the
/// same payload, plus the wire codec and the service handler per verb.
void ProbeService(Prober& p, const ProbeInputs& in, uint16_t port) {
  const Dataset& data = *in.data;
  provabs::ProvenanceService service;
  auto client = provabs::Client::Connect("127.0.0.1", port);
  bool shutdown = false;
  auto handle = [&](const std::string& payload) {
    return service.HandleFrame(payload, &shutdown);
  };

  const std::string load = provabs::EncodeLoadRequest(ProbeLoad(data, kProbeArtifact));
  p.Add("service.handle_us.load",
        p.Repeat("service.handle_frame", 3, [&] { handle(load); }), "us");
  if (client.ok()) (void)client->Load(ProbeLoad(data, kProbeArtifact));

  provabs::CompressRequest compress;
  compress.artifact = kProbeArtifact;
  compress.bound = in.bound;
  const std::string compress_payload = provabs::EncodeCompressRequest(compress);
  handle(compress_payload);
  if (client.ok()) (void)client->Compress(compress);

  provabs::EvaluateRequest evaluate;
  evaluate.artifact = kProbeArtifact;
  evaluate.assignments = in.scenario;
  evaluate.compressed = true;
  evaluate.bound = in.bound;
  const std::string evaluate_payload = provabs::EncodeEvaluateRequest(evaluate);

  // Alternate the two paths so drift affects both alike.
  std::vector<double> rpc_eval, frame_eval, rpc_hit, frame_hit;
  std::string response;
  for (int i = 0; i < 100 && client.ok(); ++i) {
    rpc_eval.push_back(p.Repeat("client.rpc", 1, [&] {
      (void)client->Evaluate(evaluate);
    })[0]);
    frame_eval.push_back(p.Repeat("service.handle_frame", 1, [&] {
      response = handle(evaluate_payload);
    })[0]);
    rpc_hit.push_back(p.Repeat("client.rpc", 1, [&] {
      (void)client->Compress(compress);
    })[0]);
    frame_hit.push_back(p.Repeat("service.handle_frame", 1, [&] {
      handle(compress_payload);
    })[0]);
  }
  p.AddValue("transport.overhead_us", Median(rpc_eval) - Median(frame_eval),
             "us", rpc_eval.size(), "Evaluate (compressed)");
  p.AddValue("transport.overhead_us.compress_hit",
             Median(rpc_hit) - Median(frame_hit), "us", rpc_hit.size(),
             "Compress answered from cache");
  p.Add("service.handle_us.evaluate", frame_eval, "us");
  p.Add("wire.encode_us", p.Repeat("wire.encode", 200, [&] {
          provabs::EncodeEvaluateRequest(evaluate);
        }), "us", "EvaluateRequest");
  p.Add("wire.decode_us", p.Repeat("wire.decode", 200, [&] {
          (void)provabs::DecodeResponse(response);
        }), "us", "Evaluate response");
  p.AddValue("wire.response_bytes", static_cast<double>(response.size()),
             "bytes", 1, "Evaluate response");

  // Fresh keys: bounds spread over the feasible range, none cached yet.
  std::vector<double> fresh;
  for (int i = 1; i <= 5; ++i) {
    provabs::CompressRequest req = compress;
    req.bound = data.min_size +
                (data.polys.SizeM() - data.min_size) * static_cast<uint64_t>(i) / 7 + 1;
    const std::string payload = provabs::EncodeCompressRequest(req);
    fresh.push_back(p.Repeat("service.handle_frame", 1, [&] { handle(payload); })[0]);
  }
  p.Add("service.handle_us.compress", fresh, "us", "cache miss");

  provabs::EvaluateScenarioProgramRequest program;
  program.artifact = kProbeArtifact;
  program.program = in.program;
  program.compressed = true;
  program.bound = in.bound;
  program.shape = provabs::ScenarioShape::kArgmax;
  const std::string program_payload =
      provabs::EncodeEvaluateScenarioProgramRequest(program);
  handle(program_payload);  // the program-cache miss
  p.Add("service.handle_us.scenario",
        p.Repeat("service.handle_frame", 5, [&] { handle(program_payload); }),
        "us", "program-cache hit");

  provabs::TradeoffRequest tradeoff;
  tradeoff.artifact = kProbeArtifact;
  const std::string tradeoff_payload = provabs::EncodeTradeoffRequest(tradeoff);
  p.Add("service.handle_us.tradeoff",
        p.Repeat("service.handle_frame", 3, [&] { handle(tradeoff_payload); }),
        "us");

  // Appends of small deltas on leaves the cut keeps.
  std::vector<provabs::VariableId> kept, below;
  SplitLeavesByCut(data.forest, in.cold->result.vvs, &kept, &below);
  if (kept.empty()) kept = data.leaves;
  provabs::Rng rng(in.bound);
  std::vector<double> appends;
  for (int i = 0; i < 8; ++i) {
    provabs::AppendRequest append;
    append.artifact = kProbeArtifact;
    append.polys_bytes = SerializeDelta(
        MakeDeltaPolynomial(rng, kept[rng.Uniform(kept.size())], data, 3),
        *data.vars);
    const std::string payload = provabs::EncodeAppendRequest(append);
    appends.push_back(p.Repeat("service.handle_frame", 1, [&] { handle(payload); })[0]);
  }
  p.Add("service.handle_us.append", appends, "us");
}

/// io, algo and abstraction on the workload's set.
void ProbeAlgorithms(Prober& p, const ProbeInputs& in) {
  const Dataset& data = *in.data;
  p.Add("io.deserialize_ms", p.Repeat("io.deserialize", 3, [&] {
          provabs::VariableTable vars;
          (void)provabs::DeserializePolynomialSet(data.polys_bytes, vars);
        }), "ms");
  std::vector<provabs::VariableId> kept, below;
  SplitLeavesByCut(data.forest, in.cold->result.vvs, &kept, &below);
  if (kept.empty()) kept = data.leaves;
  provabs::Rng rng(data.min_size);
  const provabs::Polynomial delta =
      MakeDeltaPolynomial(rng, kept[rng.Uniform(kept.size())], data, 3);
  const std::string delta_bytes = SerializeDelta(delta, *data.vars);
  p.Add("io.delta_deserialize_us", p.Repeat("io.delta_deserialize", 50, [&] {
          provabs::VariableTable vars;
          (void)provabs::DeserializePolynomialSet(delta_bytes, vars);
        }), "us");

  const provabs::Compressor* opt =
      provabs::CompressorRegistry::Default().Find("opt");
  provabs::CompressOptions options;
  options.bound = in.bound;
  p.Add("algo.compress_ms", p.Repeat("algo.compress", 3, [&] {
          (void)opt->Compress(data.polys, data.forest, options);
        }), "ms", "opt at the midpoint bound");
  p.Add("algo.tradeoff_ms", p.Repeat("algo.tradeoff", 3, [&] {
          (void)provabs::OptimalTradeoffCurve(data.polys, data.forest, 0);
        }), "ms");

  // OptimalRecompress after one small append on a kept leaf.
  std::vector<double> recompress;
  std::string fallback_note = "patched";
  for (int i = 0; i < 5; ++i) {
    PolynomialSet grown = data.polys;
    const uint64_t revision = grown.revision();
    grown.Add(MakeDeltaPolynomial(rng, kept[rng.Uniform(kept.size())], data, 3));
    const provabs::PolynomialSetDelta d = grown.DeltaSince(revision);
    provabs::RecompressFallback fallback = provabs::RecompressFallback::kNone;
    recompress.push_back(p.Repeat("algo.recompress", 1, [&] {
      (void)provabs::OptimalRecompress(grown, data.forest, in.cold->result, d,
                                       in.bound, &fallback);
    })[0]);
    if (fallback != provabs::RecompressFallback::kNone) {
      fallback_note = std::string("fell back: ") +
                      provabs::RecompressFallbackName(fallback);
    }
  }
  p.Add("algo.recompress_us", recompress, "us", fallback_note);

  p.Add("abstraction.apply_ms", p.Repeat("abstraction.apply", 3, [&] {
          (void)in.cold->result.Apply(data.forest, data.polys);
        }), "ms");
}

/// core, jit, scenario and batcher on P and P↓S.
void ProbeEvaluation(Prober& p, const ProbeInputs& in) {
  const Dataset& data = *in.data;
  const provabs::EvaluationBackendRegistry& registry =
      provabs::EvaluationBackendRegistry::Default();
  const auto* jit = dynamic_cast<const provabs::JitBackend*>(registry.Find("jit"));
  const provabs::Valuation valuation = MakeValuation(in.scenario, *data.vars);

  const std::pair<const char*, const PolynomialSet*> sets[] = {
      {"full", &data.polys}, {"comp", &in.cold->compressed}};
  for (const auto& [tag, set] : sets) {
    const std::string suffix = std::string(".") + tag;
    p.Add("core.compile_ms" + suffix, p.Repeat("core.compile", 3, [&] {
            (void)provabs::CompiledPolynomialSet::Compile(*set);
          }), "ms");
    const std::shared_ptr<const provabs::CompiledPolynomialSet> compiled =
        set->Compiled();
    const size_t polys = compiled->poly_count();

    {
      provabs::jit::JitCodeCache fresh(
          provabs::jit::JitCodeCache::kDefaultByteBudget);
      bool emitted = false;
      std::vector<double> emit = p.Repeat("jit.emit", 1, [&] {
        emitted = fresh.GetOrEmit(*compiled).ok();
      });
      p.Add("jit.emit_ms" + suffix, emit, "ms",
            emitted ? "emitted" : "emission failed");
    }

    const provabs::JitBackend::Stats before =
        jit != nullptr ? jit->stats() : provabs::JitBackend::Stats{};
    for (size_t width : {size_t{1}, size_t{8}}) {
      std::vector<provabs::DenseValuation> dense(
          width, compiled->MaterializeValuation(valuation));
      std::vector<std::vector<double>> outs(width, std::vector<double>(polys));
      std::vector<const provabs::DenseValuation*> scenario_ptrs;
      std::vector<double*> out_ptrs;
      for (size_t s = 0; s < width; ++s) {
        scenario_ptrs.push_back(&dense[s]);
        out_ptrs.push_back(outs[s].data());
      }
      auto routed = registry.ResolveForBatch("", width);
      const std::string route =
          routed.ok() ? "auto routes to " + (*routed)->info().name : "";
      for (const char* name : {"compiled", "simd_batch", "jit"}) {
        const provabs::EvaluationBackend* backend = registry.Find(name);
        if (backend == nullptr) continue;
        auto call = [&] {
          (void)backend->EvaluateBatch(*compiled, 0, polys,
                                       scenario_ptrs.data(), out_ptrs.data(),
                                       width);
        };
        call();  // warm
        p.Add("core.eval_us." + std::string(name) + ".b" +
                  std::to_string(width) + suffix,
              p.RepeatFor("core.eval", 7, 30.0, 40, call), "us", route);
      }
    }
    if (jit != nullptr) {
      const provabs::JitBackend::Stats after = jit->stats();
      const double native =
          static_cast<double>(after.native_batches - before.native_batches);
      const double all =
          native + static_cast<double>(
                       (after.fallback_forced - before.fallback_forced) +
                       (after.fallback_no_exec_mem -
                        before.fallback_no_exec_mem) +
                       (after.fallback_emit_failed -
                        before.fallback_emit_failed));
      p.AddValue("jit.native_ratio" + suffix, all > 0 ? native / all : 0.0,
                 "ratio", static_cast<size_t>(all),
                 "emit_failed " + std::to_string(after.fallback_emit_failed -
                                                 before.fallback_emit_failed));
    }
  }

  const std::shared_ptr<const provabs::CompiledPolynomialSet> view =
      in.cold->compressed.Compiled();
  std::vector<double> compile_us = p.Repeat("scenario.compile", 5, [&] {
    (void)provabs::scenario::ScenarioProgram::Compile(in.program, view,
                                                      *data.vars);
  });
  p.Add("scenario.compile_us", compile_us, "us");
  auto program =
      provabs::scenario::ScenarioProgram::Compile(in.program, view, *data.vars);
  if (program.ok()) {
    p.Add("scenario.expand_us", p.Repeat("scenario.expand", 5, [&] {
            std::vector<provabs::DenseValuation> chunk;
            (void)program->ExpandChunk(0, 1000, &chunk);
          }), "us", "per 1000 scenarios");
  }

  // Batcher: two callers (the benchmark's connection count) against the
  // single-call kernel time of the backend auto-routing picks at width 1.
  provabs::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  provabs::EvaluateBatcher batcher(pool);
  auto shared_view = std::make_shared<const PolynomialSet>(in.cold->compressed);
  (void)batcher.Evaluate(shared_view, valuation);
  std::vector<double> latency[2];
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 60; ++i) {
        latency[c].push_back(p.Repeat("batcher.evaluate", 1, [&] {
          (void)batcher.Evaluate(shared_view, valuation);
        })[0]);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  latency[0].insert(latency[0].end(), latency[1].begin(), latency[1].end());
  auto routed = registry.ResolveForBatch("", 1);
  if (routed.ok()) {
    const provabs::DenseValuation dense = view->MaterializeValuation(valuation);
    std::vector<double> out(view->poly_count());
    const provabs::DenseValuation* scenario_ptr = &dense;
    double* out_ptr = out.data();
    std::vector<double> kernel = p.Repeat("core.eval", 30, [&] {
      (void)(*routed)->EvaluateBatch(*view, 0, view->poly_count(),
                                     &scenario_ptr, &out_ptr, 1);
    });
    p.AddValue("batcher.wait_us", Median(latency[0]) - Median(kernel), "us",
               latency[0].size(),
               "2 callers, minus the " + (*routed)->info().name +
                   " kernel alone");
  }
}

}  // namespace

std::vector<LayerMetric> RunProbes(const ProbeInputs& in, uint16_t port,
                                   Tracer& tracer,
                                   std::atomic<uint64_t>& next_request) {
  Prober p(tracer, next_request);
  ProbeService(p, in, port);
  ProbeAlgorithms(p, in);
  ProbeEvaluation(p, in);
  return std::move(p.metrics());
}

}  // namespace perfbench
