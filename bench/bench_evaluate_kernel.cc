/// Evaluation-kernel comparison: the scenario-evaluation hot path (the
/// operation Fig. 10's speedups are measured over) run three ways on the
/// standard workloads —
///   naive     : per-polynomial Valuation::Evaluate (pointer-chased nested
///               vectors, one hash probe per factor),
///   compiled  : CompiledPolynomialSet CSR arrays + DenseValuation (flat
///               sequential walks, one hash probe per distinct variable
///               per scenario),
///   parallel  : the compiled kernel chunked across a ThreadPool
///               (ParallelEvaluateAll).
/// All three produce bitwise-identical values (asserted per scenario); the
/// driver exits nonzero on any mismatch, so the bench smoke CI step doubles
/// as an end-to-end equivalence check. Compile cost is reported separately:
/// it is paid once per artifact and amortized over every scenario.
///
/// A second, batched arm then runs the WHOLE scenario batch through every
/// registered evaluation backend (core/evaluation_backend.h) in one
/// EvaluateBatch call, asserts bitwise identity against the naive results,
/// and reports each backend's throughput ratio over the single-scenario
/// compiled loop as machine-parsable lines:
///
///   BATCHSTAT workload=<w> backend=<name> batch=<n> seconds=<t> ratio=<r>
///
/// tools/bench_smoke.sh thresholds the simd_batch ratio against the value
/// recorded in BENCH_evaluate.json when it runs on the recorded machine.
///
/// A third, jit arm re-runs the SINGLE-scenario sweep through the "jit"
/// backend (one EvaluateBatch of batch 1 per scenario — the shape
/// Valuation::EvaluateAll routes), bit-checked like the others, reporting
///
///   JITSTAT workload=<w> mode=native|fallback emit_ms=<ms> seconds=<t>
///           ratio=<r>
///
/// where ratio is over the same compiled-loop denominator and emit_ms is
/// the one-time code-emission cost (paid once per artifact, amortized like
/// compile cost). bench_smoke.sh thresholds mode=native lines only, so
/// NOJIT-forced or exec-restricted hosts skip cleanly.
///
/// A fourth, auto arm runs batches of width 1, 8 and 40 through the routed
/// entry point (EvaluationBackendRegistry::Route with an empty name, as
/// every serving path calls it) once routing has settled on this artifact,
/// interleaved with the same batch on every registered backend by name,
/// bit-checked like the others, reporting
///
///   ROUTESTAT workload=<w> batch=<n> auto=<name> best=<name> ratio=<r>
///
/// where ratio is the median over interleaved trials of the best explicit
/// backend's trial time over the auto arm's (>= 1: routing found the
/// fastest). It is a same-run ratio, so bench_smoke.sh gates ratio >= 0.9
/// on every host.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "jit/jit_backend.h"
#include "parallel/parallel_compress.h"
#include "parallel/thread_pool.h"

namespace provabs::bench {
namespace {

constexpr int kScenarios = 40;

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One scenario per seed, assigning both parameter families (plans+months /
/// suppliers+parts) — the Fig. 10 interaction pattern.
Valuation MakeScenario(const Workload& w, uint64_t seed) {
  Rng rng(seed);
  Valuation val;
  for (VariableId v : w.tree_leaves) val.Set(v, rng.UniformReal(0.5, 1.5));
  for (VariableId v : w.other_leaves) val.Set(v, rng.UniformReal(0.5, 1.5));
  return val;
}

/// The batched arm: the whole scenario batch through each registered
/// backend in single EvaluateBatch calls, bit-checked against the naive
/// results. `t_compiled` is the accumulated single-scenario compiled-loop
/// time over the same scenarios (the ratio's denominator is that loop).
bool RunBatchedArm(const Workload& w,
                   const CompiledPolynomialSet& compiled,
                   const std::vector<Valuation>& scenarios,
                   const std::vector<std::vector<double>>& naive_results,
                   double t_compiled) {
  const size_t n = scenarios.size();
  const size_t poly_count = compiled.poly_count();
  std::vector<DenseValuation> dense;
  dense.reserve(n);
  for (const Valuation& val : scenarios) {
    dense.push_back(compiled.MaterializeValuation(val));
  }
  std::vector<const DenseValuation*> dense_ptrs(n);
  for (size_t s = 0; s < n; ++s) dense_ptrs[s] = &dense[s];
  std::vector<std::vector<double>> out(n, std::vector<double>(poly_count));
  std::vector<double*> out_ptrs(n);
  for (size_t s = 0; s < n; ++s) out_ptrs[s] = out[s].data();

  bool all_equal = true;
  constexpr int kReps = 5;
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  for (const std::string& name : registry.Names()) {
    const EvaluationBackend* backend = registry.Find(name);
    Timer timer;
    for (int rep = 0; rep < kReps; ++rep) {
      Status status = backend->EvaluateBatch(
          compiled, 0, poly_count, dense_ptrs.data(), out_ptrs.data(), n);
      if (!status.ok()) {
        std::printf("BATCH ERROR %s/%s: %s\n", w.name.c_str(), name.c_str(),
                    status.ToString().c_str());
        return false;
      }
    }
    const double seconds = timer.ElapsedSeconds() / kReps;
    for (size_t s = 0; s < n; ++s) {
      if (!BitwiseEqual(naive_results[s], out[s])) {
        std::printf("BATCH MISMATCH in %s backend=%s scenario %zu\n",
                    w.name.c_str(), name.c_str(), s);
        all_equal = false;
      }
    }
    std::printf(
        "BATCHSTAT workload=%s backend=%s batch=%zu seconds=%.6f "
        "ratio=%.2f\n",
        w.name.c_str(), name.c_str(), n, seconds,
        seconds > 0 ? t_compiled / seconds : 0.0);
  }
  return all_equal;
}

/// The jit arm: the single-scenario sweep through the "jit" backend, one
/// batch-of-1 EvaluateBatch per scenario, bit-checked against naive. A
/// local backend instance (sharing the process-wide code cache) exposes
/// the native/fallback decision through its stats.
bool RunJitArm(const Workload& w, const CompiledPolynomialSet& compiled,
               const std::vector<Valuation>& scenarios,
               const std::vector<std::vector<double>>& naive_results,
               double t_compiled) {
  const size_t poly_count = compiled.poly_count();
  const size_t n = scenarios.size();
  std::vector<DenseValuation> dense;
  dense.reserve(n);
  for (const Valuation& val : scenarios) {
    dense.push_back(compiled.MaterializeValuation(val));
  }
  JitBackend jit;
  std::vector<double> out(poly_count);

  // The first batch pays the one-time emission (a cache miss unless the
  // registered backend already served this artifact); report it apart so
  // the steady-state ratio reflects the amortized serving cost.
  Timer emit_timer;
  {
    const DenseValuation* scenario = &dense[0];
    double* out_ptr = out.data();
    Status status = jit.EvaluateBatch(compiled, 0, poly_count, &scenario,
                                      &out_ptr, 1);
    if (!status.ok()) {
      std::printf("JIT ERROR %s: %s\n", w.name.c_str(),
                  status.ToString().c_str());
      return false;
    }
  }
  const double emit_ms = emit_timer.ElapsedMillis();

  bool all_equal = true;
  constexpr int kReps = 5;
  Timer timer;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t s = 0; s < n; ++s) {
      const DenseValuation* scenario = &dense[s];
      double* out_ptr = out.data();
      Status status = jit.EvaluateBatch(compiled, 0, poly_count, &scenario,
                                        &out_ptr, 1);
      if (!status.ok()) {
        std::printf("JIT ERROR %s: %s\n", w.name.c_str(),
                    status.ToString().c_str());
        return false;
      }
      if (rep == 0 && !BitwiseEqual(naive_results[s], out)) {
        std::printf("JIT MISMATCH in %s scenario %zu\n", w.name.c_str(), s);
        all_equal = false;
      }
    }
  }
  const double seconds = timer.ElapsedSeconds() / kReps;

  const JitBackend::Stats stats = jit.stats();
  const bool native = stats.native_batches > 0 && stats.fallback_forced == 0 &&
                      stats.fallback_no_exec_mem == 0 &&
                      stats.fallback_emit_failed == 0;
  std::printf(
      "JITSTAT workload=%s mode=%s emit_ms=%.3f seconds=%.6f ratio=%.2f\n",
      w.name.c_str(), native ? "native" : "fallback", emit_ms, seconds,
      seconds > 0 ? t_compiled / seconds : 0.0);
  return all_equal;
}

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The auto arm (see the file comment).
bool RunRoutingArm(const Workload& w, const CompiledPolynomialSet& compiled,
                   const std::vector<Valuation>& scenarios,
                   const std::vector<std::vector<double>>& naive_results) {
  const EvaluationBackendRegistry& registry =
      EvaluationBackendRegistry::Default();
  const size_t poly_count = compiled.poly_count();
  bool all_equal = true;
  for (size_t width : {size_t{1}, size_t{8}, size_t{40}}) {
    if (width > scenarios.size()) continue;
    std::vector<DenseValuation> dense;
    for (size_t s = 0; s < width; ++s) {
      dense.push_back(compiled.MaterializeValuation(scenarios[s]));
    }
    std::vector<const DenseValuation*> dense_ptrs(width);
    std::vector<std::vector<double>> out(width,
                                         std::vector<double>(poly_count));
    std::vector<double*> out_ptrs(width);
    for (size_t s = 0; s < width; ++s) {
      dense_ptrs[s] = &dense[s];
      out_ptrs[s] = out[s].data();
    }
    // One batch on the backend `name` names ("" = routed).
    std::string routed_to;
    auto batch = [&](const std::string& name) {
      StatusOr<BackendRoute> route = registry.Route(name, compiled, width);
      if (!route.ok()) return route.status();
      if (name.empty()) routed_to = route->backend()->info().name;
      return route->EvaluateBatch(compiled, 0, poly_count, dense_ptrs.data(),
                                  out_ptrs.data(), width);
    };
    // Let routing finish its probe on this artifact and width first.
    const size_t probe_bound = 2 * EvaluationBackendRegistry::kMaxProbeSamples *
                               registry.Names().size();
    for (size_t i = 0; i < probe_bound; ++i) {
      StatusOr<BackendRoute> route = registry.Route("", compiled, width);
      if (!route.ok() || !route->measuring()) break;
      (void)route->EvaluateBatch(compiled, 0, poly_count, dense_ptrs.data(),
                                 out_ptrs.data(), width);
    }
    std::vector<std::string> arms = registry.Names();
    arms.push_back("");  // auto, last
    // Repetitions per trial: ~2 ms of the fastest backend, so one trial is
    // long against timer and scheduler noise.
    double fastest_s = 1.0;
    for (const std::string& name : arms) {
      Timer once;
      if (!batch(name).ok()) return false;
      fastest_s = std::min(fastest_s, std::max(once.ElapsedSeconds(), 1e-7));
    }
    const int reps = static_cast<int>(std::min(5000.0, 2e-3 / fastest_s)) + 1;

    // Trials alternate the arm order; each trial's arms run back to back,
    // so a per-trial ratio compares like with like.
    constexpr int kTrials = 15;
    std::vector<std::vector<double>> trials(arms.size());
    for (int t = 0; t < kTrials; ++t) {
      for (size_t i = 0; i < arms.size(); ++i) {
        const size_t a = t % 2 == 0 ? i : arms.size() - 1 - i;
        Timer timer;
        for (int r = 0; r < reps; ++r) {
          Status status = batch(arms[a]);
          if (!status.ok()) {
            std::printf("ROUTE ERROR %s: %s\n", w.name.c_str(),
                        status.ToString().c_str());
            return false;
          }
        }
        trials[a].push_back(timer.ElapsedSeconds());
        if (arms[a].empty() && t == 0) {
          for (size_t s = 0; s < width; ++s) {
            if (!BitwiseEqual(naive_results[s], out[s])) {
              std::printf("ROUTE MISMATCH in %s batch %zu scenario %zu\n",
                          w.name.c_str(), width, s);
              all_equal = false;
            }
          }
        }
      }
    }
    size_t best = 0;
    for (size_t a = 1; a + 1 < arms.size(); ++a) {
      if (MedianOf(trials[a]) < MedianOf(trials[best])) best = a;
    }
    std::vector<double> ratios;
    for (int t = 0; t < kTrials; ++t) {
      ratios.push_back(trials[best][t] / trials.back()[t]);
    }
    std::printf(
        "ROUTESTAT workload=%s batch=%zu auto=%s best=%s ratio=%.2f\n",
        w.name.c_str(), width, routed_to.c_str(), arms[best].c_str(),
        MedianOf(ratios));
  }
  return all_equal;
}

bool Run() {
  PrintHeader("Evaluate kernel: naive vs compiled vs compiled+parallel");
  const size_t threads = std::thread::hardware_concurrency();
  ThreadPool pool(threads);
  std::printf("scenarios per workload: %d; pool threads: %zu\n", kScenarios,
              threads);
  std::printf("MACHINEKEY cpu=%s\n", CpuModel().c_str());
  std::printf("SIMDLANES %s\n", SimdBatchAvx2Active() ? "avx2" : "scalar");
  std::printf("%-16s %7s %10s %12s %11s %11s %11s %9s %9s\n", "workload",
              "polys", "monomials", "compile[ms]", "naive[s]", "compiled[s]",
              "parallel[s]", "speedup", "par-spdup");

  bool all_equal = true;
  for (Workload& w : StandardWorkloads()) {
    // Compile once (cached on the set afterwards — the artifact-resident
    // situation the server maintains).
    Timer compile_timer;
    std::shared_ptr<const CompiledPolynomialSet> compiled = w.polys.Compiled();
    const double compile_ms = compile_timer.ElapsedMillis();

    double t_naive = 0, t_compiled = 0, t_parallel = 0;
    std::vector<Valuation> scenarios;
    std::vector<std::vector<double>> naive_results;
    scenarios.reserve(kScenarios);
    naive_results.reserve(kScenarios);
    for (int s = 0; s < kScenarios; ++s) {
      const Valuation val = MakeScenario(w, 9000 + s);

      Timer t1;
      std::vector<double> naive;
      naive.reserve(w.polys.count());
      for (const Polynomial& p : w.polys.polynomials()) {
        naive.push_back(val.Evaluate(p));
      }
      t_naive += t1.ElapsedSeconds();

      Timer t2;
      const DenseValuation dense = compiled->MaterializeValuation(val);
      std::vector<double> fast = compiled->EvaluateAll(dense);
      t_compiled += t2.ElapsedSeconds();

      Timer t3;
      std::vector<double> par = ParallelEvaluateAll(val, w.polys, pool);
      t_parallel += t3.ElapsedSeconds();

      if (!BitwiseEqual(naive, fast) || !BitwiseEqual(naive, par)) {
        std::printf("MISMATCH in %s scenario %d\n", w.name.c_str(), s);
        all_equal = false;
      }
      scenarios.push_back(val);
      naive_results.push_back(std::move(naive));
    }

    std::printf("%-16s %7zu %10zu %12.3f %11.5f %11.5f %11.5f %8.2fx %8.2fx\n",
                w.name.c_str(), w.polys.count(), w.polys.SizeM(), compile_ms,
                t_naive, t_compiled, t_parallel,
                t_compiled > 0 ? t_naive / t_compiled : 0.0,
                t_parallel > 0 ? t_naive / t_parallel : 0.0);

    if (!RunJitArm(w, *compiled, scenarios, naive_results, t_compiled)) {
      all_equal = false;
    }
    if (!RunBatchedArm(w, *compiled, scenarios, naive_results, t_compiled)) {
      all_equal = false;
    }
    if (!RunRoutingArm(w, *compiled, scenarios, naive_results)) {
      all_equal = false;
    }
  }
  if (all_equal) {
    std::printf("all arms bitwise identical across %d scenarios/workload\n",
                kScenarios);
  }
  return all_equal;
}

}  // namespace
}  // namespace provabs::bench

int main() { return provabs::bench::Run() ? 0 : 1; }
