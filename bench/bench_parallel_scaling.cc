/// Extension bench: multi-core scaling of the compression/evaluation
/// primitives (the paper's offline deployment runs on strong hardware
/// [24]). Sweeps the thread count for the registry-routed compression
/// (default: brute force, the one with a parallel implementation) and the
/// scenario-batch evaluation; serial equivalents included as the baseline.
/// `--algo NAME[,NAME...]` selects other registered algorithms — those
/// without a parallel variant run their serial implementation on every
/// thread count, making the flat line visible rather than implied.

#include <cstdio>
#include <string>
#include <vector>

#include "algo/compressor.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/valuation.h"
#include "parallel/parallel_compress.h"
#include "parallel/thread_pool.h"
#include "workload/tree_gen.h"

namespace provabs::bench {
namespace {

void Run(const std::vector<std::string>& algos) {
  PrintHeader("Parallel scaling: registry compression and scenario "
              "evaluation");

  Workload w = MakeTelephonyWorkload(0.5 * BenchScale());
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(*w.vars, w.tree_leaves, {2, 2}, "PSC_"));
  const size_t bound = FeasibleBound(w.polys, forest, 0.5);

  std::printf("%-24s %10s %12s\n", "primitive", "threads", "time[s]");
  for (const std::string& algo : algos) {
    const Compressor* compressor = CompressorRegistry::Default().Find(algo);
    CompressOptions options;
    options.bound = bound;
    Timer t_serial;
    auto serial = compressor->Compress(w.polys, forest, options);
    double serial_s = t_serial.ElapsedSeconds();
    std::printf("%-24s %10s %12.4f%s\n", algo.c_str(), "serial", serial_s,
                serial.ok() ? "" : " (error)");

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      Timer t;
      auto parallel = algo == "brute"
                          ? ParallelBruteForce(w.polys, forest, bound, pool)
                          : compressor->Compress(w.polys, forest, options);
      (void)parallel;
      std::printf("%-24s %10zu %12.4f\n", algo.c_str(), threads,
                  t.ElapsedSeconds());
    }
  }

  // Scenario batch evaluation.
  Valuation val;
  for (VariableId v : w.tree_leaves) val.Set(v, 0.9);
  Timer t_eval;
  auto serial_answers = val.EvaluateAll(w.polys);
  double eval_serial_s = t_eval.ElapsedSeconds();
  std::printf("%-24s %10s %12.4f\n", "evaluate-all", "serial",
              eval_serial_s);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    Timer t;
    auto answers = ParallelEvaluateAll(val, w.polys, pool);
    (void)answers;
    std::printf("%-24s %10zu %12.4f\n", "evaluate-all", threads,
                t.ElapsedSeconds());
  }
  (void)serial_answers;
}

}  // namespace
}  // namespace provabs::bench

int main(int argc, char** argv) {
  provabs::bench::Run(provabs::bench::SelectedAlgos(argc, argv, {"brute"}));
  return 0;
}
