/// Ablation (§4.1 "Efficient ML computation"): computing the per-node
/// monomial loss by naive re-substitution (one polynomial traversal per
/// tree node) vs. the one-pass LeafResidualIndex, whose build computes
/// every node's loss (the index arm times the build plus a lookup per
/// node). The index turns an O(nodes · |P|_M) scheme into
/// O(|P|_M + nodes) and is the reason Algorithm 1 scales to the paper's
/// workloads.

#include <benchmark/benchmark.h>

#include "abstraction/loss.h"
#include "bench/bench_util.h"
#include "workload/tree_gen.h"

namespace provabs::bench {
namespace {

struct Setup {
  Workload workload;
  AbstractionForest forest;

  Setup() : workload(MakeTelephonyWorkload(0.25)) {
    forest.AddTree(BuildUniformTree(*workload.vars, workload.tree_leaves,
                                    {4, 4}, "AB_"));
  }
};

Setup& GetSetup() {
  static Setup* setup = new Setup();
  return *setup;
}

void BM_NaivePerNodeML(benchmark::State& state) {
  Setup& s = GetSetup();
  const AbstractionTree& tree = s.forest.tree(0);
  for (auto _ : state) {
    size_t total = 0;
    for (NodeIndex v = 0; v < tree.node_count(); ++v) {
      if (tree.node(v).is_leaf()) continue;
      // Cut = {v} plus every leaf outside v's subtree; full re-application.
      ValidVariableSet vvs;
      vvs.Add(NodeRef{0, v});
      const auto& node = tree.node(v);
      for (uint32_t i = 0; i < tree.leaves().size(); ++i) {
        if (i >= node.leaf_begin && i < node.leaf_end) continue;
        vvs.Add(NodeRef{0, tree.leaves()[i]});
      }
      total += ComputeLossNaive(s.workload.polys, s.forest, vvs)
                   .monomial_loss;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_NaivePerNodeML)->Unit(benchmark::kMillisecond);

void BM_ResidualIndexML(benchmark::State& state) {
  Setup& s = GetSetup();
  const AbstractionTree& tree = s.forest.tree(0);
  for (auto _ : state) {
    LeafResidualIndex index(s.workload.polys, tree);
    size_t total = 0;
    for (NodeIndex v = 0; v < tree.node_count(); ++v) {
      if (tree.node(v).is_leaf()) continue;
      total += index.NodeLoss(v).monomial_loss;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ResidualIndexML)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace provabs::bench

BENCHMARK_MAIN();
