#include "parallel/parallel_compress.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "abstraction/cut_counter.h"
#include "abstraction/valid_variable_set.h"
#include "common/macros.h"
#include "core/compiled_polynomial_set.h"
#include "core/evaluation_backend.h"

namespace provabs {

StatusOr<CompressionResult> ParallelBruteForce(
    const PolynomialSet& polys, const AbstractionForest& forest,
    size_t bound_b, ThreadPool& pool, const BruteForceOptions& options) {
  Status compat = forest.CheckCompatible(polys);
  if (!compat.ok()) return compat;
  if (bound_b == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  double total_cuts_approx = CountForestCutsApprox(forest);
  if (total_cuts_approx > static_cast<double>(options.max_cuts)) {
    return Status::OutOfRange("forest admits too many cuts for brute force");
  }

  const size_t size_m = polys.SizeM();
  const size_t k = bound_b >= size_m ? 0 : size_m - bound_b;

  std::vector<std::vector<std::vector<NodeIndex>>> per_tree;
  per_tree.reserve(forest.tree_count());
  uint64_t total_cuts = 1;
  for (uint32_t t = 0; t < forest.tree_count(); ++t) {
    per_tree.push_back(internal::EnumerateTreeCuts(forest.tree(t)));
    total_cuts *= per_tree.back().size();
  }

  // Each worker scans a contiguous range of the mixed-radix cut index
  // space and keeps its local best; reduce afterwards.
  struct LocalBest {
    bool found = false;
    CompressionResult result;
  };
  const size_t shards = pool.thread_count() * 4;
  std::vector<LocalBest> best_per_shard(shards);
  const uint64_t per_shard = (total_cuts + shards - 1) / shards;

  std::atomic<bool> expired{false};
  pool.ParallelFor(shards, [&](size_t shard) {
    const uint64_t begin = shard * per_shard;
    const uint64_t end = std::min<uint64_t>(total_cuts, begin + per_shard);
    LocalBest& local = best_per_shard[shard];
    for (uint64_t idx = begin; idx < end; ++idx) {
      // Same time-budget contract as the serial BruteForce: checked per
      // cut; one worker noticing expiry drains every shard promptly.
      if (expired.load(std::memory_order_relaxed)) return;
      if (options.deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      // Decode the mixed-radix index into one cut per tree.
      uint64_t rest = idx;
      std::vector<NodeRef> nodes;
      for (uint32_t t = 0; t < per_tree.size(); ++t) {
        const auto& cuts = per_tree[t];
        const auto& cut = cuts[rest % cuts.size()];
        rest /= cuts.size();
        for (NodeIndex n : cut) nodes.push_back(NodeRef{t, n});
      }
      ValidVariableSet vvs(std::move(nodes));
      LossReport loss = ComputeLossNaive(polys, forest, vvs);
      if (loss.monomial_loss < k) continue;
      if (!local.found ||
          loss.variable_loss < local.result.loss.variable_loss) {
        local.result.vvs = std::move(vvs);
        local.result.loss = loss;
        local.result.adequate = true;
        local.found = true;
      }
    }
  });

  if (expired.load(std::memory_order_relaxed)) {
    return Status::OutOfRange("brute force exceeded its time budget");
  }
  bool found = false;
  CompressionResult best;
  for (LocalBest& local : best_per_shard) {
    if (!local.found) continue;
    if (!found ||
        local.result.loss.variable_loss < best.loss.variable_loss) {
      best = std::move(local.result);
      found = true;
    }
  }
  if (!found) {
    return Status::Infeasible("no valid variable set is adequate for bound");
  }
  return best;
}

namespace {

/// Polynomials per parallel chunk. Coarse enough that chunk dispatch is
/// noise, fine enough to load-balance uneven polynomial sizes.
constexpr size_t kPolysPerChunk = 64;

size_t ChunkCount(size_t poly_count, const ThreadPool& pool) {
  const size_t by_size = (poly_count + kPolysPerChunk - 1) / kPolysPerChunk;
  return std::max<size_t>(1, std::min(by_size, pool.thread_count()));
}

}  // namespace

std::vector<double> ParallelEvaluateAll(const Valuation& valuation,
                                        const PolynomialSet& polys,
                                        ThreadPool& pool) {
  // Compile (cached on the set) and materialize the valuation once, then
  // chunk the flat CSR arrays across the pool: each worker runs one
  // contiguous polynomial range on the backend routing measured fastest
  // for this snapshot (all backends are bitwise identical by contract, so
  // the output matches Valuation::EvaluateAll exactly).
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys.Compiled();
  const DenseValuation dense = compiled->MaterializeValuation(valuation);
  std::vector<double> out(compiled->poly_count());
  StatusOr<BackendRoute> route =
      EvaluationBackendRegistry::Default().Route("", *compiled, 1);
  PROVABS_CHECK(route.ok());
  const size_t poly_count = compiled->poly_count();
  const size_t chunks = ChunkCount(poly_count, pool);
  const size_t per_chunk = (poly_count + chunks - 1) / chunks;
  pool.ParallelFor(chunks, [&](size_t chunk) {
    const size_t begin = chunk * per_chunk;
    const size_t end = std::min(poly_count, begin + per_chunk);
    if (begin >= end) return;
    const DenseValuation* scenario = &dense;
    double* out_ptr = out.data() + begin;
    Status status =
        route->EvaluateBatch(*compiled, begin, end, &scenario, &out_ptr, 1);
    PROVABS_CHECK(status.ok());
  });
  return out;
}

}  // namespace provabs
