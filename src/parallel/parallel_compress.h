#ifndef PROVABS_PARALLEL_PARALLEL_COMPRESS_H_
#define PROVABS_PARALLEL_PARALLEL_COMPRESS_H_

#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "algo/brute_force.h"
#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "parallel/thread_pool.h"

namespace provabs {

/// Multi-core variants of the compression and evaluation primitives. The
/// paper's offline deployment computes provenance on powerful hardware
/// (§1, citing the distributed-provenance line [24]); these helpers use
/// that hardware for the compression step without changing any semantics —
/// each function is bit-identical to its serial counterpart (asserted by
/// tests).

/// Exhaustive search with the cut space partitioned across the pool.
/// Results match BruteForce exactly (same optimal variable loss; the
/// witness cut may differ among ties).
StatusOr<CompressionResult> ParallelBruteForce(
    const PolynomialSet& polys, const AbstractionForest& forest,
    size_t bound_b, ThreadPool& pool, const BruteForceOptions& options = {});

/// Evaluates every polynomial under `valuation` using the pool, routing
/// contiguous polynomial chunks through the evaluation-backend registry
/// (core/evaluation_backend.h); bitwise identical to
/// Valuation::EvaluateAll.
std::vector<double> ParallelEvaluateAll(const Valuation& valuation,
                                        const PolynomialSet& polys,
                                        ThreadPool& pool);

}  // namespace provabs

#endif  // PROVABS_PARALLEL_PARALLEL_COMPRESS_H_
