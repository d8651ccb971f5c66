#ifndef PROVABS_PARALLEL_PARALLEL_COMPRESS_H_
#define PROVABS_PARALLEL_PARALLEL_COMPRESS_H_

#include <string>
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

/// Batched what-if evaluation over the pool: every scenario against every
/// polynomial of the set, through the backend chosen by
/// EvaluationBackendRegistry::Route(backend_name, snapshot, #scenarios)
/// (empty name = the backend measured fastest on this snapshot at this
/// batch width). Workers split POLYNOMIAL ranges, each carrying the full
/// scenario batch, so the backend keeps full SIMD lanes at any pool width.
/// result[s][p] = value of polynomial p under scenarios[s], bitwise
/// identical to Valuation::Evaluate. Unknown backend names fail listing the
/// registered set.
StatusOr<std::vector<std::vector<double>>> ParallelEvaluateScenarios(
    const std::vector<Valuation>& scenarios, const PolynomialSet& polys,
    ThreadPool& pool, const std::string& backend_name = "");

/// Registry-routed compression with pool acceleration where it exists:
/// "brute" runs ParallelBruteForce over `pool`; every other registered
/// algorithm resolves through CompressorRegistry::Default() and runs its
/// serial implementation (their DPs are not parallelized yet). Results
/// match the serial counterparts exactly (for "brute": same optimal
/// variable loss, witness cut may differ among ties). Unknown names fail
/// with the registry's name-listing error.
StatusOr<CompressionResult> ParallelCompress(const PolynomialSet& polys,
                                             const AbstractionForest& forest,
                                             const std::string& algo,
                                             const CompressOptions& options,
                                             ThreadPool& pool);

}  // namespace provabs

#endif  // PROVABS_PARALLEL_PARALLEL_COMPRESS_H_
