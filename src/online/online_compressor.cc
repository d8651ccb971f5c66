#include "online/online_compressor.h"

#include <algorithm>
#include <utility>

#include "algo/compressor.h"
#include "online/size_estimator.h"

namespace provabs {

StatusOr<OnlineResult> CompressOnline(const Database& db,
                                      const ProvenanceQuery& query,
                                      const AbstractionForest& forest,
                                      size_t bound_full,
                                      const OnlineOptions& options) {
  if (options.sample_rates.empty()) {
    return Status::InvalidArgument("at least one sample rate is required");
  }
  if (bound_full == 0) {
    return Status::InvalidArgument("bound must be at least 1");
  }
  std::vector<double> rates = options.sample_rates;
  std::sort(rates.begin(), rates.end());
  if (rates.front() <= 0.0 || rates.back() > 1.0) {
    return Status::InvalidArgument("sample rates must lie in (0, 1]");
  }

  // 1+2. Nested samples: run the query at each rate, recording sizes. The
  // largest sample doubles as the decision sample.
  Rng rng(options.seed);
  std::vector<SizeObservation> observations;
  PolynomialSet decision_sample;
  for (double rate : rates) {
    SampleSpec spec;
    spec.rate = rate;
    spec.sampled_tables = options.sampled_tables;
    Rng sample_rng(options.seed ^ static_cast<uint64_t>(rate * 1e6));
    Database sampled = SampleDatabase(db, spec, sample_rng);
    PolynomialSet polys = query(sampled);
    observations.push_back({rate, polys.SizeM()});
    if (rate == rates.back()) decision_sample = std::move(polys);
  }
  (void)rng;

  OnlineResult result;
  result.sample_size_m = decision_sample.SizeM();
  if (result.sample_size_m == 0) {
    return Status::FailedPrecondition(
        "the sample produced empty provenance; raise the sample rate");
  }

  // 3. Size extrapolation and bound adaptation.
  auto estimate = EstimateFullSize(observations);
  if (!estimate.ok()) return estimate.status();
  result.estimated_full_size_m = *estimate;
  result.adapted_bound = AdaptBoundToSample(bound_full, result.sample_size_m,
                                            result.estimated_full_size_m);

  // 4. Choose the abstraction on the decision sample. An explicit
  // options.algo routes through the registry; otherwise the paper's
  // heuristic picks the optimal DP for single-tree forests and greedy for
  // the rest. Either way an infeasible sample falls back to maximal
  // compression (all roots) rather than failing the pipeline.
  Status compat = forest.CheckCompatible(decision_sample);
  if (!compat.ok()) return compat;
  std::string algo_name = options.algo;
  if (algo_name.empty()) {
    algo_name =
        options.use_optimal_when_single_tree && forest.tree_count() == 1
            ? "opt"
            : "greedy";
  }
  auto compressor = CompressorRegistry::Default().Resolve(algo_name);
  if (!compressor.ok()) return compressor.status();
  if (!(*compressor)->info().produces_cut && options.vars == nullptr) {
    // Grouping representatives must be internable, or `compressed` would
    // hold ids no table can name (unserializable); checked before any
    // algorithm run so the misconfiguration fails fast.
    return Status::InvalidArgument(
        "algorithm '" + algo_name +
        "' produces a variable grouping; set OnlineOptions::vars so its "
        "group representatives can be interned");
  }
  CompressOptions copts;
  copts.bound = result.adapted_bound;
  copts.time_budget_ms = options.time_budget_ms;
  auto chosen = (*compressor)->Compress(decision_sample, forest, copts);
  if (chosen.ok()) {
    result.abstraction = std::move(*chosen);
  } else if (chosen.status().code() == StatusCode::kInfeasible) {
    result.abstraction.vvs = ValidVariableSet::AllRoots(forest);
  } else {
    return chosen.status();
  }
  if (result.abstraction.grouping) {
    if (options.vars == nullptr) {
      // Only reachable when a compressor's produces_cut metadata lied.
      return Status::Internal("algorithm '" + algo_name +
                              "' returned a grouping despite advertising "
                              "produces_cut");
    }
    result.abstraction.InternGrouping(*options.vars);
  } else {
    result.vvs = result.abstraction.vvs;
  }

  // 5. Full evaluation over the pre-grouped variable space. Running the
  // query and substituting per-annotation is equivalent to annotating the
  // inputs with meta-variables, and never stores two monomials that the
  // abstraction identifies.
  PolynomialSet full = query(db);
  result.actual_full_size_m = full.SizeM();
  result.compressed = result.abstraction.Apply(forest, full);
  result.met_bound = result.compressed.SizeM() <= bound_full;
  result.budget_exhausted = result.abstraction.budget_exhausted;
  // Retained last: the abstraction's dp_state is fingerprinted to this
  // set's revision, which is what lets AppendOnline patch instead of
  // re-running the DP.
  result.decision_sample = std::move(decision_sample);
  return result;
}

Status AppendOnline(const AbstractionForest& forest,
                    const PolynomialSet& added, size_t bound_full,
                    OnlineResult* result, const OnlineOptions& options,
                    OnlineAppendInfo* info) {
  if (info) *info = OnlineAppendInfo{};
  if (result == nullptr) {
    return Status::InvalidArgument("AppendOnline needs a prior result");
  }
  if (result->abstraction.grouping) {
    return Status::InvalidArgument(
        "grouping abstractions cannot be patched incrementally; re-run "
        "CompressOnline");
  }
  if (added.count() == 0) return Status::OK();
  Status compat = forest.CheckCompatible(added);
  if (!compat.ok()) return compat;

  const uint64_t from_revision = result->decision_sample.revision();
  for (const Polynomial& p : added.polynomials()) {
    result->decision_sample.Add(p);
  }
  result->sample_size_m = result->decision_sample.SizeM();
  // Every appended polynomial enters both the sample and the (conceptual)
  // full provenance, so both sides grow by the same amount; the original
  // adapted bound stays in force (a drifting bound would invalidate the
  // retained DP tables on every append).
  result->estimated_full_size_m += added.SizeM();
  result->actual_full_size_m += added.SizeM();

  PolynomialSetDelta delta =
      result->decision_sample.DeltaSince(from_revision);
  RecompressFallback why = RecompressFallback::kNone;
  auto patched =
      OptimalRecompress(result->decision_sample, forest, result->abstraction,
                        delta, result->adapted_bound, &why);
  CompressionResult next;
  if (patched.ok()) {
    next = std::move(*patched);
    if (info) info->patched = true;
  } else if (patched.status().code() == StatusCode::kInfeasible) {
    // Authoritative: the full DP would agree. Same fallback as the
    // pipeline's step 4 — maximal compression rather than failure.
    next.vvs = ValidVariableSet::AllRoots(forest);
  } else if (patched.status().code() == StatusCode::kFailedPrecondition) {
    if (info) info->fallback = why;
    std::string algo_name = options.algo;
    if (algo_name.empty()) {
      algo_name =
          options.use_optimal_when_single_tree && forest.tree_count() == 1
              ? "opt"
              : "greedy";
    }
    auto compressor = CompressorRegistry::Default().Resolve(algo_name);
    if (!compressor.ok()) return compressor.status();
    CompressOptions copts;
    copts.bound = result->adapted_bound;
    copts.time_budget_ms = options.time_budget_ms;
    auto full =
        (*compressor)->Compress(result->decision_sample, forest, copts);
    if (full.ok()) {
      next = std::move(*full);
    } else if (full.status().code() == StatusCode::kInfeasible) {
      next.vvs = ValidVariableSet::AllRoots(forest);
    } else {
      return full.status();
    }
  } else {
    return patched.status();
  }
  result->abstraction = std::move(next);
  result->vvs = result->abstraction.vvs;
  result->budget_exhausted = result->abstraction.budget_exhausted;

  // Step 5, streaming: group only the NEW annotations through the cut now
  // in force and append them to the running compressed output.
  PolynomialSet grouped = result->abstraction.Apply(forest, added);
  for (const Polynomial& p : grouped.polynomials()) {
    result->compressed.Add(p);
  }
  result->met_bound = result->compressed.SizeM() <= bound_full;
  return Status::OK();
}

}  // namespace provabs
