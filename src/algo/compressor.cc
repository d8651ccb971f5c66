#include "algo/compressor.h"

#include <algorithm>
#include <utility>

#include "algo/brute_force.h"
#include "algo/greedy_multi_tree.h"
#include "algo/optimal_single_tree.h"
#include "algo/prox_summarizer.h"

namespace provabs {

// ------------------------------------------------- CompressionResult ----

PolynomialSet CompressionResult::Apply(const AbstractionForest& forest,
                                       const PolynomialSet& polys,
                                       CoefficientCombine combine) const {
  if (!grouping) return vvs.Apply(forest, polys, combine);
  return polys.MapVariables(SubstitutionFn(substitution), combine);
}

namespace {

/// The canonical display/intern name of a merged group: its member names,
/// sorted and '+'-joined. Describe (the rendered label) and InternGrouping
/// (the persisted variable name) MUST agree byte-for-byte, so both go
/// through this one function.
std::string JoinedGroupName(const std::vector<VariableId>& members,
                            const VariableTable& vars) {
  std::vector<std::string> names;
  names.reserve(members.size());
  for (VariableId member : members) names.push_back(vars.NameOf(member));
  std::sort(names.begin(), names.end());
  std::string joined = names[0];
  for (size_t i = 1; i < names.size(); ++i) joined += "+" + names[i];
  return joined;
}

/// substitution inverted: representative -> members.
std::unordered_map<VariableId, std::vector<VariableId>> GroupsOf(
    const std::unordered_map<VariableId, VariableId>& substitution) {
  std::unordered_map<VariableId, std::vector<VariableId>> groups;
  for (const auto& [member, rep] : substitution) {
    groups[rep].push_back(member);
  }
  return groups;
}

}  // namespace

std::string CompressionResult::Describe(const AbstractionForest& forest,
                                        const VariableTable& vars) const {
  if (!grouping) return vvs.ToString(forest, vars);
  // Render each group's canonical name, then sort the group strings — the
  // substitution map's iteration order must never leak into wire or cache
  // payloads.
  std::vector<std::string> rendered;
  for (const auto& [rep, members] : GroupsOf(substitution)) {
    rendered.push_back(JoinedGroupName(members, vars));
  }
  std::sort(rendered.begin(), rendered.end());
  std::string s = "{";
  for (size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) s += ", ";
    s += rendered[i];
  }
  s += "}";
  return s;
}

void CompressionResult::InternGrouping(VariableTable& vars) {
  if (!grouping) return;
  // A singleton group whose representative IS its member is already
  // table-resident; everything else gets its canonical joined name.
  for (const auto& [rep, members] : GroupsOf(substitution)) {
    if (members.size() == 1 && members[0] == rep) continue;
    VariableId interned = vars.Intern(JoinedGroupName(members, vars));
    for (VariableId member : members) substitution[member] = interned;
  }
}

// ------------------------------------------------- builtin adapters -----

namespace {

class OptCompressor : public Compressor {
 public:
  const CompressorInfo& info() const override {
    static const CompressorInfo kInfo{
        "opt", "optimal single-tree DP (Algorithm 1)", /*deterministic=*/true,
        /*supports_tradeoff=*/true, /*exact=*/true, /*produces_cut=*/true,
        /*supports_time_budget=*/true};
    return kInfo;
  }

  StatusOr<CompressionResult> Compress(
      const PolynomialSet& polys, const AbstractionForest& forest,
      const CompressOptions& options) const override {
    OptimalOptions opt;
    if (options.time_budget_ms > 0) {
      opt.deadline = Deadline::AfterMillis(options.time_budget_ms);
    }
    return OptimalSingleTree(polys, forest, options.root, options.bound, opt);
  }
};

class GreedyCompressor : public Compressor {
 public:
  const CompressorInfo& info() const override {
    static const CompressorInfo kInfo{
        "greedy", "greedy multi-tree heuristic (Algorithm 2)",
        /*deterministic=*/true, /*supports_tradeoff=*/false,
        /*exact=*/false, /*produces_cut=*/true,
        /*supports_time_budget=*/true};
    return kInfo;
  }

  StatusOr<CompressionResult> Compress(
      const PolynomialSet& polys, const AbstractionForest& forest,
      const CompressOptions& options) const override {
    GreedyOptions greedy;
    if (options.time_budget_ms > 0) {
      greedy.deadline = Deadline::AfterMillis(options.time_budget_ms);
    }
    return GreedyMultiTree(polys, forest, options.bound, greedy);
  }
};

class BruteCompressor : public Compressor {
 public:
  const CompressorInfo& info() const override {
    static const CompressorInfo kInfo{
        "brute", "exhaustive cut enumeration (ground-truth baseline)",
        /*deterministic=*/true, /*supports_tradeoff=*/false,
        /*exact=*/true, /*produces_cut=*/true,
        /*supports_time_budget=*/true};
    return kInfo;
  }

  StatusOr<CompressionResult> Compress(
      const PolynomialSet& polys, const AbstractionForest& forest,
      const CompressOptions& options) const override {
    BruteForceOptions brute;
    if (options.time_budget_ms > 0) {
      brute.deadline = Deadline::AfterMillis(options.time_budget_ms);
    }
    return BruteForce(polys, forest, options.bound, brute);
  }
};

class ProxCompressor : public Compressor {
 public:
  const CompressorInfo& info() const override {
    static const CompressorInfo kInfo{
        "prox", "pairwise-merge summarizer of Ainy et al. (competitor)",
        /*deterministic=*/true, /*supports_tradeoff=*/false,
        /*exact=*/false, /*produces_cut=*/false,
        /*supports_time_budget=*/true};
    return kInfo;
  }

  StatusOr<CompressionResult> Compress(
      const PolynomialSet& polys, const AbstractionForest& forest,
      const CompressOptions& options) const override {
    ProxOptions prox;
    if (options.time_budget_ms > 0) {
      prox.deadline = Deadline::AfterMillis(options.time_budget_ms);
    }
    auto result = ProxSummarize(polys, forest, options.bound, prox);
    if (!result.ok()) return result.status();
    CompressionResult unified;
    unified.loss = result->loss;
    unified.adequate = result->adequate;
    unified.grouping = true;
    unified.substitution = std::move(result->substitution);
    return unified;
  }
};

}  // namespace

// ------------------------------------------------- registry -------------

CompressorRegistry& CompressorRegistry::Default() {
  static CompressorRegistry* registry = [] {
    auto* r = new CompressorRegistry();
    // The built-ins carry distinct hardcoded names; registration cannot
    // fail on a fresh registry.
    Status s = RegisterBuiltinCompressors(*r);
    (void)s;
    return r;
  }();
  return *registry;
}

Status RegisterBuiltinCompressors(CompressorRegistry& registry) {
  Status s = registry.Register(std::make_unique<OptCompressor>());
  if (!s.ok()) return s;
  s = registry.Register(std::make_unique<GreedyCompressor>());
  if (!s.ok()) return s;
  s = registry.Register(std::make_unique<BruteCompressor>());
  if (!s.ok()) return s;
  return registry.Register(std::make_unique<ProxCompressor>());
}

}  // namespace provabs
