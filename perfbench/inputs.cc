#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "abstraction/loss.h"
#include "engine/table.h"
#include "io/serializer.h"
#include "workload/telephony.h"
#include "workload/tpch.h"
#include "workload/tree_gen.h"

namespace perfbench {

using provabs::AbstractionForest;
using provabs::AbstractionTree;
using provabs::PolynomialSet;
using provabs::VariableId;

namespace {

/// Builds the forest and the wire bytes, then rebuilds the dataset from
/// those bytes exactly as provabs_server's Load does, so the oracle's
/// variable ids, and with them every monomial order and floating-point
/// summation order, are the server's.
void Finish(Dataset& data) {
  data.forest.AddTree(provabs::BuildUniformTree(*data.vars, data.leaves,
                                                {4, 4}, data.tree_prefix));
  data.polys_bytes = provabs::SerializePolynomialSet(data.polys, *data.vars);
  data.forest_bytes = provabs::SerializeForest(data.forest, *data.vars);

  auto vars = std::make_shared<provabs::VariableTable>();
  auto polys = provabs::DeserializePolynomialSet(data.polys_bytes, *vars);
  auto forest = provabs::DeserializeForest(data.forest_bytes, *vars);
  if (!polys.ok() || !forest.ok()) {
    std::fprintf(stderr, "dataset does not round-trip through the wire\n");
    std::abort();
  }
  auto remap = [&](const std::vector<VariableId>& ids) {
    std::vector<VariableId> out;
    for (VariableId id : ids) {
      const VariableId mapped = vars->Find(data.vars->NameOf(id));
      if (mapped != provabs::kInvalidVariable) out.push_back(mapped);
    }
    return out;
  };
  data.leaves = remap(data.leaves);
  data.others = remap(data.others);
  data.vars = std::move(vars);
  data.polys = std::move(*polys);
  data.forest = std::move(*forest);

  const provabs::LossReport max_loss = provabs::ComputeLossNaive(
      data.polys, data.forest,
      provabs::ValidVariableSet::AllRoots(data.forest));
  data.min_size = data.polys.SizeM() - max_loss.monomial_loss;
  data.mid_bound = data.polys.SizeM() - max_loss.monomial_loss / 2;
  data.description += ": " + std::to_string(data.polys.count()) +
                      " polynomials, " + std::to_string(data.polys.SizeM()) +
                      " monomials, " + std::to_string(data.polys.SizeV()) +
                      " variables";
}

}  // namespace

Dataset MakeTelephonyDataset(uint64_t seed) {
  Dataset data;
  data.description = "telephony (100000 customers, 128 plans, 12 months)";
  data.vars = std::make_shared<provabs::VariableTable>();
  provabs::TelephonyConfig config;
  config.num_customers = 100'000;
  config.num_plans = 128;
  config.num_months = 12;
  config.num_zip_codes = 100;
  config.seed = seed;
  provabs::Rng rng(config.seed);
  provabs::Database db = provabs::GenerateTelephony(config, rng);
  provabs::TelephonyVars tv = provabs::MakeTelephonyVars(*data.vars, config);
  data.polys = provabs::RunTelephonyQuery(db, tv);
  data.leaves = tv.plan_vars;
  data.others = tv.month_vars;
  data.leaf_prefix = "plan";
  data.tree_prefix = "W_";
  Finish(data);
  return data;
}

Dataset MakeTpchDataset(Query q, uint64_t seed) {
  Dataset data;
  data.description = q == Query::kQ5 ? "TPC-H Q5 at SF 10" : "TPC-H Q10 at SF 10";
  data.vars = std::make_shared<provabs::VariableTable>();
  provabs::TpchConfig config;
  config.scale_factor = 10.0;
  config.seed = seed;
  provabs::Rng rng(config.seed);
  provabs::Database db = provabs::GenerateTpch(config, rng);
  provabs::TpchVars tv = provabs::MakeTpchVars(*data.vars, 128);
  data.polys = provabs::RunTpchQuery(
      q == Query::kQ5 ? provabs::TpchQuery::kQ5 : provabs::TpchQuery::kQ10,
      db, tv);
  data.leaves = tv.supplier_vars;
  data.others = tv.part_vars;
  data.leaf_prefix = "s";
  data.tree_prefix = "T_";
  Finish(data);
  return data;
}

void SplitLeavesByCut(const AbstractionForest& forest,
                      const provabs::ValidVariableSet& vvs,
                      std::vector<VariableId>* kept,
                      std::vector<VariableId>* below) {
  const AbstractionTree& tree = forest.tree(0);
  for (const provabs::NodeRef& ref : vvs.nodes()) {
    const AbstractionTree::Node& node = tree.node(ref.node);
    std::vector<VariableId>* out = node.is_leaf() ? kept : below;
    for (uint32_t i = node.leaf_begin; i < node.leaf_end; ++i) {
      out->push_back(tree.node(tree.leaves()[i]).label);
    }
  }
}

Scenario MakeScenario(provabs::Rng& rng, const Dataset& data,
                      const provabs::ValidVariableSet& cut,
                      const std::unordered_set<VariableId>& full_vars,
                      const std::unordered_set<VariableId>& view_vars) {
  const provabs::VariableTable& vars = *data.vars;
  const AbstractionTree& tree = data.forest.tree(0);
  std::vector<double> leaf_value(tree.leaves().size(), 1.0);
  const size_t picks = static_cast<size_t>(rng.UniformInt(4, 16));
  for (size_t k = 0; k < picks; ++k) {
    const size_t i = rng.Uniform(leaf_value.size());
    leaf_value[i] = 0.5 + 0.05 * static_cast<double>(rng.Uniform(10));
  }
  Scenario s;
  for (size_t i = 0; i < leaf_value.size(); ++i) {
    const VariableId label = tree.node(tree.leaves()[i]).label;
    if (leaf_value[i] != 1.0 && full_vars.count(label) != 0) {
      s.full.emplace_back(vars.NameOf(label), leaf_value[i]);
    }
  }
  for (const provabs::NodeRef& ref : cut.nodes()) {
    const AbstractionTree::Node& node = tree.node(ref.node);
    double sum = 0.0;
    bool touched = false;
    for (uint32_t i = node.leaf_begin; i < node.leaf_end; ++i) {
      sum += leaf_value[i];
      touched = touched || leaf_value[i] != 1.0;
    }
    if (touched && view_vars.count(node.label) != 0) {
      s.compressed.emplace_back(vars.NameOf(node.label),
                                sum / static_cast<double>(node.leaf_count()));
    }
  }
  if (rng.Bernoulli(0.5)) {
    const VariableId other = data.others[rng.Uniform(data.others.size())];
    const double factor = rng.Bernoulli(0.5) ? 1.1 : 0.9;
    if (full_vars.count(other) != 0) {
      s.full.emplace_back(vars.NameOf(other), factor);
      s.compressed.emplace_back(vars.NameOf(other), factor);
    }
  }
  return s;
}

Assignments MakeOthersScenario(provabs::Rng& rng, const Dataset& data) {
  std::unordered_set<VariableId> present = data.polys.Variables();
  Assignments out;
  const size_t picks = static_cast<size_t>(rng.UniformInt(2, 8));
  for (size_t k = 0; k < picks; ++k) {
    const VariableId var = data.others[rng.Uniform(data.others.size())];
    if (present.count(var) == 0) continue;
    out.emplace_back(data.vars->NameOf(var),
                     0.5 + 0.05 * static_cast<double>(rng.Uniform(10)));
  }
  return out;
}

provabs::Polynomial MakeDeltaPolynomial(provabs::Rng& rng, VariableId leaf,
                                        const Dataset& data,
                                        size_t monomials) {
  std::vector<VariableId> others = data.others;
  rng.Shuffle(others);
  std::vector<provabs::Monomial> terms;
  for (size_t k = 0; k < monomials && k < others.size(); ++k) {
    const double coefficient =
        static_cast<double>(rng.UniformInt(1, 1000)) + 0.25;
    terms.emplace_back(coefficient,
                       std::vector<provabs::Factor>{{leaf, 1}, {others[k], 1}});
  }
  return provabs::Polynomial::FromMonomials(std::move(terms));
}

std::string SerializeDelta(const provabs::Polynomial& poly,
                           const provabs::VariableTable& vars) {
  return provabs::SerializePolynomialSet(PolynomialSet({poly}), vars);
}

std::string ProgramText(int variant, const Dataset& data) {
  const std::string sweep = "LET d = SWEEP(0.50 .. 1.49 STEP 0.01); ";
  const std::string grid =
      "LET q = GRID(0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, "
      "1.25); ";
  const std::string& tree = data.tree_prefix;
  const std::string& leaf = data.leaf_prefix;
  const provabs::VariableTable& vars = *data.vars;
  switch (variant) {
    case 0:
      return sweep + grid + "SET PREFIX(" + tree + ") = d; SET PREFIX(" +
             leaf + "1) = q; SET * = 1;";
    case 1:
      return sweep + grid + "SET PREFIX(" + leaf + ") = d; SET IN(" +
             vars.NameOf(data.others[0]) + ", " +
             vars.NameOf(data.others[1]) + ", " +
             vars.NameOf(data.others[2]) + ") = q;";
    case 2:
      return sweep + grid + "SET PREFIX(" + tree +
             "L1) = IF d < 1 THEN d ELSE 2 - d; SET PREFIX(" + leaf +
             "2) = q * d; SET * = 1;";
    default:
      return sweep + grid + "SET * = d * q;";
  }
}

}  // namespace perfbench
