#include "oracle.h"

#include <cstring>
#include <sstream>

#include "core/compiled_polynomial_set.h"
#include "scenario/program.h"

namespace perfbench {

using provabs::Status;
using provabs::StatusOr;

StatusOr<ColdCompression> ColdCompress(
    const provabs::PolynomialSet& polys,
    const provabs::AbstractionForest& forest,
    const provabs::VariableTable& vars, uint64_t bound, bool apply) {
  const provabs::Compressor* opt =
      provabs::CompressorRegistry::Default().Find("opt");
  if (opt == nullptr) return Status::NotFound("no 'opt' compressor");
  provabs::CompressOptions options;
  options.bound = bound;
  PROVABS_ASSIGN_OR_RETURN(provabs::CompressionResult result,
                           opt->Compress(polys, forest, options));
  ColdCompression cold;
  cold.expect.monomial_loss = result.loss.monomial_loss;
  cold.expect.variable_loss = result.loss.variable_loss;
  cold.expect.vvs = result.Describe(forest, vars);
  if (apply) {
    cold.compressed = result.Apply(forest, polys);
    cold.expect.compressed_monomials = cold.compressed.SizeM();
  } else {
    cold.expect.compressed_monomials =
        polys.SizeM() - result.loss.monomial_loss;
  }
  cold.result = std::move(result);
  return cold;
}

std::string CheckCompress(const provabs::Response& got,
                          const CompressExpect& want) {
  std::ostringstream out;
  if (got.monomial_loss != want.monomial_loss) {
    out << "monomial_loss " << got.monomial_loss << " != "
        << want.monomial_loss;
  } else if (got.variable_loss != want.variable_loss) {
    out << "variable_loss " << got.variable_loss << " != "
        << want.variable_loss;
  } else if (got.compressed_monomials != want.compressed_monomials) {
    out << "compressed_monomials " << got.compressed_monomials << " != "
        << want.compressed_monomials;
  } else if (got.vvs != want.vvs) {
    out << "vvs '" << got.vvs << "' != '" << want.vvs << "'";
  }
  return out.str();
}

std::string CheckValues(const std::vector<double>& got,
                        const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return "value count " + std::to_string(got.size()) +
           " != " + std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      std::ostringstream out;
      out.precision(17);
      out << "value[" << i << "] " << got[i] << " != " << want[i];
      return out.str();
    }
  }
  return "";
}

std::string CheckTradeoff(const std::vector<provabs::TradeoffPoint>& got,
                          const std::vector<provabs::TradeoffPoint>& want) {
  if (got.size() != want.size()) {
    return "tradeoff point count " + std::to_string(got.size()) +
           " != " + std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].size_m != want[i].size_m ||
        got[i].variable_loss != want[i].variable_loss) {
      return "tradeoff point " + std::to_string(i) + " differs";
    }
  }
  return "";
}

StatusOr<ProgramExpect> ExpectArgmax(const std::string& text,
                                     const provabs::PolynomialSet& target,
                                     const provabs::VariableTable& vars) {
  std::shared_ptr<const provabs::CompiledPolynomialSet> compiled =
      target.Compiled();
  PROVABS_ASSIGN_OR_RETURN(
      provabs::scenario::ScenarioProgram program,
      provabs::scenario::ScenarioProgram::Compile(text, compiled, vars));
  ProgramExpect want;
  want.scenario_count = program.scenario_count();
  constexpr uint64_t kChunk = 256;
  bool have_best = false;
  provabs::DenseValuation best_dense;
  for (uint64_t begin = 0; begin < want.scenario_count; begin += kChunk) {
    const uint64_t end = std::min(want.scenario_count, begin + kChunk);
    std::vector<provabs::DenseValuation> chunk;
    PROVABS_RETURN_IF_ERROR(program.ExpandChunk(begin, end, &chunk));
    for (size_t i = 0; i < chunk.size(); ++i) {
      // The CSR kernel shares Valuation::Evaluate's operation order, so
      // its objectives are the naive ones; the chosen scenario's values
      // are re-derived naively below.
      double objective = 0.0;
      for (double v : compiled->EvaluateAll(chunk[i])) objective += v;
      if (!have_best || objective > want.objective) {
        have_best = true;
        want.objective = objective;
        want.argmax = begin + i;
        best_dense = chunk[i];
      }
    }
  }
  if (!have_best) return Status::InvalidArgument("empty scenario family");
  provabs::Valuation naive;
  const std::vector<provabs::VariableId>& slots = compiled->slot_variables();
  for (uint32_t s = 0; s < slots.size(); ++s) naive.Set(slots[s], best_dense[s]);
  want.values = naive.EvaluateAll(target);
  double objective = 0.0;
  for (double v : want.values) objective += v;
  if (std::memcmp(&objective, &want.objective, sizeof(double)) != 0) {
    return Status::Internal(
        "CSR kernel and Valuation::Evaluate disagree on the argmax objective");
  }
  return want;
}

std::string CheckProgram(const provabs::Response& got,
                         const ProgramExpect& want) {
  if (got.scenario_count != want.scenario_count) {
    return "scenario_count " + std::to_string(got.scenario_count) +
           " != " + std::to_string(want.scenario_count);
  }
  if (got.scenario_indices.size() != 1 || got.objectives.size() != 1) {
    return "argmax response must carry exactly one scenario";
  }
  if (got.scenario_indices[0] != want.argmax) {
    return "argmax index " + std::to_string(got.scenario_indices[0]) +
           " != " + std::to_string(want.argmax);
  }
  std::string objective = CheckValues(got.objectives, {want.objective});
  if (!objective.empty()) return "objective: " + objective;
  return CheckValues(got.values, want.values);
}

provabs::Valuation MakeValuation(
    const std::vector<std::pair<std::string, double>>& assignments,
    const provabs::VariableTable& vars) {
  provabs::Valuation val;
  for (const auto& [name, value] : assignments) val.Set(vars.Find(name), value);
  return val;
}

}  // namespace perfbench
