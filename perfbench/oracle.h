#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The offline oracle every server answer is checked against: a cold
// in-process `opt` compression for Compress fields, `Valuation::Evaluate`
// for values (bitwise), and a full in-process expansion of a scenario
// program for argmax answers.

#include <cstdint>
#include <string>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "algo/compressor.h"
#include "algo/tradeoff_curve.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "core/variable.h"
#include "server/wire_protocol.h"

namespace perfbench {

/// The Compress fields a response must reproduce exactly.
struct CompressExpect {
  uint64_t monomial_loss = 0;
  uint64_t variable_loss = 0;
  uint64_t compressed_monomials = 0;
  std::string vvs;
};

/// A cold `opt` compression of one key.
struct ColdCompression {
  provabs::CompressionResult result;
  provabs::PolynomialSet compressed;  ///< P↓S; empty unless applied
  CompressExpect expect;
};

/// Runs `opt` cold at `bound`. With `apply`, also builds P↓S and takes
/// `compressed_monomials` from it; otherwise from |P|_M - ML, the
/// definition of monomial loss.
provabs::StatusOr<ColdCompression> ColdCompress(
    const provabs::PolynomialSet& polys,
    const provabs::AbstractionForest& forest,
    const provabs::VariableTable& vars, uint64_t bound, bool apply);

/// "" when the response's ML, VL, compressed_monomials and vvs equal
/// `want`; otherwise a description of the first difference.
std::string CheckCompress(const provabs::Response& got,
                          const CompressExpect& want);

/// "" when `got` is bitwise equal to `want`; otherwise the first differing
/// index with both values.
std::string CheckValues(const std::vector<double>& got,
                        const std::vector<double>& want);

/// "" when both tradeoff frontiers are identical.
std::string CheckTradeoff(const std::vector<provabs::TradeoffPoint>& got,
                          const std::vector<provabs::TradeoffPoint>& want);

/// The answer an argmax-shaped EvaluateScenarioProgram must return.
struct ProgramExpect {
  uint64_t scenario_count = 0;
  uint64_t argmax = 0;
  double objective = 0.0;
  std::vector<double> values;  ///< Valuation::Evaluate of the argmax
};

/// Compiles `text` against `target`, evaluates every scenario, and picks
/// the argmax (first on ties) of the left-to-right sum of values, as the
/// server defines it. The chosen scenario's values come from
/// Valuation::Evaluate.
provabs::StatusOr<ProgramExpect> ExpectArgmax(
    const std::string& text, const provabs::PolynomialSet& target,
    const provabs::VariableTable& vars);

std::string CheckProgram(const provabs::Response& got,
                         const ProgramExpect& want);

/// Valuation from (name, value) assignments.
provabs::Valuation MakeValuation(
    const std::vector<std::pair<std::string, double>>& assignments,
    const provabs::VariableTable& vars);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
