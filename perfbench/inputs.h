#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation. Every input is a function of --seed and is made
// in the driver with src/workload/; the server only ever receives the
// serialized bytes and program text built here.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/valid_variable_set.h"
#include "common/random.h"
#include "core/polynomial_set.h"
#include "core/variable.h"

namespace perfbench {

using Assignments = std::vector<std::pair<std::string, double>>;

/// One provenance set with the abstraction forest served over it.
struct Dataset {
  std::string description;
  std::shared_ptr<provabs::VariableTable> vars;
  provabs::PolynomialSet polys;
  provabs::AbstractionForest forest;
  std::vector<provabs::VariableId> leaves;  ///< the tree's leaf variables
  std::vector<provabs::VariableId> others;  ///< the other parameter family
  std::string leaf_prefix;                  ///< name prefix of `leaves`
  std::string tree_prefix;                  ///< meta-variable name prefix
  uint64_t min_size = 0;   ///< |P↓S|_M at maximal compression (all roots)
  uint64_t mid_bound = 0;  ///< bound at the midpoint of the feasible loss
  std::string polys_bytes;
  std::string forest_bytes;
};

/// Telephony (§4.2): 100,000 customers, 128 plans, 12 months, 100 zip
/// codes; a 4,4 tree over the plan variables.
Dataset MakeTelephonyDataset(uint64_t seed);

/// TPC-H at SF 10 for query `q` (Q5 or Q10); a 4,4 tree over the 128
/// supplier variables.
enum class Query { kQ5, kQ10 };
Dataset MakeTpchDataset(Query q, uint64_t seed);

/// Leaves of the forest's single tree that the cut keeps as themselves,
/// and leaves strictly below a chosen internal node.
void SplitLeavesByCut(const provabs::AbstractionForest& forest,
                      const provabs::ValidVariableSet& vvs,
                      std::vector<provabs::VariableId>* kept,
                      std::vector<provabs::VariableId>* below);

/// A leaf-level what-if (discounts on some tree leaves, optionally one
/// multiplier on an `others` variable) and its projection onto the
/// compressed view: each chosen node takes the mean of its leaves' values.
struct Scenario {
  Assignments full;
  Assignments compressed;
};
/// Variables absent from P (`full_vars`) or from the view (`view_vars`)
/// are never assigned: the server rejects them.
Scenario MakeScenario(provabs::Rng& rng, const Dataset& data,
                      const provabs::ValidVariableSet& cut,
                      const std::unordered_set<provabs::VariableId>& full_vars,
                      const std::unordered_set<provabs::VariableId>& view_vars);

/// A what-if over the `others` family only, valid on every compressed
/// view of the dataset whatever the cut.
Assignments MakeOthersScenario(provabs::Rng& rng, const Dataset& data);

/// A new polynomial of `monomials` terms, each `leaf` times a distinct
/// `others` variable with a seeded coefficient.
provabs::Polynomial MakeDeltaPolynomial(provabs::Rng& rng,
                                        provabs::VariableId leaf,
                                        const Dataset& data,
                                        size_t monomials);

/// Serialized single-polynomial set for an Append request.
std::string SerializeDelta(const provabs::Polynomial& poly,
                           const provabs::VariableTable& vars);

/// The `variant`-th 1000-scenario SWEEP family over a compressed view of
/// `data` (variants 0..kProgramVariants-1 are distinct texts).
inline constexpr int kProgramVariants = 4;
std::string ProgramText(int variant, const Dataset& data);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
