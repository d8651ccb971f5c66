#ifndef PROVABS_SCENARIO_PROGRAM_H_
#define PROVABS_SCENARIO_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"
#include "scenario/ast.h"

namespace provabs {
class VariableTable;
}  // namespace provabs

namespace provabs::scenario {

/// Hard ceiling on a program's scenario family (the Cartesian product of
/// its LET domains). Serving tiers impose their own, smaller limit; this
/// one guards the arithmetic.
inline constexpr uint64_t kMaxScenarioFamily = uint64_t{1} << 32;

/// One stack-machine instruction of a lowered rule expression. Semantic
/// analysis flattens the typed AST into postfix ops so per-scenario
/// evaluation is a loop over a flat array — no tree walk, no allocation.
/// Booleans are represented as 0.0 / 1.0; AND/OR evaluate both operands
/// (expressions are pure, so eager evaluation is observationally identical
/// to short-circuit and keeps the op stream branch-free).
struct Op {
  enum Kind : uint8_t {
    kPushConst,
    kPushParam,
    kNeg,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kLt,
    kLe,
    kGt,
    kGe,
    kEq,
    kNe,
    kAnd,
    kOr,
    kSelect,  ///< pops else, then, cond; pushes cond != 0 ? then : else
  };
  Kind kind = kPushConst;
  double constant = 0.0;  ///< kPushConst
  uint32_t param = 0;     ///< kPushParam: parameter index
};

/// The scenario space of a parsed program: its LET parameters in
/// declaration order, each with its expanded domain. The space is the
/// Cartesian product of the domains, the LAST parameter varying fastest
/// (row-major); a program with no parameters has a single scenario. It
/// depends on the program text alone, so a client holding only the
/// source can name the parameter assignment behind any scenario index a
/// server reports.
class ParamSpace {
 public:
  /// Expands the domains of `ast.params`. Fails with kInvalidArgument
  /// (byte offset in the message and in `error_offset`, when given) on a
  /// duplicate name, an empty or non-finite domain, or a product over the
  /// family-size ceiling.
  static StatusOr<ParamSpace> Build(const ProgramAst& ast,
                                    size_t* error_offset = nullptr);

  /// Total scenarios (>= 1).
  uint64_t scenario_count() const { return scenario_count_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes the parameter assignment of scenario `index` (mixed-radix
  /// decode, last parameter fastest) to `out[0..names().size())`.
  void Decode(uint64_t index, double* out) const;

  /// Rough resident size (see ScenarioProgram::ApproxBytes).
  size_t ApproxBytes() const;

 private:
  std::vector<std::string> names_;                 // declaration order
  std::vector<std::vector<double>> values_;        // domain per parameter
  uint64_t scenario_count_ = 1;
};

/// A scenario program compiled against one CompiledPolynomialSet: parse +
/// type check + selector resolution done once, after which the scenario
/// family expands lazily in chunks of fingerprint-stamped DenseValuations
/// ready for EvaluateScenarios / EvaluateBatcher.
///
/// Expansion semantics: the scenario space is the program's ParamSpace.
/// For each scenario, every rule expression is evaluated once under the
/// parameter assignment; each variable takes the value of the FIRST rule
/// whose selector matches its name, or 1.0 if none does.
///
/// Instances are immutable after Compile and safe to share across threads;
/// the serving tier caches them in ArtifactStore keyed by (artifact
/// generation, source hash).
class ScenarioProgram {
 public:
  /// Parses `source` and analyzes it against `compiled`'s slot table
  /// (variable names resolved via `vars`, which must be the table the
  /// compiled set's VariableIds index into). All errors are
  /// kInvalidArgument with a byte offset in the message; `error_offset`
  /// (optional) receives the offset for caret diagnostics.
  static StatusOr<ScenarioProgram> Compile(
      std::string_view source,
      std::shared_ptr<const CompiledPolynomialSet> compiled,
      const VariableTable& vars, size_t* error_offset = nullptr);

  /// Total scenarios in the family (>= 1; Compile rejects empty domains).
  uint64_t scenario_count() const { return params_.scenario_count(); }

  /// The program's parameters and the scenario index decode.
  const ParamSpace& params() const { return params_; }
  size_t rule_count() const { return rules_.size(); }

  /// Expands scenarios [begin, end) into `out` (cleared first), each
  /// stamped with the compiled set's fingerprint. kOutOfRange if the range
  /// exceeds scenario_count().
  Status ExpandChunk(uint64_t begin, uint64_t end,
                     std::vector<DenseValuation>* out) const;

  /// The compiled set this program was analyzed against. Expansion and
  /// evaluation must both use this snapshot: its fingerprint is what the
  /// expanded valuations carry.
  const std::shared_ptr<const CompiledPolynomialSet>& compiled() const {
    return compiled_;
  }

  /// Rough resident size, for the serving layer's byte-budget accounting.
  size_t ApproxBytes() const;

 private:
  ScenarioProgram() = default;

  std::shared_ptr<const CompiledPolynomialSet> compiled_;
  ParamSpace params_;
  std::vector<std::vector<Op>> rules_;  // lowered rule expressions
  std::vector<int32_t> slot_rule_;      // slot -> rule index, -1 = default 1.0
};

}  // namespace provabs::scenario

#endif  // PROVABS_SCENARIO_PROGRAM_H_
