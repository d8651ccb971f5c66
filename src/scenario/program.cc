#include "scenario/program.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/variable.h"
#include "scenario/parser.h"

namespace provabs::scenario {

namespace {

enum class Type { kNumber, kBool };

const char* TypeName(Type t) { return t == Type::kNumber ? "number" : "bool"; }

/// Type checks `expr` and appends its postfix lowering to `ops`.
class ExprLowerer {
 public:
  ExprLowerer(const std::unordered_map<std::string, uint32_t>& params,
              size_t* error_offset)
      : params_(params), error_offset_(error_offset) {}

  StatusOr<Type> Lower(const Expr& expr, std::vector<Op>* ops) {
    switch (expr.kind) {
      case ExprKind::kNumber: {
        if (!std::isfinite(expr.number)) {
          return Fail(expr.offset, "numeric literal is not finite");
        }
        Op op;
        op.kind = Op::kPushConst;
        op.constant = expr.number;
        ops->push_back(op);
        return Type::kNumber;
      }
      case ExprKind::kParam: {
        auto it = params_.find(expr.param);
        if (it == params_.end()) {
          return Fail(expr.offset, "unknown parameter '" + expr.param +
                                       "' (declare it with LET)");
        }
        Op op;
        op.kind = Op::kPushParam;
        op.param = it->second;
        ops->push_back(op);
        return Type::kNumber;
      }
      case ExprKind::kNeg: {
        auto operand = Lower(*expr.a, ops);
        if (!operand.ok()) return operand;
        if (*operand != Type::kNumber) {
          return Fail(expr.offset, "type error: unary '-' needs a number, got " +
                                       std::string(TypeName(*operand)));
        }
        ops->push_back(Op{Op::kNeg, 0.0, 0});
        return Type::kNumber;
      }
      case ExprKind::kNot: {
        auto operand = Lower(*expr.a, ops);
        if (!operand.ok()) return operand;
        if (*operand != Type::kBool) {
          return Fail(expr.offset, "type error: NOT needs a bool, got " +
                                       std::string(TypeName(*operand)));
        }
        ops->push_back(Op{Op::kNot, 0.0, 0});
        return Type::kBool;
      }
      case ExprKind::kBinary:
        return LowerBinary(expr, ops);
      case ExprKind::kIf: {
        auto cond = Lower(*expr.a, ops);
        if (!cond.ok()) return cond;
        if (*cond != Type::kBool) {
          return Fail(expr.offset, "type error: IF condition must be bool, got " +
                                       std::string(TypeName(*cond)));
        }
        auto then_type = Lower(*expr.b, ops);
        if (!then_type.ok()) return then_type;
        auto else_type = Lower(*expr.c, ops);
        if (!else_type.ok()) return else_type;
        if (*then_type != *else_type) {
          return Fail(expr.offset,
                      "type error: THEN and ELSE branches differ (" +
                          std::string(TypeName(*then_type)) + " vs " +
                          std::string(TypeName(*else_type)) + ")");
        }
        ops->push_back(Op{Op::kSelect, 0.0, 0});
        return *then_type;
      }
    }
    return Fail(expr.offset, "internal: unhandled expression kind");
  }

 private:
  StatusOr<Type> LowerBinary(const Expr& expr, std::vector<Op>* ops) {
    auto lhs = Lower(*expr.a, ops);
    if (!lhs.ok()) return lhs;
    auto rhs = Lower(*expr.b, ops);
    if (!rhs.ok()) return rhs;
    struct Spec {
      Op::Kind op;
      const char* name;
      Type operand, result;
    };
    Spec spec{Op::kAdd, "+", Type::kNumber, Type::kNumber};
    switch (expr.op) {
      case BinaryOp::kAdd: spec = {Op::kAdd, "+", Type::kNumber, Type::kNumber}; break;
      case BinaryOp::kSub: spec = {Op::kSub, "-", Type::kNumber, Type::kNumber}; break;
      case BinaryOp::kMul: spec = {Op::kMul, "*", Type::kNumber, Type::kNumber}; break;
      case BinaryOp::kDiv: spec = {Op::kDiv, "/", Type::kNumber, Type::kNumber}; break;
      case BinaryOp::kLt: spec = {Op::kLt, "<", Type::kNumber, Type::kBool}; break;
      case BinaryOp::kLe: spec = {Op::kLe, "<=", Type::kNumber, Type::kBool}; break;
      case BinaryOp::kGt: spec = {Op::kGt, ">", Type::kNumber, Type::kBool}; break;
      case BinaryOp::kGe: spec = {Op::kGe, ">=", Type::kNumber, Type::kBool}; break;
      case BinaryOp::kEq: spec = {Op::kEq, "==", Type::kNumber, Type::kBool}; break;
      case BinaryOp::kNe: spec = {Op::kNe, "!=", Type::kNumber, Type::kBool}; break;
      case BinaryOp::kAnd: spec = {Op::kAnd, "AND", Type::kBool, Type::kBool}; break;
      case BinaryOp::kOr: spec = {Op::kOr, "OR", Type::kBool, Type::kBool}; break;
    }
    if (*lhs != spec.operand || *rhs != spec.operand) {
      return Fail(expr.offset,
                  std::string("type error: operator '") + spec.name +
                      "' needs " + TypeName(spec.operand) + " operands, got " +
                      TypeName(*lhs) + " and " + TypeName(*rhs));
    }
    ops->push_back(Op{spec.op, 0.0, 0});
    return spec.result;
  }

  Status Fail(size_t offset, const std::string& message) {
    if (error_offset_ != nullptr) *error_offset_ = offset;
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(offset));
  }

  const std::unordered_map<std::string, uint32_t>& params_;
  size_t* error_offset_;
};

double EvalOps(const std::vector<Op>& ops, const double* params,
               std::vector<double>* stack) {
  stack->clear();
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPushConst:
        stack->push_back(op.constant);
        break;
      case Op::kPushParam:
        stack->push_back(params[op.param]);
        break;
      case Op::kNeg:
        stack->back() = -stack->back();
        break;
      case Op::kNot:
        stack->back() = stack->back() != 0.0 ? 0.0 : 1.0;
        break;
      case Op::kSelect: {
        const double else_v = stack->back();
        stack->pop_back();
        const double then_v = stack->back();
        stack->pop_back();
        stack->back() = stack->back() != 0.0 ? then_v : else_v;
        break;
      }
      default: {
        const double b = stack->back();
        stack->pop_back();
        const double a = stack->back();
        double r = 0.0;
        switch (op.kind) {
          case Op::kAdd: r = a + b; break;
          case Op::kSub: r = a - b; break;
          case Op::kMul: r = a * b; break;
          case Op::kDiv: r = a / b; break;
          case Op::kLt: r = a < b ? 1.0 : 0.0; break;
          case Op::kLe: r = a <= b ? 1.0 : 0.0; break;
          case Op::kGt: r = a > b ? 1.0 : 0.0; break;
          case Op::kGe: r = a >= b ? 1.0 : 0.0; break;
          case Op::kEq: r = a == b ? 1.0 : 0.0; break;
          case Op::kNe: r = a != b ? 1.0 : 0.0; break;
          case Op::kAnd: r = (a != 0.0 && b != 0.0) ? 1.0 : 0.0; break;
          case Op::kOr: r = (a != 0.0 || b != 0.0) ? 1.0 : 0.0; break;
          default: break;  // unreachable: unary kinds handled above
        }
        stack->back() = r;
        break;
      }
    }
  }
  return stack->back();
}

Status Fail(size_t* error_offset, size_t offset, const std::string& message) {
  if (error_offset != nullptr) *error_offset = offset;
  return Status::InvalidArgument(message + " at offset " +
                                 std::to_string(offset));
}

}  // namespace

StatusOr<ParamSpace> ParamSpace::Build(const ProgramAst& ast,
                                       size_t* error_offset) {
  // Unique names, non-empty finite domains, bounded product.
  ParamSpace space;
  for (const ParamDecl& decl : ast.params) {
    if (std::find(space.names_.begin(), space.names_.end(), decl.name) !=
        space.names_.end()) {
      return Fail(error_offset, decl.offset,
                  "duplicate parameter '" + decl.name + "'");
    }
    std::vector<double> domain;
    if (decl.kind == DomainKind::kSweep) {
      if (!std::isfinite(decl.lo) || !std::isfinite(decl.hi) ||
          !std::isfinite(decl.step)) {
        return Fail(error_offset, decl.offset, "sweep bounds must be finite");
      }
      if (decl.step <= 0.0) {
        return Fail(error_offset, decl.offset, "sweep STEP must be positive");
      }
      if (decl.hi < decl.lo) {
        return Fail(error_offset, decl.offset,
                    "sweep range is empty (hi < lo)");
      }
      // Tolerate the usual float drift so 0.1..1.0 step 0.1 yields 10
      // values, not 9. Values are computed as lo + i*step, never by
      // accumulation, so every expansion of the family is identical.
      const double span = (decl.hi - decl.lo) / decl.step;
      if (span > 1e15) {
        return Fail(error_offset, decl.offset, "sweep has too many values");
      }
      const uint64_t count = static_cast<uint64_t>(span + 1e-9) + 1;
      domain.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        domain.push_back(decl.lo + static_cast<double>(i) * decl.step);
      }
    } else {
      for (double v : decl.values) {
        if (!std::isfinite(v)) {
          return Fail(error_offset, decl.offset,
                      "grid values must be finite");
        }
      }
      domain = decl.values;
    }
    if (space.scenario_count_ > kMaxScenarioFamily / domain.size()) {
      return Fail(error_offset, decl.offset,
                  "scenario family too large (limit " +
                      std::to_string(kMaxScenarioFamily) + " scenarios)");
    }
    space.scenario_count_ *= domain.size();
    space.names_.push_back(decl.name);
    space.values_.push_back(std::move(domain));
  }
  return space;
}

void ParamSpace::Decode(uint64_t index, double* out) const {
  for (size_t j = values_.size(); j-- > 0;) {
    const std::vector<double>& domain = values_[j];
    out[j] = domain[index % domain.size()];
    index /= domain.size();
  }
}

size_t ParamSpace::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& name : names_) bytes += name.size() + sizeof(name);
  for (const auto& domain : values_) {
    bytes += domain.size() * sizeof(double) + sizeof(domain);
  }
  return bytes;
}

StatusOr<ScenarioProgram> ScenarioProgram::Compile(
    std::string_view source,
    std::shared_ptr<const CompiledPolynomialSet> compiled,
    const VariableTable& vars, size_t* error_offset) {
  if (compiled == nullptr) {
    return Status::InvalidArgument(
        "scenario program needs a compiled polynomial set");
  }
  auto ast = Parse(source, error_offset);
  if (!ast.ok()) return ast.status();

  ScenarioProgram program;
  program.compiled_ = std::move(compiled);
  auto params = ParamSpace::Build(*ast, error_offset);
  if (!params.ok()) return params.status();
  program.params_ = std::move(*params);
  std::unordered_map<std::string, uint32_t> param_index;
  for (uint32_t j = 0; j < program.params_.names().size(); ++j) {
    param_index.emplace(program.params_.names()[j], j);
  }

  // Rules: type check and lower each value expression to postfix ops.
  ExprLowerer lowerer(param_index, error_offset);
  for (const Rule& rule : ast->rules) {
    std::vector<Op> ops;
    auto type = lowerer.Lower(*rule.value, &ops);
    if (!type.ok()) return type.status();
    if (*type != Type::kNumber) {
      return Fail(error_offset, rule.value->offset,
                  "type error: rule value must be a number, got bool");
    }
    program.rules_.push_back(std::move(ops));
  }

  // Selectors: resolve against the compiled slot table, first match wins.
  const std::vector<VariableId>& slots = program.compiled_->slot_variables();
  std::unordered_map<std::string_view, uint32_t> slot_by_name;
  slot_by_name.reserve(slots.size());
  for (uint32_t s = 0; s < slots.size(); ++s) {
    if (slots[s] >= vars.size()) {
      return Status::Internal(
          "compiled set references a variable outside the variable table");
    }
    slot_by_name.emplace(vars.NameOf(slots[s]), s);
  }
  program.slot_rule_.assign(slots.size(), -1);
  auto claim = [&program](uint32_t slot, int32_t rule) {
    if (program.slot_rule_[slot] < 0) program.slot_rule_[slot] = rule;
  };
  for (size_t r = 0; r < ast->rules.size(); ++r) {
    const Selector& selector = ast->rules[r].selector;
    const int32_t rule = static_cast<int32_t>(r);
    switch (selector.kind) {
      case SelectorKind::kAll:
        for (uint32_t s = 0; s < slots.size(); ++s) claim(s, rule);
        break;
      case SelectorKind::kPrefix: {
        const std::string& prefix = selector.names[0];
        for (uint32_t s = 0; s < slots.size(); ++s) {
          const std::string& name = vars.NameOf(slots[s]);
          if (name.size() >= prefix.size() &&
              name.compare(0, prefix.size(), prefix) == 0) {
            claim(s, rule);
          }
        }
        break;
      }
      case SelectorKind::kExact:
      case SelectorKind::kSet:
        for (const std::string& name : selector.names) {
          auto it = slot_by_name.find(name);
          if (it == slot_by_name.end()) {
            return Fail(error_offset, selector.offset,
                        "variable '" + name +
                            "' does not occur in the evaluated polynomials");
          }
          claim(it->second, rule);
        }
        break;
    }
  }
  return program;
}

Status ScenarioProgram::ExpandChunk(uint64_t begin, uint64_t end,
                                    std::vector<DenseValuation>* out) const {
  if (begin > end || end > scenario_count()) {
    return Status::OutOfRange("scenario chunk [" + std::to_string(begin) +
                              ", " + std::to_string(end) + ") exceeds family of " +
                              std::to_string(scenario_count()));
  }
  out->clear();
  out->reserve(static_cast<size_t>(end - begin));
  std::vector<double> params(params_.names().size());
  std::vector<double> rule_values(rules_.size());
  std::vector<double> stack;
  const size_t slot_count = compiled_->slot_count();
  for (uint64_t index = begin; index < end; ++index) {
    params_.Decode(index, params.data());
    for (size_t r = 0; r < rules_.size(); ++r) {
      rule_values[r] = EvalOps(rules_[r], params.data(), &stack);
    }
    std::vector<double> slot_values(slot_count);
    for (size_t s = 0; s < slot_count; ++s) {
      const int32_t rule = slot_rule_[s];
      slot_values[s] = rule < 0 ? 1.0 : rule_values[rule];
    }
    out->push_back(compiled_->MaterializeSlots(std::move(slot_values)));
  }
  return Status::OK();
}

size_t ScenarioProgram::ApproxBytes() const {
  size_t bytes = sizeof(*this) - sizeof(params_) + params_.ApproxBytes();
  for (const auto& ops : rules_) bytes += ops.size() * sizeof(Op) + sizeof(ops);
  bytes += slot_rule_.size() * sizeof(int32_t);
  return bytes;
}

}  // namespace provabs::scenario
