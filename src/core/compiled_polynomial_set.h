#ifndef PROVABS_CORE_COMPILED_POLYNOMIAL_SET_H_
#define PROVABS_CORE_COMPILED_POLYNOMIAL_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/variable.h"

namespace provabs {

class PolynomialSet;
class Valuation;
class CompiledPolynomialSet;
class BackendRouteMemo;  // core/evaluation_backend.h

/// A Valuation materialized against one CompiledPolynomialSet: a flat
/// slot-indexed value array, so the evaluation inner loop reads values by
/// array index instead of probing a hash map per factor. Slots are the
/// compiled set's dense variable indices; a DenseValuation is only
/// meaningful together with the compiled set that produced it — it carries
/// that set's fingerprint so batch entry points can reject a stale or
/// foreign valuation (e.g. one materialized before a copied set was
/// mutated and recompiled) instead of silently mis-indexing.
class DenseValuation {
 public:
  DenseValuation() = default;

  /// Value of slot `s` (variables the source Valuation did not assign hold
  /// the default 1.0).
  double operator[](uint32_t slot) const { return values_[slot]; }

  size_t slot_count() const { return values_.size(); }

  /// Raw slot array, for batched backends that transpose valuations into
  /// structure-of-arrays lanes (core/evaluation_backend.h).
  const double* data() const { return values_.data(); }

  /// Fingerprint of the CompiledPolynomialSet this was materialized
  /// against (0 for a default-constructed valuation). Evaluating under any
  /// other compiled form is a slot-mapping mismatch.
  uint64_t source_fingerprint() const { return source_fingerprint_; }

 private:
  friend class CompiledPolynomialSet;
  std::vector<double> values_;
  uint64_t source_fingerprint_ = 0;
};

/// A PolynomialSet flattened into CSR-style contiguous arrays for fast
/// repeated evaluation — the operation the paper's abstraction exists to
/// speed up (Fig. 10). The nested
/// `vector<Polynomial> → vector<Monomial> → vector<Factor>` representation
/// pointer-chases three levels and hashes once per factor; the compiled
/// form walks four flat arrays sequentially:
///
///   poly_offsets_[p] .. poly_offsets_[p+1]   — monomial range of poly p
///   mono_offsets_[m] .. mono_offsets_[m+1]   — factor range of monomial m
///   coefficients_[m]                          — monomial coefficient
///   factor_slots_[f], factor_exps_[f]         — dense variable slot + exp
///
/// Slots are dense indices assigned at compile time in first-appearance
/// order; `MaterializeValuation` resolves a scenario's hash map into a
/// slot-indexed array once per valuation instead of once per factor.
///
/// Evaluation reproduces the canonical summation order of
/// `Valuation::Evaluate` operation-for-operation (monomials left to right,
/// factors left to right, exponents by repeated multiplication), so results
/// are bitwise identical to the naive path — differential tests assert
/// exact equality, not tolerance.
///
/// Instances are immutable after `Compile` and safe to share across
/// threads.
class CompiledPolynomialSet {
 public:
  CompiledPolynomialSet() = default;

  /// Flattens `polys`. The compiled form is a snapshot: later mutation of
  /// `polys` is not reflected (PolynomialSet's lazy `Compiled()` cache
  /// handles invalidation for the common route).
  static CompiledPolynomialSet Compile(const PolynomialSet& polys);

  /// Number of polynomials (matches the source set's count()).
  size_t poly_count() const {
    return poly_offsets_.empty() ? 0 : poly_offsets_.size() - 1;
  }

  /// Total monomials (|P|_M) and factors across the set.
  size_t monomial_count() const { return coefficients_.size(); }
  size_t factor_count() const { return factor_slots_.size(); }

  /// Number of distinct variables (= slots) in the set.
  size_t slot_count() const { return slot_vars_.size(); }

  /// slot -> VariableId, in slot order.
  const std::vector<VariableId>& slot_variables() const { return slot_vars_; }

  /// Returned by SlotOf for a variable the set never mentions.
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  /// VariableId -> slot, or kNoSlot when no monomial of the set has the
  /// variable as a factor (the same membership as PolynomialSet::Variables,
  /// without scanning the monomials). O(log slots) against an index built
  /// once by Compile.
  uint32_t SlotOf(VariableId var) const;

  /// Process-unique id of this compiled form, assigned by `Compile` (0 only
  /// for a default-constructed instance). Two forms compiled from
  /// identical polynomials still get distinct fingerprints: the fingerprint
  /// identifies the slot mapping a DenseValuation was materialized against,
  /// and "same mapping" is only guaranteed for the SAME compiled snapshot
  /// (which copies of a PolynomialSet share — see PolynomialSet::Compiled).
  uint64_t fingerprint() const { return fingerprint_; }

  /// Borrowed pointers into the CSR arrays, for evaluation backends
  /// (core/evaluation_backend.h) and the future JIT that walk the layout
  /// directly. Valid for this object's lifetime.
  struct CsrView {
    const uint32_t* poly_offsets;  ///< size poly_count()+1
    const uint32_t* mono_offsets;  ///< size monomial_count()+1
    const double* coefficients;    ///< per monomial
    const uint32_t* factor_slots;  ///< per factor
    const uint32_t* factor_exps;   ///< per factor
  };
  CsrView csr() const {
    return CsrView{poly_offsets_.data(), mono_offsets_.data(),
                   coefficients_.data(), factor_slots_.data(),
                   factor_exps_.data()};
  }

  /// Resolves `valuation` into a slot-indexed array: one hash probe per
  /// distinct variable of the set, 1.0 for unassigned slots. Variables the
  /// valuation assigns but the set never mentions have no slot and are
  /// ignored — exactly the naive path's behaviour.
  DenseValuation MaterializeValuation(const Valuation& valuation) const;

  /// Builds a DenseValuation directly from a per-slot value array (entry i
  /// is the value of slot_variables()[i]) — the batch-expansion entry point
  /// for generated scenario families (scenario/program.h), which produce
  /// slot-ordered values natively and should not pay a hash probe per
  /// variable. Checks (aborts) that `values` has exactly slot_count()
  /// entries.
  DenseValuation MaterializeSlots(std::vector<double> values) const;

  /// Evaluates polynomial `p` under `dense`; bitwise identical to
  /// `Valuation::Evaluate` on the source polynomial.
  double EvaluateOne(size_t p, const DenseValuation& dense) const {
    double total = 0.0;
    for (uint32_t m = poly_offsets_[p]; m < poly_offsets_[p + 1]; ++m) {
      double term = coefficients_[m];
      for (uint32_t f = mono_offsets_[m]; f < mono_offsets_[m + 1]; ++f) {
        const double v = dense[factor_slots_[f]];
        // Exponents are small (bounded by the query's join arity); repeated
        // multiplication beats std::pow AND matches the naive path's
        // operation order exactly.
        for (uint32_t e = 0; e < factor_exps_[f]; ++e) term *= v;
      }
      total += term;
    }
    return total;
  }

  /// Evaluates polynomials [begin, end) into out[0..end-begin); the chunked
  /// entry point for parallel and batched evaluation (a contiguous
  /// polynomial range is a contiguous walk of the flat arrays).
  void EvaluateRange(size_t begin, size_t end, const DenseValuation& dense,
                     double* out) const {
    for (size_t p = begin; p < end; ++p) {
      out[p - begin] = EvaluateOne(p, dense);
    }
  }

  /// Evaluates every polynomial; out[i] is the value of polynomial i.
  /// Checks (aborts) that `dense` was materialized from THIS compiled form;
  /// backends report the same condition as a recoverable Status instead.
  std::vector<double> EvaluateAll(const DenseValuation& dense) const;

  /// Rough resident size, for the serving layer's byte-budget accounting.
  size_t ApproxBytes() const;

  /// Auto-routing's memo for this snapshot (core/evaluation_backend.h):
  /// which backend measured fastest for each batch-width class. Created by
  /// Compile, shared by copies (they are the same snapshot, fingerprint
  /// included) and freed with the last of them. Routing state, not part of
  /// the compiled value: null for a default-constructed instance.
  const std::shared_ptr<BackendRouteMemo>& route_memo() const {
    return route_memo_;
  }

 private:
  std::vector<uint32_t> poly_offsets_;  // size poly_count()+1
  std::vector<uint32_t> mono_offsets_;  // size monomial_count()+1
  std::vector<double> coefficients_;    // per monomial
  std::vector<uint32_t> factor_slots_;  // per factor
  std::vector<uint32_t> factor_exps_;   // per factor
  std::vector<VariableId> slot_vars_;   // slot -> variable
  // (variable, slot) sorted by variable: SlotOf's index.
  std::vector<std::pair<VariableId, uint32_t>> slot_index_;
  uint64_t fingerprint_ = 0;            // see fingerprint()
  std::shared_ptr<BackendRouteMemo> route_memo_;
};

}  // namespace provabs

#endif  // PROVABS_CORE_COMPILED_POLYNOMIAL_SET_H_
