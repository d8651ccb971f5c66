#include "core/compiled_polynomial_set.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/macros.h"
#include "core/evaluation_backend.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"

namespace provabs {

CompiledPolynomialSet CompiledPolynomialSet::Compile(
    const PolynomialSet& polys) {
  // Fingerprints start at 1 so 0 unambiguously means "never compiled"
  // (default-constructed forms and valuations).
  static std::atomic<uint64_t> next_fingerprint{1};
  CompiledPolynomialSet out;
  out.fingerprint_ = next_fingerprint.fetch_add(1, std::memory_order_relaxed);
  const size_t size_m = polys.SizeM();
  // The CSR offsets are 32-bit; provenance sets here are far below 4G
  // monomials (the serving layer's byte budget caps them long before).
  PROVABS_CHECK(size_m < 0xFFFFFFFFu);

  out.poly_offsets_.reserve(polys.count() + 1);
  out.mono_offsets_.reserve(size_m + 1);
  out.coefficients_.reserve(size_m);

  out.poly_offsets_.push_back(0);
  out.mono_offsets_.push_back(0);
  // Build-time only: the hash map is dropped after the walk; SlotOf keeps
  // the lean sorted form of the same inverse mapping.
  std::unordered_map<VariableId, uint32_t> var_slots;
  for (const Polynomial& poly : polys.polynomials()) {
    for (const Monomial& m : poly.monomials()) {
      out.coefficients_.push_back(m.coefficient());
      for (const Factor& f : m.factors()) {
        auto [it, inserted] = var_slots.emplace(
            f.var, static_cast<uint32_t>(out.slot_vars_.size()));
        if (inserted) out.slot_vars_.push_back(f.var);
        out.factor_slots_.push_back(it->second);
        out.factor_exps_.push_back(f.exp);
      }
      PROVABS_CHECK(out.factor_slots_.size() < 0xFFFFFFFFu);
      out.mono_offsets_.push_back(
          static_cast<uint32_t>(out.factor_slots_.size()));
    }
    out.poly_offsets_.push_back(
        static_cast<uint32_t>(out.coefficients_.size()));
  }
  out.slot_index_.assign(var_slots.begin(), var_slots.end());
  std::sort(out.slot_index_.begin(), out.slot_index_.end());
  out.route_memo_ = NewBackendRouteMemo();
  return out;
}

uint32_t CompiledPolynomialSet::SlotOf(VariableId var) const {
  auto it = std::lower_bound(
      slot_index_.begin(), slot_index_.end(), var,
      [](const std::pair<VariableId, uint32_t>& entry, VariableId v) {
        return entry.first < v;
      });
  return it != slot_index_.end() && it->first == var ? it->second : kNoSlot;
}

DenseValuation CompiledPolynomialSet::MaterializeValuation(
    const Valuation& valuation) const {
  DenseValuation dense;
  dense.source_fingerprint_ = fingerprint_;
  dense.values_.reserve(slot_vars_.size());
  for (VariableId var : slot_vars_) {
    dense.values_.push_back(valuation.Get(var));
  }
  return dense;
}

DenseValuation CompiledPolynomialSet::MaterializeSlots(
    std::vector<double> values) const {
  PROVABS_CHECK(values.size() == slot_vars_.size());
  DenseValuation dense;
  dense.source_fingerprint_ = fingerprint_;
  dense.values_ = std::move(values);
  return dense;
}

std::vector<double> CompiledPolynomialSet::EvaluateAll(
    const DenseValuation& dense) const {
  // A valuation materialized against a different compiled form (a mutated
  // copy, another set) would read wrong slots — or past the end of its
  // array. Mixing them is a programming error, caught here rather than
  // surfacing as silently wrong what-if answers.
  PROVABS_CHECK(dense.source_fingerprint() == fingerprint_);
  std::vector<double> out(poly_count());
  EvaluateRange(0, poly_count(), dense, out.data());
  return out;
}

size_t CompiledPolynomialSet::ApproxBytes() const {
  size_t bytes = sizeof(CompiledPolynomialSet);
  bytes += poly_offsets_.capacity() * sizeof(uint32_t);
  bytes += mono_offsets_.capacity() * sizeof(uint32_t);
  bytes += coefficients_.capacity() * sizeof(double);
  bytes += factor_slots_.capacity() * sizeof(uint32_t);
  bytes += factor_exps_.capacity() * sizeof(uint32_t);
  bytes += slot_vars_.capacity() * sizeof(VariableId);
  bytes += slot_index_.capacity() * sizeof(slot_index_[0]);
  return bytes;
}

}  // namespace provabs
