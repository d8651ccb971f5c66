#include "jit/code_generator.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "jit/x86_encoder.h"

namespace provabs {
namespace jit {

namespace {

/// Register plan shared by every emitted function. xmm0 doubles as the
/// accumulator and the SysV return register, so the final addsd leaves the
/// result exactly where `ret` needs it.
constexpr Xmm kTotal = Xmm::xmm0;   // running sum over monomials
constexpr Xmm kTerm = Xmm::xmm1;    // current monomial's product
constexpr Xmm kFactor = Xmm::xmm2;  // loaded slot value
constexpr Gp64 kSlots = Gp64::rdi;  // const double* slots (argument 0)
constexpr Gp64 kOut = Gp64::rsi;    // double* out (range function only)

/// Emits polynomial p's evaluation into kTotal: zero the accumulator, then
/// per monomial materialize the coefficient and multiply factors in the
/// canonical order. Shared by the per-polynomial functions (which follow
/// it with ret) and the full-set range function (which follows it with a
/// store to out[p]).
void EmitPolyBody(X86Encoder& enc, const CompiledPolynomialSet::CsrView& csr,
                  size_t p) {
  // total = 0.0 — xorpd produces +0.0, the same bits the interpreter's
  // accumulator initializer does.
  enc.XorpdZero(kTotal);
  for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
    // term = coefficient, raw IEEE-754 bits embedded as an imm64.
    uint64_t coeff_bits;
    std::memcpy(&coeff_bits, &csr.coefficients[m], sizeof(coeff_bits));
    enc.MovRaxImm64(coeff_bits);
    enc.MovqFromRax(kTerm);
    for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1]; ++f) {
      enc.MovsdLoad(kFactor, kSlots,
                    static_cast<int32_t>(uint64_t{csr.factor_slots[f]} * 8));
      // Exponentiation by repeated multiplication, one mulsd per step —
      // the canonical order (never pow, never a square-and-multiply
      // reassociation).
      for (uint32_t e = 0; e < csr.factor_exps[f]; ++e) {
        enc.Mulsd(kTerm, kFactor);
      }
    }
    enc.Addsd(kTotal, kTerm);
  }
}

/// Bytes of a movsd to or from [reg + disp] with a non-rbp base, as
/// X86Encoder encodes it: three opcode bytes, ModRM, and no, one or four
/// displacement bytes.
uint64_t MovsdBytes(uint64_t disp) {
  return disp == 0 ? 4 : disp <= 127 ? 5 : 8;
}

/// The exact size of the blob GeneratePolynomialSetCode emits, from the CSR
/// arrays alone. Every polynomial body is emitted twice (in its own
/// function and in the range function): xorpd (4) per body; mov rax,imm64
/// (10) + movq (5) + addsd (4) per monomial; a slot load plus one mulsd (4)
/// per multiplication per factor. Then a ret per polynomial function, a
/// store per range-function result, and the range function's ret.
uint64_t CodeBytes(const CompiledPolynomialSet& compiled) {
  const CompiledPolynomialSet::CsrView csr = compiled.csr();
  const uint64_t polys = compiled.poly_count();
  uint64_t body = 4 * polys + 19 * uint64_t{compiled.monomial_count()};
  for (size_t f = 0; f < compiled.factor_count(); ++f) {
    body += MovsdBytes(uint64_t{csr.factor_slots[f]} * 8) +
            4 * uint64_t{csr.factor_exps[f]};
  }
  uint64_t stores = 0;
  for (uint64_t p = 0; p < polys; ++p) stores += MovsdBytes(p * 8);
  return 2 * body + polys + stores + 1;
}

}  // namespace

StatusOr<GeneratedCode> GeneratePolynomialSetCode(
    const CompiledPolynomialSet& compiled, size_t max_code_bytes) {
  const CompiledPolynomialSet::CsrView csr = compiled.csr();
  const size_t poly_count = compiled.poly_count();

  // Every slot load and every out[p] store must be reachable as an
  // 8-byte-strided disp32.
  const uint64_t max_index =
      std::max<uint64_t>(compiled.slot_count(), poly_count);
  if (max_index > 0 &&
      (max_index - 1) * 8 > uint64_t{std::numeric_limits<int32_t>::max()}) {
    return Status::OutOfRange("slot offsets exceed disp32 addressing (" +
                              std::to_string(max_index) + " slots)");
  }

  // The size is known up front, so an over-cap set is refused before any
  // code is generated.
  const uint64_t code_bytes = CodeBytes(compiled);
  if (code_bytes > max_code_bytes) {
    return Status::OutOfRange("generated code would exceed the per-set cap (" +
                              std::to_string(code_bytes) + " > " +
                              std::to_string(max_code_bytes) + " bytes)");
  }

  X86Encoder enc;
  GeneratedCode out;
  out.entry_offsets.reserve(poly_count);
  for (size_t p = 0; p < poly_count; ++p) {
    out.entry_offsets.push_back(enc.size());
    EmitPolyBody(enc, csr, p);
    enc.Ret();
  }
  // The full-set range function: every body again, results stored to
  // out[p] instead of returned. Roughly doubles the blob (still linear in
  // the set's factor count).
  out.range_entry = enc.size();
  for (size_t p = 0; p < poly_count; ++p) {
    EmitPolyBody(enc, csr, p);
    enc.MovsdStore(kOut, static_cast<int32_t>(uint64_t{p} * 8), kTotal);
  }
  enc.Ret();
  out.code = enc.TakeCode();
  return out;
}

}  // namespace jit
}  // namespace provabs
