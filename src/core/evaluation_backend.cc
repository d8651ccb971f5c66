#include "core/evaluation_backend.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/macros.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"
#include "jit/jit_backend.h"

#if defined(__x86_64__) || defined(__i386__)
#define PROVABS_EVAL_X86 1
#include <immintrin.h>
#endif

namespace provabs {

// ------------------------------------------------- base validation ------

Status EvaluationBackend::EvaluateBatch(const CompiledPolynomialSet& compiled,
                                        size_t poly_begin, size_t poly_end,
                                        const DenseValuation* const* scenarios,
                                        double* const* outs,
                                        size_t scenario_count) const {
  if (poly_begin > poly_end || poly_end > compiled.poly_count()) {
    return Status::InvalidArgument("polynomial range out of bounds");
  }
  if (scenario_count == 0 || poly_begin == poly_end) return Status::OK();
  if (scenarios == nullptr || outs == nullptr) {
    return Status::InvalidArgument("null scenario/output arrays");
  }
  for (size_t s = 0; s < scenario_count; ++s) {
    if (scenarios[s] == nullptr || outs[s] == nullptr) {
      return Status::InvalidArgument("null scenario/output in batch");
    }
    // The slot-mapping guard (the bug the differential harness surfaced):
    // a DenseValuation materialized against another compiled form — e.g.
    // before a copied set was mutated and recompiled — has a different (or
    // shorter) slot array, and indexing it with THIS form's slots would
    // silently produce wrong answers or read out of bounds. Fingerprints
    // make the mismatch a recoverable error instead.
    if (scenarios[s]->source_fingerprint() != compiled.fingerprint()) {
      return Status::InvalidArgument(
          "scenario " + std::to_string(s) +
          " was materialized against a different compiled form (the set was "
          "mutated or the valuation belongs to another set) — "
          "re-materialize it against the form being evaluated");
    }
  }
  DoEvaluateBatch(compiled, poly_begin, poly_end, scenarios, outs,
                  scenario_count);
  return Status::OK();
}

namespace {

// ------------------------------------------------- builtin: compiled ----

/// PR 5's kernel behind the registry interface: per-scenario flat-array
/// walks (CompiledPolynomialSet::EvaluateRange). The single-scenario
/// baseline every batched backend is measured against.
class CompiledBackend : public EvaluationBackend {
 public:
  const EvaluationBackendInfo& info() const override {
    static const EvaluationBackendInfo kInfo{
        "compiled", "single-scenario CSR kernel (compiled evaluation)",
        /*vectorized=*/false, /*deterministic=*/true, /*preferred_batch=*/1};
    return kInfo;
  }

 protected:
  void DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                       size_t poly_begin, size_t poly_end,
                       const DenseValuation* const* scenarios,
                       double* const* outs,
                       size_t scenario_count) const override {
    for (size_t s = 0; s < scenario_count; ++s) {
      compiled.EvaluateRange(poly_begin, poly_end, *scenarios[s], outs[s]);
    }
  }
};

// ------------------------------------------------- builtin: simd_batch --

/// Lane width of the SoA layout: one AVX2 register of doubles. The scalar
/// fallback keeps the identical 4-lane structure (and is compiled
/// unconditionally), so a scalar-forced differential run still covers the
/// vector path's transpose/lane/remainder logic.
constexpr size_t kLaneWidth = 4;

/// Evaluates polynomials [poly_begin, poly_end) for one lane group.
/// `lanes` is the SoA transpose (lanes[slot * kLaneWidth + j] = slot value
/// of lane j); `outs[j]` receives lane j's values indexed from the range
/// start; only the first `live` lanes are written (remainder groups pad
/// with duplicated scenarios whose outputs are discarded).
///
/// Per lane this performs exactly the canonical operation sequence —
/// term = coefficient, term *= value (exponent times), total += term — so
/// every lane is bitwise identical to the scalar paths. No FMA: mul and
/// add stay separate operations in both implementations.
void EvalLaneGroupScalar(const CompiledPolynomialSet::CsrView& csr,
                         size_t poly_begin, size_t poly_end,
                         const double* lanes, double* const* outs,
                         size_t live) {
  for (size_t p = poly_begin; p < poly_end; ++p) {
    double total[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      const double c = csr.coefficients[m];
      double term[kLaneWidth] = {c, c, c, c};
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const double* v = lanes + size_t{csr.factor_slots[f]} * kLaneWidth;
        for (uint32_t e = 0; e < csr.factor_exps[f]; ++e) {
          for (size_t j = 0; j < kLaneWidth; ++j) term[j] *= v[j];
        }
      }
      for (size_t j = 0; j < kLaneWidth; ++j) total[j] += term[j];
    }
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = total[j];
  }
}

#if defined(PROVABS_EVAL_X86) && defined(__GNUC__)
#define PROVABS_EVAL_HAVE_AVX2 1

/// AVX2 twin of EvalLaneGroupScalar: one vmulpd/vaddpd per lane-group
/// operation. Per-element IEEE-754 semantics of packed mul/add are
/// identical to scalar mul/add (and intrinsics never contract into FMA),
/// so the bits match the scalar paths exactly. Compiled with a function-
/// level target attribute so the rest of the binary stays baseline-ISA;
/// only reached after __builtin_cpu_supports("avx2") at runtime.
__attribute__((target("avx2"))) void EvalLaneGroupAvx2(
    const CompiledPolynomialSet::CsrView& csr, size_t poly_begin,
    size_t poly_end, const double* lanes, double* const* outs, size_t live) {
  for (size_t p = poly_begin; p < poly_end; ++p) {
    __m256d total = _mm256_setzero_pd();
    for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
      __m256d term = _mm256_set1_pd(csr.coefficients[m]);
      for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1];
           ++f) {
        const __m256d v = _mm256_loadu_pd(
            lanes + size_t{csr.factor_slots[f]} * kLaneWidth);
        for (uint32_t e = 0; e < csr.factor_exps[f]; ++e) {
          term = _mm256_mul_pd(term, v);
        }
      }
      total = _mm256_add_pd(total, term);
    }
    double values[kLaneWidth];
    _mm256_storeu_pd(values, total);
    for (size_t j = 0; j < live; ++j) outs[j][p - poly_begin] = values[j];
  }
}
#endif  // PROVABS_EVAL_HAVE_AVX2

bool CpuHasAvx2() {
#if defined(PROVABS_EVAL_HAVE_AVX2)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace

bool SimdBatchAvx2Active() {
  const char* env = std::getenv("PROVABS_EVAL_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return false;
  }
  return CpuHasAvx2();
}

const EvaluationBackendInfo& SimdBatchBackend::info() const {
  static const EvaluationBackendInfo kInfo{
      "simd_batch",
      "structure-of-arrays scenario lanes over the CSR arrays "
      "(AVX2 when available, scalar lanes otherwise)",
      /*vectorized=*/true, /*deterministic=*/true, /*preferred_batch=*/8};
  return kInfo;
}

bool SimdBatchBackend::using_avx2() const {
  return mode_ == Mode::kAuto && SimdBatchAvx2Active();
}

void SimdBatchBackend::DoEvaluateBatch(const CompiledPolynomialSet& compiled,
                                       size_t poly_begin, size_t poly_end,
                                       const DenseValuation* const* scenarios,
                                       double* const* outs,
                                       size_t scenario_count) const {
  const CompiledPolynomialSet::CsrView csr = compiled.csr();
  const size_t slots = compiled.slot_count();
#if defined(PROVABS_EVAL_HAVE_AVX2)
  const bool avx2 = using_avx2();
#endif
  // One SoA transpose buffer, refilled per lane group: lanes[slot*W + j].
  // Remainder groups duplicate the group's first scenario into the dead
  // lanes (their outputs are discarded), so the kernels never branch on
  // lane liveness in the inner loops.
  std::vector<double> lanes(slots * kLaneWidth);
  for (size_t g = 0; g < scenario_count; g += kLaneWidth) {
    const size_t live = std::min(kLaneWidth, scenario_count - g);
    for (size_t j = 0; j < kLaneWidth; ++j) {
      const double* src = scenarios[g + (j < live ? j : 0)]->data();
      for (size_t slot = 0; slot < slots; ++slot) {
        lanes[slot * kLaneWidth + j] = src[slot];
      }
    }
    double* group_outs[kLaneWidth] = {nullptr, nullptr, nullptr, nullptr};
    for (size_t j = 0; j < live; ++j) group_outs[j] = outs[g + j];
#if defined(PROVABS_EVAL_HAVE_AVX2)
    if (avx2) {
      EvalLaneGroupAvx2(csr, poly_begin, poly_end, lanes.data(), group_outs,
                        live);
      continue;
    }
#endif
    EvalLaneGroupScalar(csr, poly_begin, poly_end, lanes.data(), group_outs,
                        live);
  }
}

// ------------------------------------------------- routing --------------

namespace {

/// Registry routing ids are process-unique, so a memo never mistakes a
/// new registry (or a re-registered one) for the one it measured.
uint64_t NextRoutingId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Batch-width classes: single scenarios, small coalesced groups, and
/// batches wide enough to fill SIMD lanes.
size_t WidthClassOf(size_t batch_size) {
  return batch_size <= 1 ? 0 : batch_size < 8 ? 1 : 2;
}

}  // namespace

/// For each batch-width class: the candidates' probe timings and, once
/// every candidate is measured, the backend that won.
class BackendRouteMemo {
 public:
  struct Candidate {
    const EvaluationBackend* backend = nullptr;
    uint32_t samples = 0;
    uint64_t probe_ns = 0;              ///< Summed time of the samples.
    double best_ns_per_scenario = 0.0;  ///< Fastest sample; valid if samples.
    bool dropped = false;               ///< AvailableFor() turned false.

    /// kProbeSamples batches and kProbeNanos of kernel time, or
    /// kMaxProbeSamples batches: short batches time mostly noise, so they
    /// keep sampling until their best means something.
    bool Measured() const {
      using Registry = EvaluationBackendRegistry;
      return samples >= Registry::kMaxProbeSamples ||
             (samples >= Registry::kProbeSamples &&
              probe_ns >= Registry::kProbeNanos);
    }
  };
  struct WidthClass {
    /// EvaluationBackendRegistry::routing_id_ the candidates came from; a
    /// different registry (or one that registered a backend since) starts
    /// the class over.
    uint64_t routing_id = 0;
    std::vector<Candidate> candidates;
    size_t next = 0;          ///< Candidate whose probe block comes next.
    size_t current = 0;       ///< Candidate of the block in progress.
    uint32_t block_left = 0;  ///< Batches left in that block.
    const EvaluationBackend* chosen = nullptr;
  };

  std::mutex mutex;
  WidthClass classes[3];  // indexed by WidthClassOf
};

std::shared_ptr<BackendRouteMemo> NewBackendRouteMemo() {
  return std::make_shared<BackendRouteMemo>();
}

struct BackendRoute::Probe {
  std::shared_ptr<BackendRouteMemo> memo;
  uint64_t routing_id = 0;
  size_t width_class = 0;
  size_t candidate = 0;
  size_t batch_size = 0;
  bool counted = true;  ///< False for the first batch of a probe block.
  std::atomic<uint64_t> ns{0};
  std::atomic<bool> ran{false};
  std::atomic<bool> failed{false};
};

BackendRoute::BackendRoute(const EvaluationBackend* backend)
    : backend_(backend) {}

BackendRoute::BackendRoute(BackendRoute&& other) noexcept
    : backend_(other.backend_), probe_(std::move(other.probe_)) {}

BackendRoute::~BackendRoute() {
  // Records a probe that ran cleanly on the snapshot's memo.
  if (probe_ == nullptr || !probe_->counted ||
      !probe_->ran.load(std::memory_order_relaxed) ||
      probe_->failed.load(std::memory_order_relaxed)) {
    return;
  }
  BackendRouteMemo& memo = *probe_->memo;
  std::lock_guard<std::mutex> lock(memo.mutex);
  BackendRouteMemo::WidthClass& wc = memo.classes[probe_->width_class];
  // A class that restarted (new registry) or settled meanwhile ignores
  // late samples.
  if (wc.routing_id != probe_->routing_id || wc.chosen != nullptr) return;
  BackendRouteMemo::Candidate& c = wc.candidates[probe_->candidate];
  const uint64_t ns = probe_->ns.load(std::memory_order_relaxed);
  const double per_scenario =
      static_cast<double>(ns) / static_cast<double>(probe_->batch_size);
  if (c.samples == 0 || per_scenario < c.best_ns_per_scenario) {
    c.best_ns_per_scenario = per_scenario;
  }
  ++c.samples;
  c.probe_ns += ns;
}

Status BackendRoute::EvaluateBatch(const CompiledPolynomialSet& compiled,
                                   size_t poly_begin, size_t poly_end,
                                   const DenseValuation* const* scenarios,
                                   double* const* outs,
                                   size_t scenario_count) const {
  if (probe_ == nullptr) {
    return backend_->EvaluateBatch(compiled, poly_begin, poly_end, scenarios,
                                   outs, scenario_count);
  }
  const auto start = std::chrono::steady_clock::now();
  Status status = backend_->EvaluateBatch(compiled, poly_begin, poly_end,
                                          scenarios, outs, scenario_count);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  probe_->ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
  probe_->ran.store(true, std::memory_order_relaxed);
  if (!status.ok()) probe_->failed.store(true, std::memory_order_relaxed);
  return status;
}

// ------------------------------------------------- registry -------------

EvaluationBackendRegistry::EvaluationBackendRegistry()
    : Registry("evaluation backend"), routing_id_(NextRoutingId()) {}

EvaluationBackendRegistry& EvaluationBackendRegistry::Default() {
  static EvaluationBackendRegistry* registry = [] {
    auto* r = new EvaluationBackendRegistry();
    // The built-ins carry distinct hardcoded names; registration cannot
    // fail on a fresh registry.
    Status s = RegisterBuiltinEvaluationBackends(*r);
    (void)s;
    return r;
  }();
  return *registry;
}

Status EvaluationBackendRegistry::Register(
    std::unique_ptr<EvaluationBackend> backend) {
  Status registered = Registry::Register(std::move(backend));
  if (registered.ok()) {
    routing_id_.store(NextRoutingId(), std::memory_order_release);
  }
  return registered;
}

StatusOr<const EvaluationBackend*> EvaluationBackendRegistry::ResolveForBatch(
    const std::string& name, size_t batch_size) const {
  (void)batch_size;
  if (!name.empty()) return Resolve(name);
  std::lock_guard<std::mutex> lock(mutex_);
  if (by_name_.empty()) {
    return Status::InvalidArgument("no evaluation backends registered");
  }
  auto it = by_name_.find("compiled");
  if (it == by_name_.end()) it = by_name_.begin();
  return static_cast<const EvaluationBackend*>(it->second.get());
}

StatusOr<BackendRoute> EvaluationBackendRegistry::Route(
    const std::string& name, const CompiledPolynomialSet& compiled,
    size_t batch_size) const {
  const std::shared_ptr<BackendRouteMemo>& memo = compiled.route_memo();
  if (!name.empty() || memo == nullptr || batch_size == 0) {
    StatusOr<const EvaluationBackend*> backend =
        ResolveForBatch(name, batch_size);
    if (!backend.ok()) return backend.status();
    return BackendRoute(*backend);
  }
  // Lock order: memo, then registry (nothing takes them the other way).
  std::lock_guard<std::mutex> memo_lock(memo->mutex);
  const size_t width_class = WidthClassOf(batch_size);
  BackendRouteMemo::WidthClass& wc = memo->classes[width_class];
  if (wc.routing_id != routing_id_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mutex_);
    wc = BackendRouteMemo::WidthClass{};
    wc.routing_id = routing_id_.load(std::memory_order_relaxed);
    for (const auto& [key, backend] : by_name_) {
      if (backend->Available()) {
        wc.candidates.emplace_back();
        wc.candidates.back().backend = backend.get();
      }
    }
  }
  if (wc.chosen != nullptr) return BackendRoute(wc.chosen);

  size_t live = 0;
  bool all_measured = true;
  for (BackendRouteMemo::Candidate& c : wc.candidates) {
    if (!c.dropped && !c.backend->AvailableFor(compiled)) c.dropped = true;
    if (c.dropped) continue;
    ++live;
    all_measured = all_measured && c.Measured();
  }
  // Probe in blocks of consecutive batches, round-robin over EVERY live
  // candidate until all are measured: consecutive batches run a candidate
  // as warm as it will run once chosen, and interleaving the blocks times
  // every candidate under the same conditions. A block's first batch
  // (cold, or carrying a one-time cost such as the jit's emission) is not
  // counted.
  if (live > 1 && !all_measured) {
    const size_t n = wc.candidates.size();
    if (wc.block_left == 0 || wc.candidates[wc.current].dropped) {
      while (wc.candidates[wc.next % n].dropped) ++wc.next;
      wc.current = wc.next % n;
      ++wc.next;
      wc.block_left = kProbeBlock;
    }
    --wc.block_left;
    StatusOr<BackendRoute> route{
        BackendRoute(wc.candidates[wc.current].backend)};
    auto probe = std::make_unique<BackendRoute::Probe>();
    probe->memo = memo;
    probe->routing_id = wc.routing_id;
    probe->width_class = width_class;
    probe->candidate = wc.current;
    probe->batch_size = batch_size;
    probe->counted = wc.block_left + 1 < kProbeBlock;
    route->probe_ = std::move(probe);
    return route;
  }
  // Every live candidate is measured (or only one is left): settle on the
  // fastest. Ties keep the earlier (name-sorted) candidate.
  const BackendRouteMemo::Candidate* best = nullptr;
  for (const BackendRouteMemo::Candidate& c : wc.candidates) {
    if (c.dropped) continue;
    if (best == nullptr ||
        c.best_ns_per_scenario < best->best_ns_per_scenario) {
      best = &c;
    }
  }
  if (best != nullptr) wc.chosen = best->backend;
  if (wc.chosen == nullptr) {
    // Nothing is available for this snapshot: the snapshot-free default.
    StatusOr<const EvaluationBackend*> fallback =
        ResolveForBatch("", batch_size);
    if (!fallback.ok()) return fallback.status();
    wc.chosen = *fallback;
  }
  return BackendRoute(wc.chosen);
}

Status RegisterBuiltinEvaluationBackends(
    EvaluationBackendRegistry& registry) {
  Status s = registry.Register(std::make_unique<CompiledBackend>());
  if (!s.ok()) return s;
  s = registry.Register(std::make_unique<SimdBatchBackend>());
  if (!s.ok()) return s;
  return registry.Register(MakeJitBackend());
}

// ------------------------------------------------- convenience ----------

StatusOr<std::vector<std::vector<double>>> EvaluateScenarios(
    const PolynomialSet& polys, const std::vector<Valuation>& scenarios,
    const std::string& backend_name,
    const EvaluationBackendRegistry* registry) {
  const EvaluationBackendRegistry& reg =
      registry != nullptr ? *registry : EvaluationBackendRegistry::Default();
  std::shared_ptr<const CompiledPolynomialSet> compiled = polys.Compiled();
  StatusOr<BackendRoute> route =
      reg.Route(backend_name, *compiled, scenarios.size());
  if (!route.ok()) return route.status();

  const size_t n = scenarios.size();
  std::vector<std::vector<double>> out(
      n, std::vector<double>(compiled->poly_count()));
  std::vector<DenseValuation> dense;
  dense.reserve(n);
  std::vector<const DenseValuation*> dense_ptrs(n);
  std::vector<double*> out_ptrs(n);
  for (size_t s = 0; s < n; ++s) {
    dense.push_back(compiled->MaterializeValuation(scenarios[s]));
    dense_ptrs[s] = &dense[s];
    out_ptrs[s] = out[s].data();
  }
  Status status = route->EvaluateBatch(*compiled, 0, compiled->poly_count(),
                                       dense_ptrs.data(), out_ptrs.data(), n);
  if (!status.ok()) return status;
  return out;
}

}  // namespace provabs
