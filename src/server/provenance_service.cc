#include "server/provenance_service.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "scenario/program.h"

namespace provabs {

namespace {

void SetError(Response& resp, const Status& status) {
  resp.code = status.code();
  resp.message = status.message();
}

/// Encodes `handle`'s answer to a decoded request, or the decode failure.
/// The decoder's Status is forwarded to the client: "corrupt element count"
/// vs "buffer truncated" matters when debugging version skew or a mangled
/// frame.
template <class Req, class Handle>
std::string Answer(MessageKind kind, const StatusOr<Req>& req,
                   Handle handle) {
  if (req.ok()) return EncodeResponse(handle(*req));
  Response resp;
  resp.request_kind = kind;
  SetError(resp, Status::InvalidArgument("malformed request payload: " +
                                         req.status().ToString()));
  return EncodeResponse(resp);
}

}  // namespace

ProvenanceService::ProvenanceService(const ServiceOptions& options)
    : store_(options.cache_bytes, options.cache_shards),
      pool_(options.eval_threads != 0
                ? options.eval_threads
                : static_cast<size_t>(std::thread::hardware_concurrency())),
      batcher_(pool_),
      compress_hook_(options.compress_hook),
      loss_table_hook_(options.loss_table_hook),
      max_scenarios_per_request_(options.max_scenarios_per_request),
      scenario_chunk_(options.scenario_chunk != 0 ? options.scenario_chunk
                                                  : 1024),
      max_response_bytes_(options.max_response_bytes != 0
                              ? options.max_response_bytes
                              : kMaxFrameBytes) {}

void ProvenanceService::SetTransportStatsProvider(
    std::function<void(ServerStats&)> provider) {
  std::lock_guard<std::mutex> lock(transport_mutex_);
  transport_stats_ = std::move(provider);
}

void ProvenanceService::AttachStats(Response& resp) {
  ArtifactStore::Stats store_stats = store_.stats();
  resp.stats.artifact_count = store_stats.artifact_count;
  resp.stats.result_count = store_stats.result_count;
  resp.stats.cached_bytes = store_stats.cached_bytes;
  resp.stats.byte_budget = store_stats.byte_budget;
  resp.stats.result_hits = store_stats.result_hits;
  resp.stats.result_misses = store_stats.result_misses;
  resp.stats.evictions = store_stats.evictions;
  resp.stats.dedup_hits = store_stats.dedup_hits;
  resp.stats.inflight_waiters = store_stats.inflight_waiters;
  resp.stats.program_count = store_stats.program_count;
  resp.stats.program_hits = store_stats.program_hits;
  resp.stats.program_misses = store_stats.program_misses;
  resp.stats.delta_patched =
      delta_patched_.load(std::memory_order_relaxed);
  resp.stats.delta_fallback_full =
      delta_fallback_full_.load(std::memory_order_relaxed);
  EvaluateBatcher::Stats batch_stats = batcher_.stats();
  resp.stats.eval_batches = batch_stats.batches;
  resp.stats.eval_requests = batch_stats.requests;
  resp.stats.eval_groups = batch_stats.groups;
  resp.stats.eval_backend_calls = batch_stats.backend_calls;
  {
    std::lock_guard<std::mutex> lock(transport_mutex_);
    if (transport_stats_) transport_stats_(resp.stats);
  }
}

Response ProvenanceService::Load(const LoadRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kLoadRequest;
  if (req.artifact.empty()) {
    SetError(resp, Status::InvalidArgument("artifact name must be non-empty"));
    AttachStats(resp);
    return resp;
  }
  auto artifact = store_.Load(req.artifact, req.polys_bytes, req.forests);
  if (!artifact.ok()) {
    SetError(resp, artifact.status());
    AttachStats(resp);
    return resp;
  }
  resp.generation = (*artifact)->generation;
  resp.poly_count = (*artifact)->polys.count();
  resp.monomial_count = (*artifact)->polys.SizeM();
  resp.variable_count = (*artifact)->polys.SizeV();
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::Append(const AppendRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kAppendRequest;
  if (req.artifact.empty()) {
    SetError(resp, Status::InvalidArgument("artifact name must be non-empty"));
    AttachStats(resp);
    return resp;
  }
  auto artifact = store_.Append(req.artifact, req.polys_bytes);
  if (!artifact.ok()) {
    SetError(resp, artifact.status());
    AttachStats(resp);
    return resp;
  }
  resp.generation = (*artifact)->generation;
  resp.poly_count = (*artifact)->polys.count();
  resp.monomial_count = (*artifact)->polys.SizeM();
  resp.variable_count = (*artifact)->polys.SizeV();
  AttachStats(resp);
  return resp;
}

StatusOr<std::shared_ptr<const LeafResidualIndex>>
ProvenanceService::LossTable(const std::string& name,
                             const Artifact& artifact,
                             const std::string& forest) {
  return store_.LossTable(name, artifact, forest, /*tree_index=*/0, [&] {
    if (loss_table_hook_) loss_table_hook_(artifact.generation);
  });
}

StatusOr<ArtifactStore::CompressedResult>
ProvenanceService::ComputeCompression(
    const std::shared_ptr<const Artifact>& artifact,
    const AbstractionForest& forest, const Compressor& compressor,
    const ArtifactStore::ResultKey& key) {
  std::optional<CompressionResult> result;
  // Delta-patch path: probe cached ancestor generations (newest first) for
  // a result under the same (forest, bound, algo) whose retained DP tables
  // can be patched against the polynomials' delta log. A patched result is
  // field-identical to a full re-run by construction, so the cache entry
  // it fills is indistinguishable from a cold one.
  for (auto it = artifact->ancestry.rbegin(); it != artifact->ancestry.rend();
       ++it) {
    ArtifactStore::ResultKey prev_key = key;
    prev_key.generation = it->generation;
    std::shared_ptr<const ArtifactStore::CompressedResult> prev =
        store_.PeekResult(prev_key);
    if (prev == nullptr) continue;  // Older ancestors may still be cached.
    if (prev->algo_result.dp_state == nullptr) {
      // A predecessor exists but carries nothing patchable (non-opt algo,
      // or a budget-exhausted run). Deeper ancestors ran the same
      // algorithm, so probing further cannot help.
      delta_fallback_full_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    PolynomialSetDelta delta = artifact->polys.DeltaSince(it->revision);
    RecompressFallback fallback = RecompressFallback::kNone;
    StatusOr<CompressionResult> attempt = OptimalRecompress(
        artifact->polys, forest, prev->algo_result, delta,
        static_cast<size_t>(key.bound), &fallback);
    if (fallback != RecompressFallback::kNone) {
      delta_fallback_full_.fetch_add(1, std::memory_order_relaxed);
      break;  // A declined patch at the nearest ancestor settles it.
    }
    // The patch path answered authoritatively — including kInfeasible,
    // which the full DP would report identically.
    delta_patched_.fetch_add(1, std::memory_order_relaxed);
    if (!attempt.ok()) return attempt.status();
    result = std::move(*attempt);
    break;
  }
  const bool patched = result.has_value();
  if (!patched) {
    if (compress_hook_) compress_hook_(key);
    auto run = [&]() -> StatusOr<CompressionResult> {
      if (compressor.info().name != "opt") {
        CompressOptions copts;
        copts.bound = key.bound;
        return compressor.Compress(artifact->polys, forest, copts);
      }
      // The registry's opt adapter with default options, on the table every
      // bound of this generation shares instead of a private rebuild.
      auto table = LossTable(key.artifact, *artifact, key.forest);
      if (!table.ok()) return table.status();
      return OptimalSingleTree(artifact->polys, forest, /*tree_index=*/0,
                               static_cast<size_t>(key.bound),
                               std::move(*table));
    };
    StatusOr<CompressionResult> full = run();
    if (!full.ok()) return full.status();
    result = std::move(*full);
  }
  ArtifactStore::CompressedResult computed;
  computed.loss = result->loss;
  computed.adequate = result->adequate;
  computed.vvs_names = result->Describe(forest, *artifact->vars);
  computed.algo_result = std::move(*result);
  computed.delta_patched = patched;
  return computed;
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ProvenanceService::CompressInternal(
    const std::shared_ptr<const Artifact>& artifact,
    const ArtifactStore::ResultKey& key, Response& resp) {
  const AbstractionForest* forest = artifact->FindForest(key.forest);
  if (forest == nullptr) {
    SetError(resp, Status::NotFound("artifact '" + key.artifact +
                                    "' has no forest '" + key.forest + "'"));
    return nullptr;
  }
  StatusOr<const Compressor*> compressor =
      CompressorRegistry::Default().Resolve(key.algo);
  if (!compressor.ok()) {
    SetError(resp, compressor.status());
    return nullptr;
  }

  // Single-flight: the first request for this key runs the algorithm on
  // this thread; concurrent identical requests block on its outcome instead
  // of computing twice; distinct keys proceed fully in parallel. A failed
  // run is reported to every waiter and never cached.
  ArtifactStore::GetOrComputeInfo info;
  StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>> cached =
      store_.GetOrCompute(
          key,
          [&]() -> StatusOr<ArtifactStore::CompressedResult> {
            return ComputeCompression(artifact, *forest, **compressor, key);
          },
          &info);
  resp.cache_hit = info.cache_hit;
  resp.dedup_hit = info.dedup_hit;
  if (!cached.ok()) {
    SetError(resp, cached.status());
    return nullptr;
  }
  resp.delta_patched = (*cached)->delta_patched && !resp.cache_hit;
  resp.monomial_loss = (*cached)->loss.monomial_loss;
  resp.variable_loss = (*cached)->loss.variable_loss;
  resp.adequate = (*cached)->adequate;
  resp.vvs = (*cached)->vvs_names;
  // |P↓S|_M from the loss alone, so Compress never builds the view. Equal
  // to the view's SizeM() unless merged coefficients cancel to zero, which
  // provenance coefficients never do (see Response::compressed_monomials).
  resp.compressed_monomials =
      artifact->polys.SizeM() - (*cached)->loss.monomial_loss;
  return *cached;
}

std::shared_ptr<const PolynomialSet> ProvenanceService::ResolveTarget(
    const std::shared_ptr<const Artifact>& artifact,
    const std::string& artifact_name, bool compressed,
    const std::string& forest, const std::string& algo, uint64_t bound,
    Response& resp) {
  if (!compressed) {
    return std::shared_ptr<const PolynomialSet>(artifact, &artifact->polys);
  }
  ArtifactStore::ResultKey key{artifact_name, artifact->generation, forest,
                               bound, algo};
  std::shared_ptr<const ArtifactStore::CompressedResult> result =
      CompressInternal(artifact, key, resp);
  if (result == nullptr) return nullptr;
  return store_.CompressedView(key, result, *artifact);
}

Response ProvenanceService::Compress(const CompressRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kCompressRequest;
  std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
  if (artifact == nullptr) {
    SetError(resp,
             Status::NotFound("artifact '" + req.artifact + "' not loaded"));
  } else {
    CompressInternal(artifact,
                     {req.artifact, artifact->generation, req.forest,
                      req.bound, req.algo},
                     resp);
  }
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::Evaluate(const EvaluateRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kEvaluateRequest;
  // An explicit backend name is validated up front so a typo fails with
  // the registry's name-listing error before any work is done; "" keeps
  // the registry's measured routing, which picks per coalesced batch.
  if (!req.eval_backend.empty()) {
    StatusOr<const EvaluationBackend*> backend =
        EvaluationBackendRegistry::Default().Resolve(req.eval_backend);
    if (!backend.ok()) {
      SetError(resp, backend.status());
      AttachStats(resp);
      return resp;
    }
  }
  std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
  if (artifact == nullptr) {
    SetError(resp,
             Status::NotFound("artifact '" + req.artifact + "' not loaded"));
    AttachStats(resp);
    return resp;
  }
  std::shared_ptr<const PolynomialSet> target =
      ResolveTarget(artifact, req.artifact, req.compressed, req.forest,
                    req.algo, req.bound, resp);
  if (target == nullptr) {
    AttachStats(resp);
    return resp;
  }

  // Assignments are validated against the polynomials actually being
  // evaluated: setting a variable the compression abstracted away would
  // silently have no effect, and a silently wrong what-if answer is worse
  // than an error (the offline CLI rejects it the same way, because a
  // compressed artifact's buffer only carries surviving variables). The
  // compiled snapshot's slot index answers membership per assignment, so
  // validation never scans the view's monomials.
  Valuation val;
  const std::shared_ptr<const CompiledPolynomialSet> compiled =
      target->Compiled();
  for (const auto& [name, value] : req.assignments) {
    VariableId id = artifact->vars->Find(name);
    if (id == kInvalidVariable ||
        compiled->SlotOf(id) == CompiledPolynomialSet::kNoSlot) {
      SetError(resp,
               Status::NotFound(
                   req.compressed
                       ? "variable '" + name +
                             "' does not occur in the compressed view "
                             "(set its surviving meta-variable instead)"
                       : "unknown variable '" + name + "'"));
      AttachStats(resp);
      return resp;
    }
    val.Set(id, value);
  }

  StatusOr<std::vector<double>> values = batcher_.Evaluate(
      std::move(target), std::move(val), req.eval_backend, &resp.eval_backend);
  if (!values.ok()) {
    SetError(resp, values.status());
    AttachStats(resp);
    return resp;
  }
  resp.values = std::move(*values);
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::EvaluateScenarioProgram(
    const EvaluateScenarioProgramRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kEvaluateScenarioProgramRequest;
  std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
  if (artifact == nullptr) {
    SetError(resp,
             Status::NotFound("artifact '" + req.artifact + "' not loaded"));
    AttachStats(resp);
    return resp;
  }
  if (req.shape == ScenarioShape::kTopK && req.top_k == 0) {
    SetError(resp, Status::InvalidArgument(
                       "top_k must be at least 1 for the top-k shape"));
    AttachStats(resp);
    return resp;
  }
  if (!req.eval_backend.empty()) {
    StatusOr<const EvaluationBackend*> backend =
        EvaluationBackendRegistry::Default().Resolve(req.eval_backend);
    if (!backend.ok()) {
      SetError(resp, backend.status());
      AttachStats(resp);
      return resp;
    }
  }

  std::shared_ptr<const PolynomialSet> target =
      ResolveTarget(artifact, req.artifact, req.compressed, req.forest,
                    req.algo, req.bound, resp);
  if (target == nullptr) {
    AttachStats(resp);
    return resp;
  }

  ArtifactStore::ProgramKey key;
  key.artifact = req.artifact;
  key.generation = artifact->generation;
  key.compressed = req.compressed;
  if (req.compressed) {
    key.forest = req.forest;
    key.bound = req.bound;
    key.algo = req.algo;
  }
  key.source_hash = ArtifactStore::HashProgramSource(req.program);
  std::shared_ptr<const scenario::ScenarioProgram> program =
      store_.LookupProgram(key);
  resp.program_cache_hit = program != nullptr;
  if (program == nullptr) {
    StatusOr<scenario::ScenarioProgram> compiled_program =
        scenario::ScenarioProgram::Compile(req.program, target->Compiled(),
                                           *artifact->vars);
    if (!compiled_program.ok()) {
      SetError(resp, compiled_program.status());
      AttachStats(resp);
      return resp;
    }
    program = store_.InsertProgram(key, std::move(*compiled_program));
  }
  const uint64_t total = program->scenario_count();
  if (total > max_scenarios_per_request_) {
    SetError(resp,
             Status::InvalidArgument(
                 "scenario program expands to " + std::to_string(total) +
                 " scenarios, over the server limit of " +
                 std::to_string(max_scenarios_per_request_)));
    AttachStats(resp);
    return resp;
  }
  resp.scenario_count = total;

  // Evaluation runs against the compiled snapshot the program was analyzed
  // with (program->compiled(), not target->Compiled()): a cached program
  // whose compressed result was evicted and recomputed since keeps its own
  // snapshot alive, and its materialized valuations carry that snapshot's
  // fingerprint. Both snapshots evaluate to identical values — the
  // compression key is identical and the DP is deterministic — so this is
  // purely a lifetime/fingerprint concern, never a semantic one.
  const std::shared_ptr<const CompiledPolynomialSet>& compiled =
      program->compiled();

  // Shaped responses keep the current best `keep` scenarios (values
  // included) while streaming chunks, ordered by objective with ties
  // broken toward the earlier expansion index so every backend and chunk
  // size selects the same scenarios.
  struct Pick {
    uint64_t index;
    double objective;
    std::vector<double> values;
  };
  const bool shaped = req.shape != ScenarioShape::kValues;
  const uint64_t keep = req.shape == ScenarioShape::kTopK ? req.top_k : 1;
  auto better = [&req](const Pick& a, const Pick& b) {
    if (a.objective != b.objective) {
      return req.shape == ScenarioShape::kArgmin
                 ? a.objective < b.objective
                 : a.objective > b.objective;
    }
    return a.index < b.index;
  };
  std::vector<Pick> picks;
  if (!shaped) {
    // A values-shaped response carries total * poly_count doubles (8 bytes
    // each on the wire). Refuse up front when that cannot fit in one
    // response frame — computing a gigabyte of valuations only to die in
    // WriteFrame would waste the work and kill the connection.
    const uint64_t value_bytes =
        total * static_cast<uint64_t>(compiled->poly_count()) * 8;
    constexpr uint64_t kEnvelopeSlack = 4096;  // header, stats, varints
    if (value_bytes > max_response_bytes_ ||
        value_bytes + kEnvelopeSlack > max_response_bytes_) {
      SetError(resp,
               Status::OutOfRange(
                   "values-shaped response would be about " +
                   std::to_string(value_bytes) + " bytes, over the " +
                   std::to_string(max_response_bytes_) +
                   "-byte response limit; use --shape top-k to request "
                   "only the best scenarios"));
      AttachStats(resp);
      return resp;
    }
    resp.values.reserve(static_cast<size_t>(total) * compiled->poly_count());
  }

  std::vector<std::string> ran_backends;
  for (uint64_t begin = 0; begin < total; begin += scenario_chunk_) {
    const uint64_t end = std::min(total, begin + scenario_chunk_);
    std::vector<DenseValuation> chunk;
    Status expand = program->ExpandChunk(begin, end, &chunk);
    if (!expand.ok()) {
      SetError(resp, expand);
      AttachStats(resp);
      return resp;
    }
    std::string ran;
    StatusOr<std::vector<std::vector<double>>> values = batcher_.EvaluateDense(
        target, compiled, std::move(chunk), req.eval_backend, &ran);
    if (!values.ok()) {
      SetError(resp, values.status());
      AttachStats(resp);
      return resp;
    }
    // Chunks of one family can run on different backends only while the
    // snapshot is still being measured; the response names each, in order.
    if (std::find(ran_backends.begin(), ran_backends.end(), ran) ==
        ran_backends.end()) {
      resp.eval_backend += (ran_backends.empty() ? "" : ",") + ran;
      ran_backends.push_back(std::move(ran));
    }
    if (!shaped) {
      for (const std::vector<double>& v : *values) {
        resp.values.insert(resp.values.end(), v.begin(), v.end());
      }
      continue;
    }
    for (size_t i = 0; i < values->size(); ++i) {
      // The objective folds polynomial values left to right, matching the
      // order clients would sum a kValues response in.
      double objective = 0.0;
      for (double v : (*values)[i]) objective += v;
      picks.push_back(Pick{begin + i, objective, std::move((*values)[i])});
    }
    if (picks.size() > keep) {
      std::sort(picks.begin(), picks.end(), better);
      picks.resize(static_cast<size_t>(keep));
    }
  }
  if (shaped) {
    std::sort(picks.begin(), picks.end(), better);
    for (Pick& pick : picks) {
      resp.scenario_indices.push_back(pick.index);
      resp.objectives.push_back(pick.objective);
      resp.values.insert(resp.values.end(), pick.values.begin(),
                         pick.values.end());
    }
  }
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::Info(const InfoRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kInfoRequest;
  if (!req.artifact.empty()) {
    std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
    if (artifact == nullptr) {
      SetError(resp,
               Status::NotFound("artifact '" + req.artifact + "' not loaded"));
      AttachStats(resp);
      return resp;
    }
    resp.generation = artifact->generation;
    resp.poly_count = artifact->polys.count();
    resp.monomial_count = artifact->polys.SizeM();
    resp.variable_count = artifact->polys.SizeV();
  }
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::Tradeoff(const TradeoffRequest& req) {
  Response resp;
  resp.request_kind = MessageKind::kTradeoffRequest;
  std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
  if (artifact == nullptr) {
    SetError(resp,
             Status::NotFound("artifact '" + req.artifact + "' not loaded"));
    AttachStats(resp);
    return resp;
  }
  const AbstractionForest* forest = artifact->FindForest(req.forest);
  if (forest == nullptr) {
    SetError(resp, Status::NotFound("artifact '" + req.artifact +
                                    "' has no forest '" + req.forest + "'"));
    AttachStats(resp);
    return resp;
  }
  auto table = LossTable(req.artifact, *artifact, req.forest);
  if (!table.ok()) {
    SetError(resp, table.status());
    AttachStats(resp);
    return resp;
  }
  auto curve = OptimalTradeoffCurve(artifact->polys, *forest, 0, **table);
  if (!curve.ok()) {
    SetError(resp, curve.status());
    AttachStats(resp);
    return resp;
  }
  resp.points = std::move(*curve);
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::ListAlgos(const ListAlgosRequest&) {
  Response resp;
  resp.request_kind = MessageKind::kListAlgosRequest;
  for (const CompressorInfo& info : CompressorRegistry::Default().Infos()) {
    AlgoCapability a;
    a.name = info.name;
    a.summary = info.summary;
    a.deterministic = info.deterministic;
    a.supports_tradeoff = info.supports_tradeoff;
    a.exact = info.exact;
    a.produces_cut = info.produces_cut;
    a.supports_time_budget = info.supports_time_budget;
    resp.algos.push_back(std::move(a));
  }
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::ListBackends(const ListBackendsRequest&) {
  Response resp;
  resp.request_kind = MessageKind::kListBackendsRequest;
  for (const EvaluationBackendInfo& info :
       EvaluationBackendRegistry::Default().Infos()) {
    EvalBackendCapability b;
    b.name = info.name;
    b.summary = info.summary;
    b.vectorized = info.vectorized;
    b.deterministic = info.deterministic;
    b.preferred_batch = info.preferred_batch;
    resp.backends.push_back(std::move(b));
  }
  AttachStats(resp);
  return resp;
}

std::string ProvenanceService::HandleFrame(std::string_view payload,
                                           bool* shutdown) {
  std::string encoded = HandleFrameImpl(payload, shutdown);
  if (encoded.size() <= max_response_bytes_ &&
      encoded.size() <= kMaxFrameBytes) {
    return encoded;
  }
  // Backstop for any handler whose response outgrew the frame budget:
  // the client gets a structured error on a healthy connection instead of
  // the transport killing the write (and with it the connection).
  Response err;
  StatusOr<MessageKind> kind = PeekMessageKind(payload);
  if (kind.ok()) err.request_kind = *kind;
  SetError(err, Status::OutOfRange(
                    "encoded response of " + std::to_string(encoded.size()) +
                    " bytes exceeds the " +
                    std::to_string(std::min<uint64_t>(max_response_bytes_,
                                                      kMaxFrameBytes)) +
                    "-byte response limit; narrow the request (for scenario "
                    "sweeps, use --shape top-k)"));
  AttachStats(err);
  return EncodeResponse(err);
}

std::string ProvenanceService::HandleFrameImpl(std::string_view payload,
                                               bool* shutdown) {
  StatusOr<MessageKind> kind = PeekMessageKind(payload);
  if (!kind.ok()) {
    Response resp;
    SetError(resp, kind.status());
    return EncodeResponse(resp);
  }
  switch (*kind) {
    case MessageKind::kLoadRequest:
      return Answer(*kind, DecodeLoadRequest(payload),
                    [&](const auto& req) { return Load(req); });
    case MessageKind::kAppendRequest:
      return Answer(*kind, DecodeAppendRequest(payload),
                    [&](const auto& req) { return Append(req); });
    case MessageKind::kCompressRequest:
      return Answer(*kind, DecodeCompressRequest(payload),
                    [&](const auto& req) { return Compress(req); });
    case MessageKind::kEvaluateRequest:
      return Answer(*kind, DecodeEvaluateRequest(payload),
                    [&](const auto& req) { return Evaluate(req); });
    case MessageKind::kEvaluateScenarioProgramRequest:
      return Answer(*kind, DecodeEvaluateScenarioProgramRequest(payload),
                    [&](const auto& req) {
                      return EvaluateScenarioProgram(req);
                    });
    case MessageKind::kInfoRequest:
      return Answer(*kind, DecodeInfoRequest(payload),
                    [&](const auto& req) { return Info(req); });
    case MessageKind::kTradeoffRequest:
      return Answer(*kind, DecodeTradeoffRequest(payload),
                    [&](const auto& req) { return Tradeoff(req); });
    case MessageKind::kListAlgosRequest:
      return Answer(*kind, DecodeListAlgosRequest(payload),
                    [&](const auto& req) { return ListAlgos(req); });
    case MessageKind::kListBackendsRequest:
      return Answer(*kind, DecodeListBackendsRequest(payload),
                    [&](const auto& req) { return ListBackends(req); });
    case MessageKind::kShutdownRequest:
      return Answer(*kind, DecodeShutdownRequest(payload),
                    [&](const ShutdownRequest&) {
                      if (shutdown != nullptr) *shutdown = true;
                      Response resp;
                      resp.request_kind = MessageKind::kShutdownRequest;
                      AttachStats(resp);
                      return resp;
                    });
    case MessageKind::kResponse:
      break;
  }
  Response resp;
  SetError(resp, Status::InvalidArgument(
                     "a response message is not a valid request"));
  return EncodeResponse(resp);
}

}  // namespace provabs
