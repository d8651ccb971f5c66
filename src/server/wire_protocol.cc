#include "server/wire_protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/macros.h"
#include "io/byte_stream.h"

namespace provabs {

namespace {

constexpr char kMagic[4] = {'P', 'V', 'A', 'B'};
constexpr uint8_t kVersion = kWireVersion;

void WriteHeader(ByteWriter& w, MessageKind kind) {
  w.PutBytes(kMagic, 4);
  w.PutU8(kVersion);
  w.PutU8(static_cast<uint8_t>(kind));
}

Status CheckHeader(ByteReader& r, MessageKind expected_kind) {
  for (char expected : kMagic) {
    auto byte = r.GetU8();
    if (!byte.ok()) return byte.status();
    if (static_cast<char>(*byte) != expected) {
      return Status::InvalidArgument("bad magic (not a provabs message)");
    }
  }
  auto version = r.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  auto kind = r.GetU8();
  if (!kind.ok()) return kind.status();
  if (*kind != static_cast<uint8_t>(expected_kind)) {
    return Status::InvalidArgument("payload holds a different message kind");
  }
  return Status::OK();
}

/// Same hardening as io/serializer.cc: a parsed element count must be
/// plausible for the bytes left (every element occupies at least
/// `min_bytes`), checked BEFORE reserving memory.
Status CheckCount(uint64_t count, size_t min_bytes, const ByteReader& r) {
  if (count > r.remaining() / min_bytes + 1) {
    return Status::InvalidArgument("corrupt element count in message");
  }
  return Status::OK();
}

}  // namespace

StatusOr<MessageKind> PeekMessageKind(std::string_view payload) {
  ByteReader r(payload);
  for (char expected : kMagic) {
    auto byte = r.GetU8();
    if (!byte.ok()) return byte.status();
    if (static_cast<char>(*byte) != expected) {
      return Status::InvalidArgument("bad magic (not a provabs message)");
    }
  }
  auto version = r.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  auto kind = r.GetU8();
  if (!kind.ok()) return kind.status();
  switch (static_cast<MessageKind>(*kind)) {
    case MessageKind::kLoadRequest:
    case MessageKind::kCompressRequest:
    case MessageKind::kEvaluateRequest:
    case MessageKind::kInfoRequest:
    case MessageKind::kTradeoffRequest:
    case MessageKind::kShutdownRequest:
    case MessageKind::kListAlgosRequest:
    case MessageKind::kListBackendsRequest:
    case MessageKind::kEvaluateScenarioProgramRequest:
    case MessageKind::kAppendRequest:
    case MessageKind::kResponse:
      return static_cast<MessageKind>(*kind);
  }
  return Status::InvalidArgument("unknown message kind");
}

// ----------------------------------------------------------- requests ----

std::string EncodeLoadRequest(const LoadRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kLoadRequest);
  w.PutString(req.artifact);
  w.PutString(req.polys_bytes);
  w.PutVarint(req.forests.size());
  for (const auto& [name, bytes] : req.forests) {
    w.PutString(name);
    w.PutString(bytes);
  }
  return std::move(w).Release();
}

StatusOr<LoadRequest> DecodeLoadRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kLoadRequest));
  LoadRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  auto polys = r.GetString();
  if (!polys.ok()) return polys.status();
  req.polys_bytes = std::move(*polys);
  auto count = r.GetVarint();
  if (!count.ok()) return count.status();
  PROVABS_RETURN_IF_ERROR(CheckCount(*count, 2, r));
  for (uint64_t i = 0; i < *count; ++i) {
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    auto bytes = r.GetString();
    if (!bytes.ok()) return bytes.status();
    req.forests.emplace_back(std::move(*name), std::move(*bytes));
  }
  return req;
}

std::string EncodeCompressRequest(const CompressRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kCompressRequest);
  w.PutString(req.artifact);
  w.PutString(req.forest);
  w.PutString(req.algo);
  w.PutVarint(req.bound);
  return std::move(w).Release();
}

StatusOr<CompressRequest> DecodeCompressRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kCompressRequest));
  CompressRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  auto forest = r.GetString();
  if (!forest.ok()) return forest.status();
  req.forest = std::move(*forest);
  auto algo = r.GetString();
  if (!algo.ok()) return algo.status();
  req.algo = std::move(*algo);
  auto bound = r.GetVarint();
  if (!bound.ok()) return bound.status();
  req.bound = *bound;
  return req;
}

std::string EncodeEvaluateRequest(const EvaluateRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kEvaluateRequest);
  w.PutString(req.artifact);
  w.PutVarint(req.assignments.size());
  for (const auto& [name, value] : req.assignments) {
    w.PutString(name);
    w.PutDouble(value);
  }
  w.PutU8(req.compressed ? 1 : 0);
  w.PutString(req.forest);
  w.PutString(req.algo);
  w.PutVarint(req.bound);
  w.PutString(req.eval_backend);
  return std::move(w).Release();
}

StatusOr<EvaluateRequest> DecodeEvaluateRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kEvaluateRequest));
  EvaluateRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  auto count = r.GetVarint();
  if (!count.ok()) return count.status();
  // An assignment is at least a 1-byte name length plus an 8-byte double.
  PROVABS_RETURN_IF_ERROR(CheckCount(*count, 9, r));
  for (uint64_t i = 0; i < *count; ++i) {
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    auto value = r.GetDouble();
    if (!value.ok()) return value.status();
    req.assignments.emplace_back(std::move(*name), *value);
  }
  auto compressed = r.GetU8();
  if (!compressed.ok()) return compressed.status();
  req.compressed = *compressed != 0;
  auto forest = r.GetString();
  if (!forest.ok()) return forest.status();
  req.forest = std::move(*forest);
  auto algo = r.GetString();
  if (!algo.ok()) return algo.status();
  req.algo = std::move(*algo);
  auto bound = r.GetVarint();
  if (!bound.ok()) return bound.status();
  req.bound = *bound;
  auto eval_backend = r.GetString();
  if (!eval_backend.ok()) return eval_backend.status();
  req.eval_backend = std::move(*eval_backend);
  return req;
}

std::string EncodeInfoRequest(const InfoRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kInfoRequest);
  w.PutString(req.artifact);
  return std::move(w).Release();
}

StatusOr<InfoRequest> DecodeInfoRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kInfoRequest));
  InfoRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  return req;
}

std::string EncodeTradeoffRequest(const TradeoffRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kTradeoffRequest);
  w.PutString(req.artifact);
  w.PutString(req.forest);
  return std::move(w).Release();
}

StatusOr<TradeoffRequest> DecodeTradeoffRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kTradeoffRequest));
  TradeoffRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  auto forest = r.GetString();
  if (!forest.ok()) return forest.status();
  req.forest = std::move(*forest);
  return req;
}

std::string EncodeShutdownRequest(const ShutdownRequest&) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kShutdownRequest);
  return std::move(w).Release();
}

StatusOr<ShutdownRequest> DecodeShutdownRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kShutdownRequest));
  return ShutdownRequest{};
}

std::string EncodeListAlgosRequest(const ListAlgosRequest&) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kListAlgosRequest);
  return std::move(w).Release();
}

StatusOr<ListAlgosRequest> DecodeListAlgosRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kListAlgosRequest));
  return ListAlgosRequest{};
}

std::string EncodeListBackendsRequest(const ListBackendsRequest&) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kListBackendsRequest);
  return std::move(w).Release();
}

StatusOr<ListBackendsRequest> DecodeListBackendsRequest(
    std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kListBackendsRequest));
  return ListBackendsRequest{};
}

std::string EncodeEvaluateScenarioProgramRequest(
    const EvaluateScenarioProgramRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kEvaluateScenarioProgramRequest);
  w.PutString(req.artifact);
  w.PutString(req.program);
  w.PutU8(req.compressed ? 1 : 0);
  w.PutString(req.forest);
  w.PutString(req.algo);
  w.PutVarint(req.bound);
  w.PutString(req.eval_backend);
  w.PutU8(static_cast<uint8_t>(req.shape));
  w.PutVarint(req.top_k);
  return std::move(w).Release();
}

StatusOr<EvaluateScenarioProgramRequest> DecodeEvaluateScenarioProgramRequest(
    std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(
      CheckHeader(r, MessageKind::kEvaluateScenarioProgramRequest));
  EvaluateScenarioProgramRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  auto program = r.GetString();
  if (!program.ok()) return program.status();
  req.program = std::move(*program);
  auto compressed = r.GetU8();
  if (!compressed.ok()) return compressed.status();
  req.compressed = *compressed != 0;
  auto forest = r.GetString();
  if (!forest.ok()) return forest.status();
  req.forest = std::move(*forest);
  auto algo = r.GetString();
  if (!algo.ok()) return algo.status();
  req.algo = std::move(*algo);
  auto bound = r.GetVarint();
  if (!bound.ok()) return bound.status();
  req.bound = *bound;
  auto eval_backend = r.GetString();
  if (!eval_backend.ok()) return eval_backend.status();
  req.eval_backend = std::move(*eval_backend);
  auto shape = r.GetU8();
  if (!shape.ok()) return shape.status();
  if (*shape > static_cast<uint8_t>(ScenarioShape::kTopK)) {
    return Status::InvalidArgument("unknown scenario result shape");
  }
  req.shape = static_cast<ScenarioShape>(*shape);
  auto top_k = r.GetVarint();
  if (!top_k.ok()) return top_k.status();
  req.top_k = *top_k;
  return req;
}

std::string EncodeAppendRequest(const AppendRequest& req) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kAppendRequest);
  w.PutString(req.artifact);
  w.PutString(req.polys_bytes);
  return std::move(w).Release();
}

StatusOr<AppendRequest> DecodeAppendRequest(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kAppendRequest));
  AppendRequest req;
  auto artifact = r.GetString();
  if (!artifact.ok()) return artifact.status();
  req.artifact = std::move(*artifact);
  auto polys = r.GetString();
  if (!polys.ok()) return polys.status();
  req.polys_bytes = std::move(*polys);
  return req;
}

// ----------------------------------------------------------- response ----

std::string EncodeResponse(const Response& resp) {
  ByteWriter w;
  WriteHeader(w, MessageKind::kResponse);
  w.PutU8(static_cast<uint8_t>(resp.request_kind));
  w.PutU8(static_cast<uint8_t>(resp.code));
  w.PutString(resp.message);

  w.PutVarint(resp.stats.artifact_count);
  w.PutVarint(resp.stats.result_count);
  w.PutVarint(resp.stats.cached_bytes);
  w.PutVarint(resp.stats.byte_budget);
  w.PutVarint(resp.stats.result_hits);
  w.PutVarint(resp.stats.result_misses);
  w.PutVarint(resp.stats.evictions);
  w.PutVarint(resp.stats.eval_batches);
  w.PutVarint(resp.stats.eval_requests);
  w.PutVarint(resp.stats.dedup_hits);
  w.PutVarint(resp.stats.inflight_waiters);
  w.PutVarint(resp.stats.eval_groups);
  w.PutVarint(resp.stats.eval_backend_calls);
  w.PutVarint(resp.stats.program_count);
  w.PutVarint(resp.stats.program_hits);
  w.PutVarint(resp.stats.program_misses);
  w.PutVarint(resp.stats.active_connections);
  w.PutVarint(resp.stats.rejected_connections);
  w.PutVarint(resp.stats.idle_reaped);
  w.PutVarint(resp.stats.loop_wakeups);
  w.PutVarint(resp.stats.delta_patched);
  w.PutVarint(resp.stats.delta_fallback_full);

  w.PutVarint(resp.generation);
  w.PutVarint(resp.poly_count);
  w.PutVarint(resp.monomial_count);
  w.PutVarint(resp.variable_count);

  w.PutU8(resp.cache_hit ? 1 : 0);
  w.PutU8(resp.dedup_hit ? 1 : 0);
  w.PutU8(resp.delta_patched ? 1 : 0);
  w.PutVarint(resp.monomial_loss);
  w.PutVarint(resp.variable_loss);
  w.PutU8(resp.adequate ? 1 : 0);
  w.PutString(resp.vvs);
  w.PutVarint(resp.compressed_monomials);

  w.PutVarint(resp.values.size());
  for (double v : resp.values) w.PutDouble(v);

  w.PutVarint(resp.points.size());
  for (const TradeoffPoint& p : resp.points) {
    w.PutVarint(p.size_m);
    w.PutVarint(p.variable_loss);
  }

  w.PutVarint(resp.algos.size());
  for (const AlgoCapability& a : resp.algos) {
    w.PutString(a.name);
    w.PutString(a.summary);
    uint8_t flags = 0;
    if (a.deterministic) flags |= 1;
    if (a.supports_tradeoff) flags |= 2;
    if (a.exact) flags |= 4;
    if (a.produces_cut) flags |= 8;
    if (a.supports_time_budget) flags |= 16;
    w.PutU8(flags);
  }

  w.PutString(resp.eval_backend);
  w.PutVarint(resp.backends.size());
  for (const EvalBackendCapability& b : resp.backends) {
    w.PutString(b.name);
    w.PutString(b.summary);
    uint8_t flags = 0;
    if (b.vectorized) flags |= 1;
    if (b.deterministic) flags |= 2;
    w.PutU8(flags);
    w.PutVarint(b.preferred_batch);
  }

  w.PutVarint(resp.scenario_count);
  w.PutU8(resp.program_cache_hit ? 1 : 0);
  w.PutVarint(resp.scenario_indices.size());
  for (uint64_t index : resp.scenario_indices) w.PutVarint(index);
  w.PutVarint(resp.objectives.size());
  for (double objective : resp.objectives) w.PutDouble(objective);
  return std::move(w).Release();
}

StatusOr<Response> DecodeResponse(std::string_view payload) {
  ByteReader r(payload);
  PROVABS_RETURN_IF_ERROR(CheckHeader(r, MessageKind::kResponse));
  Response resp;

  auto request_kind = r.GetU8();
  if (!request_kind.ok()) return request_kind.status();
  resp.request_kind = static_cast<MessageKind>(*request_kind);
  auto code = r.GetU8();
  if (!code.ok()) return code.status();
  if (*code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("unknown status code in response");
  }
  resp.code = static_cast<StatusCode>(*code);
  auto message = r.GetString();
  if (!message.ok()) return message.status();
  resp.message = std::move(*message);

  uint64_t* stat_fields[] = {
      &resp.stats.artifact_count, &resp.stats.result_count,
      &resp.stats.cached_bytes,   &resp.stats.byte_budget,
      &resp.stats.result_hits,    &resp.stats.result_misses,
      &resp.stats.evictions,      &resp.stats.eval_batches,
      &resp.stats.eval_requests,  &resp.stats.dedup_hits,
      &resp.stats.inflight_waiters, &resp.stats.eval_groups,
      &resp.stats.eval_backend_calls, &resp.stats.program_count,
      &resp.stats.program_hits,   &resp.stats.program_misses,
      &resp.stats.active_connections, &resp.stats.rejected_connections,
      &resp.stats.idle_reaped,    &resp.stats.loop_wakeups,
      &resp.stats.delta_patched,  &resp.stats.delta_fallback_full,
      &resp.generation,           &resp.poly_count,
      &resp.monomial_count,       &resp.variable_count};
  for (uint64_t* field : stat_fields) {
    auto v = r.GetVarint();
    if (!v.ok()) return v.status();
    *field = *v;
  }

  auto cache_hit = r.GetU8();
  if (!cache_hit.ok()) return cache_hit.status();
  resp.cache_hit = *cache_hit != 0;
  auto dedup_hit = r.GetU8();
  if (!dedup_hit.ok()) return dedup_hit.status();
  resp.dedup_hit = *dedup_hit != 0;
  auto delta_patched = r.GetU8();
  if (!delta_patched.ok()) return delta_patched.status();
  resp.delta_patched = *delta_patched != 0;
  auto ml = r.GetVarint();
  if (!ml.ok()) return ml.status();
  resp.monomial_loss = *ml;
  auto vl = r.GetVarint();
  if (!vl.ok()) return vl.status();
  resp.variable_loss = *vl;
  auto adequate = r.GetU8();
  if (!adequate.ok()) return adequate.status();
  resp.adequate = *adequate != 0;
  auto vvs = r.GetString();
  if (!vvs.ok()) return vvs.status();
  resp.vvs = std::move(*vvs);
  auto compressed_m = r.GetVarint();
  if (!compressed_m.ok()) return compressed_m.status();
  resp.compressed_monomials = *compressed_m;

  auto value_count = r.GetVarint();
  if (!value_count.ok()) return value_count.status();
  PROVABS_RETURN_IF_ERROR(CheckCount(*value_count, 8, r));
  resp.values.reserve(*value_count);
  for (uint64_t i = 0; i < *value_count; ++i) {
    auto v = r.GetDouble();
    if (!v.ok()) return v.status();
    resp.values.push_back(*v);
  }

  auto point_count = r.GetVarint();
  if (!point_count.ok()) return point_count.status();
  PROVABS_RETURN_IF_ERROR(CheckCount(*point_count, 2, r));
  resp.points.reserve(*point_count);
  for (uint64_t i = 0; i < *point_count; ++i) {
    auto size_m = r.GetVarint();
    if (!size_m.ok()) return size_m.status();
    auto vloss = r.GetVarint();
    if (!vloss.ok()) return vloss.status();
    resp.points.push_back(TradeoffPoint{static_cast<size_t>(*size_m),
                                        static_cast<size_t>(*vloss)});
  }

  auto algo_count = r.GetVarint();
  if (!algo_count.ok()) return algo_count.status();
  // An algo record is at least two 1-byte string lengths plus a flags byte.
  PROVABS_RETURN_IF_ERROR(CheckCount(*algo_count, 3, r));
  resp.algos.reserve(*algo_count);
  for (uint64_t i = 0; i < *algo_count; ++i) {
    AlgoCapability a;
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    a.name = std::move(*name);
    auto summary = r.GetString();
    if (!summary.ok()) return summary.status();
    a.summary = std::move(*summary);
    auto flags = r.GetU8();
    if (!flags.ok()) return flags.status();
    a.deterministic = (*flags & 1) != 0;
    a.supports_tradeoff = (*flags & 2) != 0;
    a.exact = (*flags & 4) != 0;
    a.produces_cut = (*flags & 8) != 0;
    a.supports_time_budget = (*flags & 16) != 0;
    resp.algos.push_back(std::move(a));
  }

  auto eval_backend = r.GetString();
  if (!eval_backend.ok()) return eval_backend.status();
  resp.eval_backend = std::move(*eval_backend);
  auto backend_count = r.GetVarint();
  if (!backend_count.ok()) return backend_count.status();
  // A backend record is at least two 1-byte string lengths, a flags byte,
  // and a 1-byte preferred-batch varint.
  PROVABS_RETURN_IF_ERROR(CheckCount(*backend_count, 4, r));
  resp.backends.reserve(*backend_count);
  for (uint64_t i = 0; i < *backend_count; ++i) {
    EvalBackendCapability b;
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    b.name = std::move(*name);
    auto summary = r.GetString();
    if (!summary.ok()) return summary.status();
    b.summary = std::move(*summary);
    auto flags = r.GetU8();
    if (!flags.ok()) return flags.status();
    b.vectorized = (*flags & 1) != 0;
    b.deterministic = (*flags & 2) != 0;
    auto preferred = r.GetVarint();
    if (!preferred.ok()) return preferred.status();
    b.preferred_batch = *preferred;
    resp.backends.push_back(std::move(b));
  }

  auto scenario_count = r.GetVarint();
  if (!scenario_count.ok()) return scenario_count.status();
  resp.scenario_count = *scenario_count;
  auto program_cache_hit = r.GetU8();
  if (!program_cache_hit.ok()) return program_cache_hit.status();
  resp.program_cache_hit = *program_cache_hit != 0;
  auto index_count = r.GetVarint();
  if (!index_count.ok()) return index_count.status();
  PROVABS_RETURN_IF_ERROR(CheckCount(*index_count, 1, r));
  resp.scenario_indices.reserve(*index_count);
  for (uint64_t i = 0; i < *index_count; ++i) {
    auto index = r.GetVarint();
    if (!index.ok()) return index.status();
    resp.scenario_indices.push_back(*index);
  }
  auto objective_count = r.GetVarint();
  if (!objective_count.ok()) return objective_count.status();
  PROVABS_RETURN_IF_ERROR(CheckCount(*objective_count, 8, r));
  resp.objectives.reserve(*objective_count);
  for (uint64_t i = 0; i < *objective_count; ++i) {
    auto objective = r.GetDouble();
    if (!objective.ok()) return objective.status();
    resp.objectives.push_back(*objective);
  }
  return resp;
}

// ------------------------------------------------------------ framing ----

namespace {

/// Absolute deadline for one frame operation. `timeout_ms` <= 0 = infinite.
struct FrameDeadline {
  explicit FrameDeadline(int64_t timeout_ms)
      : infinite(timeout_ms <= 0),
        at(std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0)),
        budget_ms(timeout_ms) {}

  /// Blocks until `fd` is ready for `events` or the deadline passes.
  /// Returns kDeadlineExceeded on expiry, kInternal on poll failure.
  Status PollFor(int fd, short events, const char* what) const {
    for (;;) {
      int wait_ms = -1;
      if (!infinite) {
        auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            at - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) return Expired(what);
        wait_ms = static_cast<int>(std::min<int64_t>(
            remaining.count() + 1, std::numeric_limits<int>::max()));
      }
      pollfd p{};
      p.fd = fd;
      p.events = events;
      int r = ::poll(&p, 1, wait_ms);
      if (r > 0) return Status::OK();
      if (r == 0) return Expired(what);
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll failed: ") +
                              std::strerror(errno));
    }
  }

  Status Expired(const char* what) const {
    return Status::DeadlineExceeded(std::string(what) + " timed out after " +
                                    std::to_string(budget_ms) + " ms");
  }

  bool infinite;
  std::chrono::steady_clock::time_point at;
  int64_t budget_ms;
};

}  // namespace

Status WriteFrame(int fd, std::string_view payload, int64_t timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds the 1 GiB protocol limit");
  }
  FrameDeadline deadline(timeout_ms);
  uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>(len & 0xFF),
                    static_cast<char>((len >> 8) & 0xFF),
                    static_cast<char>((len >> 16) & 0xFF),
                    static_cast<char>((len >> 24) & 0xFF)};
  const char* chunks[] = {header, payload.data()};
  size_t sizes[] = {sizeof(header), payload.size()};
  for (int c = 0; c < 2; ++c) {
    size_t sent = 0;
    while (sent < sizes[c]) {
      // MSG_NOSIGNAL: a peer that disconnected mid-response must surface
      // as EPIPE here, not kill the whole server with SIGPIPE.
      ssize_t n =
          ::send(fd, chunks[c] + sent, sizes[c] - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Non-blocking socket with a full buffer (a stalled peer): wait
          // for writability within the deadline instead of spinning.
          PROVABS_RETURN_IF_ERROR(
              deadline.PollFor(fd, POLLOUT, "rpc write"));
          continue;
        }
        return Status::Internal(std::string("socket write failed: ") +
                                std::strerror(errno));
      }
      sent += static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

namespace {

/// Reads exactly `n` bytes into `out`; distinguishes EOF-before-anything
/// (`*clean_eof = true`) from EOF mid-read. Honors `deadline` across
/// blocking waits (poll-before-read on EAGAIN and, when a deadline is set,
/// before every read so a hung peer cannot park a blocking socket forever).
Status ReadExactly(int fd, char* out, size_t n, bool* clean_eof,
                   const FrameDeadline& deadline) {
  size_t got = 0;
  while (got < n) {
    if (!deadline.infinite) {
      PROVABS_RETURN_IF_ERROR(deadline.PollFor(fd, POLLIN, "rpc read"));
    }
    ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        PROVABS_RETURN_IF_ERROR(deadline.PollFor(fd, POLLIN, "rpc read"));
        continue;
      }
      return Status::Internal(std::string("socket read failed: ") +
                              std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::OutOfRange("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::string> ReadFrame(int fd, int64_t timeout_ms) {
  FrameDeadline deadline(timeout_ms);
  char header[4];
  bool clean_eof = false;
  Status s = ReadExactly(fd, header, sizeof(header), &clean_eof, deadline);
  if (!s.ok()) return s;
  uint32_t len = static_cast<uint32_t>(static_cast<unsigned char>(header[0])) |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[1]))
                     << 8 |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[2]))
                     << 16 |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[3]))
                     << 24;
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length exceeds the protocol limit");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    s = ReadExactly(fd, payload.data(), len, nullptr, deadline);
    if (!s.ok()) return s;
  }
  return payload;
}

}  // namespace provabs
