#ifndef PROVABS_SERVER_WIRE_PROTOCOL_H_
#define PROVABS_SERVER_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/tradeoff_curve.h"
#include "common/status.h"
#include "common/statusor.h"

namespace provabs {

/// Wire protocol of the provenance-serving subsystem.
///
/// The paper's deployment story (§1, "Offline vs. Online Compression")
/// compresses provenance once on strong hardware; analysts then run
/// interactive what-if evaluations against the compact artifact. The
/// long-lived `provabs_server` keeps deserialized artifacts and compressed
/// results resident so those interactions never pay process startup or the
/// compression DP again. This header defines the messages exchanged between
/// `provabs_cli` and the server (or the CLI's in-process service).
///
/// Framing on the socket:
///
///   [u32 little-endian payload length] [payload]
///
/// Each payload reuses the `io/serializer.h` "PVAB" conventions:
///
///   [magic "PVAB"] [version u8] [kind u8] [body]
///
/// Request kinds occupy 16..31 and responses 32..47, disjoint from the
/// artifact kinds (1..4) of io/serializer.cc, so a stored artifact can never
/// be mistaken for a protocol message. All decoders are bounds-checked and
/// return `Status` errors on malformed input, including bytes left over
/// after the last field; they never abort (the bytes come from the
/// network).

/// Protocol version byte. The layout of every message is its field list in
/// wire_protocol.cc, the single source for encoding, decoding and size
/// checks. Adding a field is one entry in that list, a bump here, and an
/// update of the golden bytes in tests/wire_protocol_test.cc, so a
/// version-skewed peer gets a clean "unsupported protocol version" error
/// instead of silently misparsing fields. History: 1 = PR 2 initial
/// protocol; 2 = single-flight counters (dedup_hits/inflight_waiters in
/// the stats block, per-response dedup_hit byte); 3 = ListAlgos request
/// (kind 22) and the per-algorithm capability records in the response;
/// 4 = ListBackends request (kind 23), the per-backend capability records
/// and eval_backend echo in the response, and the eval_backend field of
/// EvaluateRequest; 5 = EvaluateScenarioProgram request (kind 24), the
/// batcher/program-cache counters in the stats block, and the
/// scenario-result fields (scenario_count, program_cache_hit,
/// scenario_indices, objectives) in the response; 6 = event-loop transport
/// counters (active/rejected connections, idle reaps, loop wakeups) in the
/// stats block plus the kDeadlineExceeded/kUnavailable status codes used by
/// admission rejection and client RPC deadlines; 7 = Append request
/// (kind 25), the delta_patched/delta_fallback_full counters in the stats
/// block (no spare fields remained in the fixed-order sequence), and the
/// per-response delta_patched byte.
inline constexpr uint8_t kWireVersion = 7;

enum class MessageKind : uint8_t {
  kLoadRequest = 16,
  kCompressRequest = 17,
  kEvaluateRequest = 18,
  kInfoRequest = 19,
  kTradeoffRequest = 20,
  kShutdownRequest = 21,
  kListAlgosRequest = 22,
  kListBackendsRequest = 23,
  kEvaluateScenarioProgramRequest = 24,
  kAppendRequest = 25,
  kResponse = 32,
};

/// Installs (or replaces) a named artifact on the server. `polys_bytes` is a
/// serialized PolynomialSet buffer (SerializePolynomialSet); `forests` pairs
/// a forest name with a serialized AbstractionForest buffer. When
/// `polys_bytes` is empty the artifact must already exist and the forests
/// are merged into it (the server rebuilds from its retained raw bytes).
struct LoadRequest {
  std::string artifact;
  std::string polys_bytes;
  std::vector<std::pair<std::string, std::string>> forests;
};

/// Compresses a loaded artifact under monomial bound `bound` using forest
/// `forest` ("default" when loaded unnamed). `algo` names any registered
/// compressor (built-ins: "opt", "greedy", "brute", "prox"; discover the
/// live set with ListAlgos). Results are cached server-side keyed by
/// (artifact generation, forest, bound, algo); a repeat request is answered
/// without re-running the algorithm and the response carries
/// `cache_hit = true`.
struct CompressRequest {
  std::string artifact;
  std::string forest = "default";
  std::string algo = "opt";
  uint64_t bound = 0;
};

/// Evaluates the artifact's polynomials under a valuation (variable name →
/// value; unassigned variables default to 1.0). When `compressed` is true
/// the evaluation runs over P↓S for the (forest, bound, algo) compression
/// instead, reusing (or populating) the server's result cache.
struct EvaluateRequest {
  std::string artifact;
  std::vector<std::pair<std::string, double>> assignments;
  bool compressed = false;
  std::string forest = "default";
  std::string algo = "opt";
  uint64_t bound = 0;
  /// Evaluation backend to route through (core/evaluation_backend.h).
  /// Empty = the backend the server measured fastest on the evaluated
  /// snapshot for whatever batch this request is coalesced into (the
  /// response names it); unknown names fail listing the registered set
  /// (discover them with ListBackends). All backends return bitwise
  /// identical values — this selects a strategy, never a result.
  std::string eval_backend;
};

/// How EvaluateScenarioProgram folds the per-scenario value vectors into
/// the response. A scenario's OBJECTIVE is the sum of its polynomial
/// values in polynomial order (left to right) — for the paper's telephony
/// workload, total revenue under that what-if.
enum class ScenarioShape : uint8_t {
  kValues = 0,  ///< every scenario's full value vector, scenario-major
  kArgmin = 1,  ///< the scenario minimizing the objective (first on ties)
  kArgmax = 2,  ///< the scenario maximizing the objective (first on ties)
  kTopK = 3,    ///< the top_k scenarios by descending objective
};

/// Evaluates a whole scenario FAMILY in one round trip: `program` is
/// scenario-expression source text (src/scenario/parser.h grammar),
/// compiled server-side against the artifact (or its compressed view, like
/// EvaluateRequest) and expanded into batched dense valuations. Compiled
/// programs are cached keyed by (artifact generation, target view, source
/// hash), so repeat analyses skip parse + analysis.
struct EvaluateScenarioProgramRequest {
  std::string artifact;
  std::string program;
  bool compressed = false;
  std::string forest = "default";
  std::string algo = "opt";
  uint64_t bound = 0;
  /// Same contract as EvaluateRequest::eval_backend.
  std::string eval_backend;
  ScenarioShape shape = ScenarioShape::kValues;
  uint64_t top_k = 0;  ///< kTopK only; must be >= 1 there.
};

/// Appends polynomials to a loaded artifact WITHOUT replacing it:
/// `polys_bytes` is a serialized PolynomialSet over the SAME variable
/// table whose polynomials are added to the artifact's set in order. The
/// artifact's generation bumps, but unlike Load the server records the
/// update in the artifact's delta chain, so a later Compress against the
/// new generation can patch a cached predecessor's DP state instead of
/// re-running the full algorithm (response/stat field `delta_patched`).
struct AppendRequest {
  std::string artifact;
  std::string polys_bytes;
};

/// Queries artifact statistics (`artifact` empty = server-wide stats only).
struct InfoRequest {
  std::string artifact;
};

/// Requests the full size/granularity Pareto frontier (§2.4) for tree 0 of
/// the named forest.
struct TradeoffRequest {
  std::string artifact;
  std::string forest = "default";
};

/// Asks the server to stop accepting connections and exit cleanly.
struct ShutdownRequest {};

/// Asks for the server's registered compression algorithms and their
/// capability records, so clients route by data instead of hardcoding
/// names (`provabs_cli remote-info` surfaces the list).
struct ListAlgosRequest {};

/// Asks for the server's registered evaluation backends and their
/// capability records (`provabs_cli remote-info` surfaces the list next to
/// the algorithms).
struct ListBackendsRequest {};

/// One registered algorithm's capability record, mirroring CompressorInfo
/// (src/algo/compressor.h) on the wire.
struct AlgoCapability {
  std::string name;
  std::string summary;
  bool deterministic = false;
  bool supports_tradeoff = false;
  bool exact = false;
  /// Results are tree cuts (serializable VVS); false for grouping
  /// algorithms like "prox".
  bool produces_cut = false;
  /// CompressOptions::time_budget_ms is enforced rather than silently
  /// ignored (flag bit 4; absent in records from pre-bit-4 servers, which
  /// decodes as false — the conservative reading).
  bool supports_time_budget = false;
};

/// One registered evaluation backend's capability record, mirroring
/// EvaluationBackendInfo (src/core/evaluation_backend.h) on the wire.
struct EvalBackendCapability {
  std::string name;
  std::string summary;
  /// Evaluates several scenarios per instruction (SIMD lanes).
  bool vectorized = false;
  /// Same inputs always yield the same bits.
  bool deterministic = false;
  /// Batch width the backend is designed for (advisory; the server's
  /// routing measures instead).
  uint64_t preferred_batch = 1;
};

/// Server-side cache and batching counters, included in every response so
/// clients (and the end-to-end tests) can observe cache behaviour without a
/// second round trip.
struct ServerStats {
  uint64_t artifact_count = 0;
  uint64_t result_count = 0;
  uint64_t cached_bytes = 0;
  uint64_t byte_budget = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t evictions = 0;
  uint64_t eval_batches = 0;
  uint64_t eval_requests = 0;
  /// Compression requests answered by waiting on another request's
  /// in-flight DP run (single-flight dedup; cumulative).
  uint64_t dedup_hits = 0;
  /// Requests blocked on an in-flight DP right now (a gauge, sampled when
  /// the response was built).
  uint64_t inflight_waiters = 0;
  /// (compiled form, backend) lane groups the EvaluateBatcher formed, and
  /// EvaluateBatch calls it dispatched (cumulative). batches/requests say
  /// how well coalescing works; these say how full the lanes were:
  /// requests/groups is the average lane width, backend_calls/groups the
  /// pool chunking per group.
  uint64_t eval_groups = 0;
  uint64_t eval_backend_calls = 0;
  /// Compiled scenario programs resident in the store, and cumulative
  /// cache hits/misses for them.
  uint64_t program_count = 0;
  uint64_t program_hits = 0;
  uint64_t program_misses = 0;
  /// Event-loop transport counters (zero when the service is driven
  /// without a socket front end, e.g. in unit tests). `active_connections`
  /// is a gauge of admitted connections; `rejected_connections` counts
  /// admission rejections (connection limit, fd exhaustion, drain);
  /// `idle_reaped` counts connections the timer wheel closed for idling
  /// past ServerOptions::idle_timeout_ms; `loop_wakeups` counts event-loop
  /// iterations (epoll_wait returns) — cumulative except the gauge.
  uint64_t active_connections = 0;
  uint64_t rejected_connections = 0;
  uint64_t idle_reaped = 0;
  uint64_t loop_wakeups = 0;
  /// Incremental-update path (cumulative): compress requests answered by
  /// patching a cached predecessor-generation DP state against the
  /// artifact's delta chain, and requests that found a usable predecessor
  /// but had to fall back to the full algorithm (frontier crossed, budget
  /// headroom exhausted, delta log truncated, ...). Requests with no
  /// cached predecessor at all count in neither.
  uint64_t delta_patched = 0;
  uint64_t delta_fallback_full = 0;
};

/// The single response envelope: `request_kind` echoes the request it
/// answers (kResponse when the server could not tell which request that
/// was: an unreadable payload, or an admission rejection sent before any
/// request was read), `code`/`message` carry the `Status` error model
/// across the wire, and the remaining fields are populated per verb
/// (zero/empty otherwise).
struct Response {
  MessageKind request_kind = MessageKind::kResponse;
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }
  /// Reconstructs the Status carried by `code`/`message`.
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }

  ServerStats stats;

  // load / info.
  uint64_t generation = 0;
  uint64_t poly_count = 0;
  uint64_t monomial_count = 0;
  uint64_t variable_count = 0;

  // compress (and evaluate over a compressed view).
  bool cache_hit = false;
  /// True when this request neither hit the cache nor ran the DP itself:
  /// it blocked on an identical request's in-flight run and shares its
  /// result (single-flight dedup).
  bool dedup_hit = false;
  /// True when this compression was produced by patching a cached
  /// predecessor generation's DP state rather than running the algorithm
  /// from scratch (see AppendRequest). Implies cache_hit == false.
  bool delta_patched = false;
  uint64_t monomial_loss = 0;
  uint64_t variable_loss = 0;
  bool adequate = false;
  std::string vvs;
  /// |P↓S|_M, reported as |P|_M − monomial_loss so that Compress never
  /// builds the view. It equals the view's SizeM() unless merged
  /// coefficients cancel exactly to zero, which can leave the view
  /// smaller; nonnegative provenance coefficients never cancel.
  uint64_t compressed_monomials = 0;

  // evaluate.
  std::vector<double> values;
  /// Evaluate / EvaluateScenarioProgram: the backend that actually ran the
  /// request — the requested name, or the routed choice when the request
  /// left it empty. A scenario family whose chunks ran on different
  /// backends (possible only while routing is still measuring the
  /// snapshot) lists each, comma-separated, in order of first use.
  std::string eval_backend;

  // tradeoff.
  std::vector<TradeoffPoint> points;

  // list-algos.
  std::vector<AlgoCapability> algos;

  // list-backends.
  std::vector<EvalBackendCapability> backends;

  // evaluate-scenario-program.
  /// Scenarios the program expanded to server-side (regardless of shape).
  uint64_t scenario_count = 0;
  /// True when the compiled program came from the store's program cache.
  bool program_cache_hit = false;
  /// Indices (into the family's expansion order) of the scenarios whose
  /// values are returned, with their objectives. For ScenarioShape::kValues
  /// both stay empty — `values` then holds every scenario's vector
  /// scenario-major (scenario i's values at [i*poly_count, (i+1)*poly_count)).
  /// For argmin/argmax/top-k, `values` holds the selected scenarios'
  /// vectors in `scenario_indices` order.
  std::vector<uint64_t> scenario_indices;
  std::vector<double> objectives;
};

/// Reads the message kind of an encoded payload without decoding the body.
StatusOr<MessageKind> PeekMessageKind(std::string_view payload);

std::string EncodeLoadRequest(const LoadRequest& req);
std::string EncodeCompressRequest(const CompressRequest& req);
std::string EncodeEvaluateRequest(const EvaluateRequest& req);
std::string EncodeInfoRequest(const InfoRequest& req);
std::string EncodeTradeoffRequest(const TradeoffRequest& req);
std::string EncodeShutdownRequest(const ShutdownRequest& req);
std::string EncodeListAlgosRequest(const ListAlgosRequest& req);
std::string EncodeListBackendsRequest(const ListBackendsRequest& req);
std::string EncodeEvaluateScenarioProgramRequest(
    const EvaluateScenarioProgramRequest& req);
std::string EncodeAppendRequest(const AppendRequest& req);
std::string EncodeResponse(const Response& resp);

StatusOr<LoadRequest> DecodeLoadRequest(std::string_view payload);
StatusOr<CompressRequest> DecodeCompressRequest(std::string_view payload);
StatusOr<EvaluateRequest> DecodeEvaluateRequest(std::string_view payload);
StatusOr<InfoRequest> DecodeInfoRequest(std::string_view payload);
StatusOr<TradeoffRequest> DecodeTradeoffRequest(std::string_view payload);
StatusOr<ShutdownRequest> DecodeShutdownRequest(std::string_view payload);
StatusOr<ListAlgosRequest> DecodeListAlgosRequest(std::string_view payload);
StatusOr<ListBackendsRequest> DecodeListBackendsRequest(
    std::string_view payload);
StatusOr<EvaluateScenarioProgramRequest> DecodeEvaluateScenarioProgramRequest(
    std::string_view payload);
StatusOr<AppendRequest> DecodeAppendRequest(std::string_view payload);
StatusOr<Response> DecodeResponse(std::string_view payload);

/// Decodes `reply` as the answer to the encoded `request`: a Response that
/// echoes the request's kind. An error reply may instead carry kResponse
/// (see Response::request_kind). Any other kind means the reply answers a
/// different request, and is rejected with kInternal rather than read as
/// this one's answer. Every caller of the protocol (Client and the CLI's
/// in-process service) reads replies through this check.
StatusOr<Response> DecodeReply(std::string_view request,
                               std::string_view reply);

/// Frames larger than this are rejected before any allocation, so a corrupt
/// or hostile length prefix cannot OOM the server.
inline constexpr size_t kMaxFrameBytes = size_t{1} << 30;  // 1 GiB

/// Writes one [u32 length][payload] frame to `fd`, retrying on partial
/// writes, EINTR, and (via poll) EAGAIN, so it works on blocking and
/// non-blocking sockets alike. With `timeout_ms` > 0 the whole frame must
/// be written within that budget or kDeadlineExceeded is returned;
/// `timeout_ms` <= 0 waits forever.
Status WriteFrame(int fd, std::string_view payload, int64_t timeout_ms = 0);

/// Reads one frame from `fd`. A clean EOF on the frame boundary yields
/// kNotFound ("connection closed"); EOF mid-frame yields kOutOfRange. With
/// `timeout_ms` > 0 the whole frame must arrive within that budget or
/// kDeadlineExceeded is returned; `timeout_ms` <= 0 waits forever.
StatusOr<std::string> ReadFrame(int fd, int64_t timeout_ms = 0);

}  // namespace provabs

#endif  // PROVABS_SERVER_WIRE_PROTOCOL_H_
