#include "server/wire_protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "io/byte_stream.h"

namespace provabs {
namespace {

// ------------------------------------------------------ all message kinds --

/// One fully populated message of one kind: every field differs from its
/// default, counts and numbers span multi-byte varints, and every flag bit
/// is exercised.
struct WireCase {
  const char* kind;
  std::string encoded;
  /// Decodes a payload as this kind and, on success, encodes the result.
  std::function<StatusOr<std::string>(std::string_view)> reencode;
};

template <class M>
WireCase MakeCase(const char* kind, const M& msg,
                  std::string (*encode)(const M&),
                  StatusOr<M> (*decode)(std::string_view)) {
  return {kind, encode(msg),
          [encode, decode](std::string_view payload) -> StatusOr<std::string> {
            StatusOr<M> decoded = decode(payload);
            if (!decoded.ok()) return decoded.status();
            return encode(*decoded);
          }};
}

/// Every message kind of the protocol, in MessageKind order.
std::vector<WireCase> AllKinds() {
  LoadRequest load;
  load.artifact = "telephony";
  load.polys_bytes = std::string("\x00\x01poly\xFF", 7);
  load.forests = {{"plans", "tree-bytes"}, {"months", ""}};

  CompressRequest compress{"telephony", "plans", "greedy", 300};

  EvaluateRequest evaluate;
  evaluate.artifact = "telephony";
  evaluate.assignments = {{"m1", 0.5}, {"plan7", -2.25}};
  evaluate.compressed = true;
  evaluate.forest = "plans";
  evaluate.algo = "brute";
  evaluate.bound = 1500;
  evaluate.eval_backend = "simd_batch";

  EvaluateScenarioProgramRequest scenario;
  scenario.artifact = "telephony";
  scenario.program = "LET d = GRID(0.5, 1); SET PREFIX(plan) = d;";
  scenario.compressed = true;
  scenario.forest = "plans";
  scenario.algo = "greedy";
  scenario.bound = 4096;
  scenario.eval_backend = "jit";
  scenario.shape = ScenarioShape::kTopK;
  scenario.top_k = 130;

  AppendRequest append{"telephony", std::string("\x00\x02more\xFE", 7)};

  Response resp;
  resp.request_kind = MessageKind::kEvaluateScenarioProgramRequest;
  resp.code = StatusCode::kUnavailable;
  resp.message = "retry later";
  uint64_t next = 1;
  for (uint64_t* stat :
       {&resp.stats.artifact_count, &resp.stats.result_count,
        &resp.stats.cached_bytes, &resp.stats.byte_budget,
        &resp.stats.result_hits, &resp.stats.result_misses,
        &resp.stats.evictions, &resp.stats.eval_batches,
        &resp.stats.eval_requests, &resp.stats.dedup_hits,
        &resp.stats.inflight_waiters, &resp.stats.eval_groups,
        &resp.stats.eval_backend_calls, &resp.stats.program_count,
        &resp.stats.program_hits, &resp.stats.program_misses,
        &resp.stats.active_connections, &resp.stats.rejected_connections,
        &resp.stats.idle_reaped, &resp.stats.loop_wakeups,
        &resp.stats.delta_patched, &resp.stats.delta_fallback_full}) {
    *stat = next;
    next = next * 7 + 1;  // 1, 8, 57, 400, ... up to multi-byte varints.
  }
  resp.generation = 12;
  resp.poly_count = 89;
  resp.monomial_count = 153000;
  resp.variable_count = 111;
  resp.cache_hit = true;
  resp.dedup_hit = true;
  resp.delta_patched = true;
  resp.monomial_loss = 1332;
  resp.variable_loss = 98;
  resp.adequate = true;
  resp.vvs = "{T_root}";
  resp.compressed_monomials = 1068;
  resp.values = {1.5, -2.5, 0.0};
  resp.eval_backend = "compiled,simd_batch";
  resp.points = {{2400, 0}, {1068, 98}};
  resp.algos = {{"opt", "optimal DP", true, true, true, true, true},
                {"anneal", "annealing", false, false, false, true, false}};
  resp.backends = {{"compiled", "CSR walk", false, true, 1},
                   {"simd_batch", "SoA lanes", true, true, 200}};
  resp.scenario_count = 1000;
  resp.program_cache_hit = true;
  resp.scenario_indices = {999, 0, 421};
  resp.objectives = {87.5, -1.25, 0.0};

  std::vector<WireCase> cases;
  cases.push_back(
      MakeCase("LoadRequest", load, EncodeLoadRequest, DecodeLoadRequest));
  cases.push_back(MakeCase("CompressRequest", compress, EncodeCompressRequest,
                           DecodeCompressRequest));
  cases.push_back(MakeCase("EvaluateRequest", evaluate, EncodeEvaluateRequest,
                           DecodeEvaluateRequest));
  cases.push_back(MakeCase("InfoRequest", InfoRequest{"telephony"},
                           EncodeInfoRequest, DecodeInfoRequest));
  cases.push_back(MakeCase("TradeoffRequest",
                           TradeoffRequest{"telephony", "plans"},
                           EncodeTradeoffRequest, DecodeTradeoffRequest));
  cases.push_back(MakeCase("ShutdownRequest", ShutdownRequest{},
                           EncodeShutdownRequest, DecodeShutdownRequest));
  cases.push_back(MakeCase("ListAlgosRequest", ListAlgosRequest{},
                           EncodeListAlgosRequest, DecodeListAlgosRequest));
  cases.push_back(MakeCase("ListBackendsRequest", ListBackendsRequest{},
                           EncodeListBackendsRequest,
                           DecodeListBackendsRequest));
  cases.push_back(MakeCase("EvaluateScenarioProgramRequest", scenario,
                           EncodeEvaluateScenarioProgramRequest,
                           DecodeEvaluateScenarioProgramRequest));
  cases.push_back(MakeCase("AppendRequest", append, EncodeAppendRequest,
                           DecodeAppendRequest));
  cases.push_back(
      MakeCase("Response", resp, EncodeResponse, DecodeResponse));
  return cases;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out += kDigits[static_cast<uint8_t>(c) >> 4];
    out += kDigits[static_cast<uint8_t>(c) & 0xF];
  }
  return out;
}

/// The wire-v7 encoding of every AllKinds() message. A layout change must
/// bump kWireVersion and update these bytes in the same change.
TEST(WireProtocolTest, GoldenBytesAllKinds) {
  const std::vector<std::string> golden = {
      // LoadRequest
      "5056414207100974656c6570686f6e79070001706f6c79ff0205706c616e730a"
      "747265652d6279746573066d6f6e74687300",
      // CompressRequest
      "5056414207110974656c6570686f6e7905706c616e7306677265656479ac02",
      // EvaluateRequest
      "5056414207120974656c6570686f6e7902026d31000000000000e03f05706c61"
      "6e3700000000000002c00105706c616e73056272757465dc0b0a73696d645f62"
      "61746368",
      // InfoRequest
      "5056414207130974656c6570686f6e79",
      // TradeoffRequest
      "5056414207140974656c6570686f6e7905706c616e73",
      // ShutdownRequest
      "505641420715",
      // ListAlgosRequest
      "505641420716",
      // ListBackendsRequest
      "505641420717",
      // EvaluateScenarioProgramRequest
      "5056414207180974656c6570686f6e792b4c45542064203d204752494428302e"
      "352c2031293b205345542050524546495828706c616e29203d20643b0105706c"
      "616e73066772656564798020036a6974038201",
      // AppendRequest
      "5056414207190974656c6570686f6e790700026d6f7265fe",
      // Response
      "50564142072018090b7265747279206c617465720108399003f115989901a9b0"
      "08a0d23ae1bf9a03a8beb91699b4929d01b0ed80cc08d1fd85943cb8efa98ca5"
      "03898ca5d68317c0d483dc99a101c1cf9984b4e808c8acb39decda3df9b7e7cd"
      "f5fbaf03d087d4a0b7e3cf17b1b5cce482b8aea501d8f596c09388c585090c59"
      "a8ab096f010101b40a6201087b545f726f6f747dac0803000000000000f83f00"
      "000000000004c0000000000000000002e01200ac086202036f70740a6f707469"
      "6d616c2044501f06616e6e65616c09616e6e65616c696e670813636f6d70696c"
      "65642c73696d645f62617463680208636f6d70696c6564084353522077616c6b"
      "02010a73696d645f626174636809536f41206c616e657303c801e8070103e707"
      "00a503030000000000e05540000000000000f4bf0000000000000000",
  };
  ASSERT_EQ(kWireVersion, 7);
  const std::vector<WireCase> cases = AllKinds();
  ASSERT_EQ(cases.size(), golden.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    EXPECT_EQ(Hex(cases[c].encoded), golden[c]) << cases[c].kind;
    StatusOr<std::string> reencoded = cases[c].reencode(cases[c].encoded);
    ASSERT_TRUE(reencoded.ok()) << cases[c].kind << ": "
                                << reencoded.status().ToString();
    EXPECT_EQ(*reencoded, cases[c].encoded) << cases[c].kind;
  }
}

// ----------------------------------------------------------- round trips --

TEST(WireProtocolTest, LoadRequestRoundTrip) {
  LoadRequest req;
  req.artifact = "telephony";
  req.polys_bytes = std::string("\x00\x01binary\xFF", 9);
  req.forests = {{"plans", "tree-bytes"}, {"months", ""}};
  auto decoded = DecodeLoadRequest(EncodeLoadRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->artifact, req.artifact);
  EXPECT_EQ(decoded->polys_bytes, req.polys_bytes);
  ASSERT_EQ(decoded->forests.size(), 2u);
  EXPECT_EQ(decoded->forests[0].first, "plans");
  EXPECT_EQ(decoded->forests[0].second, "tree-bytes");
  EXPECT_EQ(decoded->forests[1].first, "months");
}

TEST(WireProtocolTest, AppendRequestRoundTrip) {
  AppendRequest req;
  req.artifact = "telephony";
  req.polys_bytes = std::string("\x00\x02more\xFE", 7);
  auto kind = PeekMessageKind(EncodeAppendRequest(req));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, MessageKind::kAppendRequest);
  auto decoded = DecodeAppendRequest(EncodeAppendRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->artifact, req.artifact);
  EXPECT_EQ(decoded->polys_bytes, req.polys_bytes);
}

TEST(WireProtocolTest, DeltaCountersAndPatchFlagRoundTrip) {
  Response resp;
  resp.stats.loop_wakeups = 5;  // Neighbors must not shift position.
  resp.stats.delta_patched = 21;
  resp.stats.delta_fallback_full = 4;
  resp.generation = 9;
  resp.delta_patched = true;
  resp.dedup_hit = false;
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.loop_wakeups, 5u);
  EXPECT_EQ(decoded->stats.delta_patched, 21u);
  EXPECT_EQ(decoded->stats.delta_fallback_full, 4u);
  EXPECT_EQ(decoded->generation, 9u);
  EXPECT_TRUE(decoded->delta_patched);
}

TEST(WireProtocolTest, CompressRequestRoundTrip) {
  CompressRequest req;
  req.artifact = "a";
  req.forest = "f";
  req.algo = "greedy";
  req.bound = 123456789;
  auto decoded = DecodeCompressRequest(EncodeCompressRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->artifact, "a");
  EXPECT_EQ(decoded->forest, "f");
  EXPECT_EQ(decoded->algo, "greedy");
  EXPECT_EQ(decoded->bound, 123456789u);
}

TEST(WireProtocolTest, EvaluateRequestRoundTrip) {
  EvaluateRequest req;
  req.artifact = "a";
  req.assignments = {{"m1", 0.5}, {"plan7", -2.25}};
  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = 1500;
  req.eval_backend = "simd_batch";
  auto decoded = DecodeEvaluateRequest(EncodeEvaluateRequest(req));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->assignments.size(), 2u);
  EXPECT_EQ(decoded->assignments[0].first, "m1");
  EXPECT_DOUBLE_EQ(decoded->assignments[0].second, 0.5);
  EXPECT_DOUBLE_EQ(decoded->assignments[1].second, -2.25);
  EXPECT_TRUE(decoded->compressed);
  EXPECT_EQ(decoded->forest, "plans");
  EXPECT_EQ(decoded->bound, 1500u);
  EXPECT_EQ(decoded->eval_backend, "simd_batch");

  // The default is the empty name — measured routing server-side.
  auto defaulted = DecodeEvaluateRequest(EncodeEvaluateRequest(EvaluateRequest{}));
  ASSERT_TRUE(defaulted.ok());
  EXPECT_TRUE(defaulted->eval_backend.empty());
}

TEST(WireProtocolTest, EvaluateScenarioProgramRequestRoundTrip) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "telephony";
  req.program = "LET d = SWEEP(0.5 .. 1.0 STEP 0.1); SET PREFIX(plan) = d;";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "greedy";
  req.bound = 4096;
  req.eval_backend = "simd_batch";
  req.shape = ScenarioShape::kTopK;
  req.top_k = 5;
  auto decoded = DecodeEvaluateScenarioProgramRequest(
      EncodeEvaluateScenarioProgramRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->artifact, "telephony");
  EXPECT_EQ(decoded->program, req.program);
  EXPECT_TRUE(decoded->compressed);
  EXPECT_EQ(decoded->forest, "plans");
  EXPECT_EQ(decoded->algo, "greedy");
  EXPECT_EQ(decoded->bound, 4096u);
  EXPECT_EQ(decoded->eval_backend, "simd_batch");
  EXPECT_EQ(decoded->shape, ScenarioShape::kTopK);
  EXPECT_EQ(decoded->top_k, 5u);

  // Defaults: uncompressed, values shape, no top-k.
  auto defaulted = DecodeEvaluateScenarioProgramRequest(
      EncodeEvaluateScenarioProgramRequest(EvaluateScenarioProgramRequest{}));
  ASSERT_TRUE(defaulted.ok());
  EXPECT_FALSE(defaulted->compressed);
  EXPECT_EQ(defaulted->shape, ScenarioShape::kValues);
  EXPECT_EQ(defaulted->top_k, 0u);
}

TEST(WireProtocolTest, UnknownScenarioShapeByteRejected) {
  // With top_k = 0 the trailing varint is one byte, so the shape byte sits
  // second-from-last. A future shape (4) must be rejected by THIS decoder,
  // not silently reinterpreted.
  std::string encoded = EncodeEvaluateScenarioProgramRequest(
      EvaluateScenarioProgramRequest{});
  ASSERT_GE(encoded.size(), 2u);
  encoded[encoded.size() - 2] = 4;
  auto decoded = DecodeEvaluateScenarioProgramRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown scenario result shape"),
            std::string::npos)
      << decoded.status().message();
}

TEST(WireProtocolTest, ScenarioResponseRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kEvaluateScenarioProgramRequest;
  resp.scenario_count = 1000;
  resp.program_cache_hit = true;
  resp.scenario_indices = {999, 0, 421};
  resp.objectives = {87.5, -1.25, 0.0};
  resp.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  resp.eval_backend = "compiled";
  // The batching/program-cache counters ride the same stats block.
  resp.stats.eval_groups = 17;
  resp.stats.eval_backend_calls = 34;
  resp.stats.program_count = 2;
  resp.stats.program_hits = 9;
  resp.stats.program_misses = 3;

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_kind,
            MessageKind::kEvaluateScenarioProgramRequest);
  EXPECT_EQ(decoded->scenario_count, 1000u);
  EXPECT_TRUE(decoded->program_cache_hit);
  EXPECT_EQ(decoded->scenario_indices, (std::vector<uint64_t>{999, 0, 421}));
  ASSERT_EQ(decoded->objectives.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded->objectives[0], 87.5);
  EXPECT_DOUBLE_EQ(decoded->objectives[1], -1.25);
  EXPECT_EQ(decoded->values.size(), 6u);
  EXPECT_EQ(decoded->stats.eval_groups, 17u);
  EXPECT_EQ(decoded->stats.eval_backend_calls, 34u);
  EXPECT_EQ(decoded->stats.program_count, 2u);
  EXPECT_EQ(decoded->stats.program_hits, 9u);
  EXPECT_EQ(decoded->stats.program_misses, 3u);
}

TEST(WireProtocolTest, TransportCounterRoundTrip) {
  // The wire-v6 transport counters (event-loop front end) ride the stats
  // block like every other counter and survive a round trip losslessly.
  Response resp;
  resp.request_kind = MessageKind::kInfoRequest;
  resp.stats.active_connections = 64;
  resp.stats.rejected_connections = 7;
  resp.stats.idle_reaped = 3;
  resp.stats.loop_wakeups = 123456789;
  resp.stats.program_misses = 2;  // Neighbors must not shift position.
  resp.stats.eval_batches = 11;

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.active_connections, 64u);
  EXPECT_EQ(decoded->stats.rejected_connections, 7u);
  EXPECT_EQ(decoded->stats.idle_reaped, 3u);
  EXPECT_EQ(decoded->stats.loop_wakeups, 123456789u);
  EXPECT_EQ(decoded->stats.program_misses, 2u);
  EXPECT_EQ(decoded->stats.eval_batches, 11u);
}

TEST(WireProtocolTest, UnavailableAndDeadlineStatusCodesRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kInfoRequest;
  resp.code = StatusCode::kUnavailable;
  resp.message = "server at its connection limit (1024); retry later";
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kUnavailable);
  EXPECT_NE(decoded->message.find("connection limit"), std::string::npos);

  resp.code = StatusCode::kDeadlineExceeded;
  resp.message = "rpc read timed out after 500 ms";
  decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kDeadlineExceeded);
}

TEST(WireProtocolTest, ListBackendsResponseRoundTrip) {
  EXPECT_TRUE(DecodeListBackendsRequest(
                  EncodeListBackendsRequest(ListBackendsRequest{}))
                  .ok());

  Response resp;
  resp.request_kind = MessageKind::kListBackendsRequest;
  resp.backends = {{"compiled", "single-scenario CSR walk", false, true, 1},
                   {"simd_batch", "SoA lanes, AVX2 when available", true,
                    true, 8},
                   {"jit", "per-artifact native code", false, true, 1}};
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->backends.size(), 3u);
  EXPECT_EQ(decoded->backends[0].name, "compiled");
  EXPECT_EQ(decoded->backends[0].summary, "single-scenario CSR walk");
  EXPECT_FALSE(decoded->backends[0].vectorized);
  EXPECT_TRUE(decoded->backends[0].deterministic);
  EXPECT_EQ(decoded->backends[0].preferred_batch, 1u);
  EXPECT_EQ(decoded->backends[1].name, "simd_batch");
  EXPECT_TRUE(decoded->backends[1].vectorized);
  EXPECT_EQ(decoded->backends[1].preferred_batch, 8u);
  EXPECT_EQ(decoded->backends[2].name, "jit");
  EXPECT_FALSE(decoded->backends[2].vectorized);
  EXPECT_TRUE(decoded->backends[2].deterministic);
}

TEST(WireProtocolTest, BackendFlagSpareBitsAreIgnored) {
  // Servers from before measured routing sent a speed tier in bits 2-3 of
  // a backend record's flags byte. Decoders read only bits 0-1, so such a
  // record still decodes to the same capability.
  Response resp;
  resp.request_kind = MessageKind::kListBackendsRequest;
  resp.backends = {{"jit", "per-artifact native code", false, true, 1}};
  std::string bytes = EncodeResponse(resp);
  const std::string summary = "per-artifact native code";
  const size_t flags_at = bytes.find(summary) + summary.size();
  ASSERT_LT(flags_at, bytes.size());
  ASSERT_EQ(static_cast<uint8_t>(bytes[flags_at]), 2u);  // deterministic
  bytes[flags_at] = static_cast<char>(2u | (3u << 2));   // + old tier 3
  auto decoded = DecodeResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->backends.size(), 1u);
  EXPECT_FALSE(decoded->backends[0].vectorized);
  EXPECT_TRUE(decoded->backends[0].deterministic);
  EXPECT_EQ(decoded->backends[0].preferred_batch, 1u);
}

TEST(WireProtocolTest, EvalBackendEchoRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kEvaluateRequest;
  resp.values = {2.0};
  resp.eval_backend = "simd_batch";
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->eval_backend, "simd_batch");
}

TEST(WireProtocolTest, InfoTradeoffShutdownRoundTrip) {
  InfoRequest info;
  info.artifact = "x";
  auto info_decoded = DecodeInfoRequest(EncodeInfoRequest(info));
  ASSERT_TRUE(info_decoded.ok());
  EXPECT_EQ(info_decoded->artifact, "x");

  TradeoffRequest tradeoff;
  tradeoff.artifact = "x";
  tradeoff.forest = "plans";
  auto tradeoff_decoded =
      DecodeTradeoffRequest(EncodeTradeoffRequest(tradeoff));
  ASSERT_TRUE(tradeoff_decoded.ok());
  EXPECT_EQ(tradeoff_decoded->forest, "plans");

  EXPECT_TRUE(
      DecodeShutdownRequest(EncodeShutdownRequest(ShutdownRequest{})).ok());

  EXPECT_TRUE(
      DecodeListAlgosRequest(EncodeListAlgosRequest(ListAlgosRequest{}))
          .ok());
}

TEST(WireProtocolTest, ListAlgosResponseRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kListAlgosRequest;
  resp.algos = {{"opt", "optimal single-tree DP", true, true, true, true,
                 true},
                {"prox", "pairwise-merge summarizer", true, false, false,
                 false, true},
                {"anneal", "simulated annealing", false, false, false,
                 true, false}};
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->algos.size(), 3u);
  EXPECT_EQ(decoded->algos[0].name, "opt");
  EXPECT_EQ(decoded->algos[0].summary, "optimal single-tree DP");
  EXPECT_TRUE(decoded->algos[0].deterministic);
  EXPECT_TRUE(decoded->algos[0].supports_tradeoff);
  EXPECT_TRUE(decoded->algos[0].exact);
  EXPECT_TRUE(decoded->algos[0].produces_cut);
  EXPECT_TRUE(decoded->algos[0].supports_time_budget);
  EXPECT_EQ(decoded->algos[1].name, "prox");
  EXPECT_TRUE(decoded->algos[1].deterministic);
  EXPECT_FALSE(decoded->algos[1].supports_tradeoff);
  EXPECT_FALSE(decoded->algos[1].exact);
  EXPECT_FALSE(decoded->algos[1].produces_cut);
  EXPECT_TRUE(decoded->algos[1].supports_time_budget);
  EXPECT_EQ(decoded->algos[2].name, "anneal");
  EXPECT_FALSE(decoded->algos[2].deterministic);
  EXPECT_TRUE(decoded->algos[2].produces_cut);
  // A compressor that cannot enforce a wall-clock budget must say so on
  // the wire (flag bit 4), so remote callers reject --budget-ms up front.
  EXPECT_FALSE(decoded->algos[2].supports_time_budget);
}

TEST(WireProtocolTest, ResponseRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kCompressRequest;
  resp.code = StatusCode::kInfeasible;
  resp.message = "no adequate VVS";
  resp.stats = {3, 7, 1 << 20, 1 << 26, 10, 4, 2, 5, 40, 15, 6};
  resp.generation = 12;
  resp.poly_count = 89;
  resp.monomial_count = 2400;
  resp.variable_count = 111;
  resp.cache_hit = true;
  resp.dedup_hit = true;
  resp.monomial_loss = 1332;
  resp.variable_loss = 98;
  resp.adequate = true;
  resp.vvs = "{T_root}";
  resp.compressed_monomials = 1068;
  resp.values = {1.5, -2.5, 0.0};
  resp.points = {{2400, 0}, {1068, 98}};

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_kind, MessageKind::kCompressRequest);
  EXPECT_EQ(decoded->code, StatusCode::kInfeasible);
  EXPECT_EQ(decoded->message, "no adequate VVS");
  EXPECT_FALSE(decoded->ok());
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kInfeasible);
  EXPECT_EQ(decoded->stats.artifact_count, 3u);
  EXPECT_EQ(decoded->stats.eval_requests, 40u);
  EXPECT_EQ(decoded->stats.dedup_hits, 15u);
  EXPECT_EQ(decoded->stats.inflight_waiters, 6u);
  EXPECT_EQ(decoded->generation, 12u);
  EXPECT_EQ(decoded->monomial_count, 2400u);
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_TRUE(decoded->dedup_hit);
  EXPECT_TRUE(decoded->adequate);
  EXPECT_EQ(decoded->vvs, "{T_root}");
  EXPECT_EQ(decoded->compressed_monomials, 1068u);
  ASSERT_EQ(decoded->values.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded->values[1], -2.5);
  ASSERT_EQ(decoded->points.size(), 2u);
  EXPECT_EQ(decoded->points[1].size_m, 1068u);
  EXPECT_EQ(decoded->points[1].variable_loss, 98u);
}

// ----------------------------------------------------------- robustness --

TEST(WireProtocolTest, PeekMessageKind) {
  EXPECT_EQ(*PeekMessageKind(EncodeShutdownRequest(ShutdownRequest{})),
            MessageKind::kShutdownRequest);
  EXPECT_EQ(*PeekMessageKind(EncodeListAlgosRequest(ListAlgosRequest{})),
            MessageKind::kListAlgosRequest);
  EXPECT_EQ(
      *PeekMessageKind(EncodeListBackendsRequest(ListBackendsRequest{})),
      MessageKind::kListBackendsRequest);
  EXPECT_EQ(*PeekMessageKind(EncodeResponse(Response{})),
            MessageKind::kResponse);
  EXPECT_FALSE(PeekMessageKind("").ok());
  EXPECT_FALSE(PeekMessageKind("XVAB\x01\x10").ok());
  // Current header with an unknown kind byte / an artifact kind (1..4):
  // neither is a protocol message.
  std::string header = {'P', 'V', 'A', 'B', static_cast<char>(kWireVersion)};
  EXPECT_FALSE(PeekMessageKind(header + '\x7F').ok());
  EXPECT_FALSE(PeekMessageKind(header + '\x01').ok());
  // A stale protocol version is rejected by name, not misparsed.
  std::string stale = {'P', 'V', 'A', 'B', '\x01',
                       static_cast<char>(MessageKind::kInfoRequest)};
  EXPECT_FALSE(PeekMessageKind(stale).ok());
  EXPECT_FALSE(DecodeInfoRequest(stale).ok());
}

/// Every strict prefix of a valid message must decode to a clean Status
/// error — never a crash, never a bogus success. This is the wire-level
/// twin of the serializer truncation sweep.
TEST(WireProtocolTest, TruncationSweepAllMessages) {
  for (const WireCase& c : AllKinds()) {
    ASSERT_TRUE(c.reencode(c.encoded).ok()) << c.kind;
    for (size_t len = 0; len < c.encoded.size(); ++len) {
      EXPECT_FALSE(c.reencode(std::string_view(c.encoded).substr(0, len)).ok())
          << c.kind << " prefix " << len;
    }
  }
}

/// A decode must consume the whole payload: bytes after the last field
/// mean a mangled frame or a layout the decoder does not know.
TEST(WireProtocolTest, TrailingBytesRejectedAllMessages) {
  for (const WireCase& c : AllKinds()) {
    for (const std::string& extra : {std::string("garbage"),
                                     std::string(2, '\0'),
                                     std::string(1, '\x01')}) {
      StatusOr<std::string> decoded = c.reencode(c.encoded + extra);
      ASSERT_FALSE(decoded.ok()) << c.kind << " + " << extra.size() << " bytes";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << c.kind << ": " << decoded.status().ToString();
    }
  }
}

/// Seeded byte-level mutations (flip, insert, delete) of every kind. Each
/// decode must end in a clean Status or a value whose encoding decodes
/// back to the same bytes; run under ASan/UBSan in CI, a crash or an
/// out-of-bounds read fails it too.
TEST(WireProtocolTest, MutationSweepAllMessages) {
  std::mt19937_64 rng(20191016);
  size_t accepted = 0;
  for (const WireCase& c : AllKinds()) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::string mutated = c.encoded;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) {
        const size_t at = rng() % (mutated.size() + 1);
        const char byte = static_cast<char>(rng() % 256);
        switch (rng() % 3) {
          case 0:
            if (at < mutated.size()) {
              mutated[at] = static_cast<char>(mutated[at] ^ (byte | 1));
            }
            break;
          case 1:
            mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(at), byte);
            break;
          default:
            if (at < mutated.size()) mutated.erase(at, 1);
            break;
        }
      }
      StatusOr<std::string> reencoded = c.reencode(mutated);
      if (!reencoded.ok()) continue;
      ++accepted;
      StatusOr<std::string> again = c.reencode(*reencoded);
      ASSERT_TRUE(again.ok()) << c.kind << " trial " << trial << ": "
                              << again.status().ToString();
      EXPECT_EQ(*again, *reencoded) << c.kind << " trial " << trial;
    }
  }
  // Some mutations (a flipped byte inside a string or a double) still
  // decode; the sweep must have exercised the re-encode path.
  EXPECT_GT(accepted, 0u);
}

TEST(WireProtocolTest, HostileElementCountRejectedBeforeAllocation) {
  // A hand-built evaluate request claiming 10^18 assignments must fail the
  // plausibility check, not attempt a monster reserve.
  ByteWriter w;
  w.PutBytes("PVAB", 4);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(MessageKind::kEvaluateRequest));
  w.PutString("a");
  w.PutVarint(1'000'000'000'000'000'000ull);
  auto decoded = DecodeEvaluateRequest(std::move(w).Release());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireProtocolTest, WrongKindRejected) {
  std::string compress = EncodeCompressRequest(CompressRequest{});
  EXPECT_FALSE(DecodeLoadRequest(compress).ok());
  EXPECT_FALSE(DecodeResponse(compress).ok());
}

// -------------------------------------------------------------- framing --

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, FrameRoundTrip) {
  std::string payload("hello\x00world", 11);
  ASSERT_TRUE(WriteFrame(fds_[0], payload).ok());
  ASSERT_TRUE(WriteFrame(fds_[0], "").ok());
  auto first = ReadFrame(fds_[1]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, payload);
  auto second = ReadFrame(fds_[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 0u);
}

TEST_F(FramingTest, CleanCloseIsNotFound) {
  ::close(fds_[0]);
  fds_[0] = -1;
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
}

TEST_F(FramingTest, MidFrameEofIsOutOfRange) {
  // Length prefix promises 100 bytes; only 3 arrive before close.
  char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kOutOfRange);
}

TEST_F(FramingTest, OversizedLengthPrefixRejected) {
  // 0xFFFFFFFF exceeds kMaxFrameBytes; rejected before any allocation.
  char header[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace provabs
