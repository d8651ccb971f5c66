#include "server/wire_protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <string>
#include <vector>

#include "io/byte_stream.h"

namespace provabs {
namespace {

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
  LoadRequest load;
  load.artifact = "a";
  load.polys_bytes = "0123456789";
  load.forests = {{"f", "forest-bytes"}};
  EvaluateRequest eval;
  eval.artifact = "a";
  eval.assignments = {{"x", 1.0}};
  eval.eval_backend = "simd_batch";
  Response resp;
  resp.message = "msg";
  resp.values = {1.0, 2.0};
  resp.points = {{10, 1}};
  resp.vvs = "{r}";
  resp.algos = {{"opt", "optimal DP", true, true, true, true}};
  resp.eval_backend = "simd_batch";
  resp.backends = {{"simd_batch", "SoA lanes", true, true, 8}};

  struct Case {
    std::string encoded;
    std::function<bool(std::string_view)> decode_ok;
  };
  std::vector<Case> cases;
  cases.push_back({EncodeLoadRequest(load), [](std::string_view d) {
                     return DecodeLoadRequest(d).ok();
                   }});
  cases.push_back(
      {EncodeCompressRequest(CompressRequest{"a", "f", "opt", 9}),
       [](std::string_view d) { return DecodeCompressRequest(d).ok(); }});
  cases.push_back({EncodeEvaluateRequest(eval), [](std::string_view d) {
                     return DecodeEvaluateRequest(d).ok();
                   }});
  cases.push_back({EncodeInfoRequest(InfoRequest{"a"}),
                   [](std::string_view d) {
                     return DecodeInfoRequest(d).ok();
                   }});
  cases.push_back({EncodeTradeoffRequest(TradeoffRequest{"a", "f"}),
                   [](std::string_view d) {
                     return DecodeTradeoffRequest(d).ok();
                   }});
  cases.push_back({EncodeShutdownRequest(ShutdownRequest{}),
                   [](std::string_view d) {
                     return DecodeShutdownRequest(d).ok();
                   }});
  cases.push_back({EncodeListAlgosRequest(ListAlgosRequest{}),
                   [](std::string_view d) {
                     return DecodeListAlgosRequest(d).ok();
                   }});
  cases.push_back({EncodeListBackendsRequest(ListBackendsRequest{}),
                   [](std::string_view d) {
                     return DecodeListBackendsRequest(d).ok();
                   }});
  EvaluateScenarioProgramRequest scenario;
  scenario.artifact = "a";
  scenario.program = "SET * = 1;";
  scenario.eval_backend = "simd_batch";
  scenario.shape = ScenarioShape::kTopK;
  scenario.top_k = 3;
  cases.push_back({EncodeEvaluateScenarioProgramRequest(scenario),
                   [](std::string_view d) {
                     return DecodeEvaluateScenarioProgramRequest(d).ok();
                   }});
  cases.push_back({EncodeResponse(resp), [](std::string_view d) {
                     return DecodeResponse(d).ok();
                   }});
  Response scenario_resp;
  scenario_resp.request_kind = MessageKind::kEvaluateScenarioProgramRequest;
  scenario_resp.scenario_count = 12;
  scenario_resp.program_cache_hit = true;
  scenario_resp.scenario_indices = {4, 7};
  scenario_resp.objectives = {1.5, 0.25};
  scenario_resp.values = {9.0, 8.0};
  scenario_resp.stats.program_misses = 1;
  cases.push_back({EncodeResponse(scenario_resp), [](std::string_view d) {
                     return DecodeResponse(d).ok();
                   }});

  for (size_t c = 0; c < cases.size(); ++c) {
    const std::string& full = cases[c].encoded;
    ASSERT_TRUE(cases[c].decode_ok(full)) << "case " << c;
    for (size_t len = 0; len < full.size(); ++len) {
      EXPECT_FALSE(cases[c].decode_ok(std::string_view(full).substr(0, len)))
          << "case " << c << " prefix " << len;
    }
  }
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
