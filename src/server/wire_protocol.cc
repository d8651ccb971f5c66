#include "server/wire_protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <poll.h>
#include <sys/socket.h>
#include <type_traits>
#include <unistd.h>

#include "common/macros.h"
#include "io/byte_stream.h"

namespace provabs {

namespace {

constexpr char kMagic[4] = {'P', 'V', 'A', 'B'};

// ------------------------------------------------------------ field lists --
//
// Every message's fields, once, in wire order. The writer, the reader and
// the minimum-size counter below all walk these lists, so a list IS its
// message's layout: a field added here is encoded, decoded and counted in
// every element-size check with no other edit (bump kWireVersion and the
// golden bytes in tests/wire_protocol_test.cc with it). `M` is the message
// type or, for the writer, its const form.

template <class M, class T>
using FieldsOf = std::enable_if_t<std::is_same_v<std::remove_const_t<M>, T>>;

template <class V, class M>
FieldsOf<M, LoadRequest> Fields(V& v, M& m) {
  v(m.artifact, m.polys_bytes, m.forests);
}

template <class V, class M>
FieldsOf<M, CompressRequest> Fields(V& v, M& m) {
  v(m.artifact, m.forest, m.algo, m.bound);
}

template <class V, class M>
FieldsOf<M, EvaluateRequest> Fields(V& v, M& m) {
  v(m.artifact, m.assignments, m.compressed, m.forest, m.algo, m.bound,
    m.eval_backend);
}

template <class V, class M>
FieldsOf<M, InfoRequest> Fields(V& v, M& m) {
  v(m.artifact);
}

template <class V, class M>
FieldsOf<M, TradeoffRequest> Fields(V& v, M& m) {
  v(m.artifact, m.forest);
}

/// ShutdownRequest, ListAlgosRequest and ListBackendsRequest are a bare
/// header.
template <class V, class M>
std::enable_if_t<std::is_empty_v<M>> Fields(V&, M&) {}

template <class V, class M>
FieldsOf<M, EvaluateScenarioProgramRequest> Fields(V& v, M& m) {
  v(m.artifact, m.program, m.compressed, m.forest, m.algo, m.bound,
    m.eval_backend);
  v.Enum(m.shape, ScenarioShape::kTopK, "unknown scenario result shape");
  v(m.top_k);
}

template <class V, class M>
FieldsOf<M, AppendRequest> Fields(V& v, M& m) {
  v(m.artifact, m.polys_bytes);
}

template <class V, class M>
FieldsOf<M, TradeoffPoint> Fields(V& v, M& m) {
  v(m.size_m, m.variable_loss);
}

template <class V, class M>
FieldsOf<M, AlgoCapability> Fields(V& v, M& m) {
  v(m.name, m.summary);
  v.Flags(m.deterministic, m.supports_tradeoff, m.exact, m.produces_cut,
          m.supports_time_budget);
}

template <class V, class M>
FieldsOf<M, EvalBackendCapability> Fields(V& v, M& m) {
  v(m.name, m.summary);
  v.Flags(m.vectorized, m.deterministic);
  v(m.preferred_batch);
}

template <class V, class M>
FieldsOf<M, ServerStats> Fields(V& v, M& m) {
  v(m.artifact_count, m.result_count, m.cached_bytes, m.byte_budget,
    m.result_hits, m.result_misses, m.evictions, m.eval_batches,
    m.eval_requests, m.dedup_hits, m.inflight_waiters, m.eval_groups,
    m.eval_backend_calls, m.program_count, m.program_hits, m.program_misses,
    m.active_connections, m.rejected_connections, m.idle_reaped,
    m.loop_wakeups, m.delta_patched, m.delta_fallback_full);
}

template <class V, class M>
FieldsOf<M, Response> Fields(V& v, M& m) {
  v.Enum(m.request_kind);  // Echoed as the server sent it, unvalidated.
  v.Enum(m.code, StatusCode::kUnavailable, "unknown status code in response");
  v(m.message, m.stats);
  v(m.generation, m.poly_count, m.monomial_count, m.variable_count);
  v(m.cache_hit, m.dedup_hit, m.delta_patched, m.monomial_loss,
    m.variable_loss, m.adequate, m.vvs, m.compressed_monomials);
  v(m.values, m.points, m.algos, m.eval_backend, m.backends);
  v(m.scenario_count, m.program_cache_hit, m.scenario_indices, m.objectives);
}

// --------------------------------------------------------------- visitors --
//
// Encodings: a string is a varint length and its bytes; an unsigned
// integer a LEB128 varint; a bool or an enum one byte; Flags one byte with
// bit i holding the i-th bool; a double 8 little-endian bytes; a vector a
// varint count and its elements; a pair or a nested struct its members in
// order.

class Writer {
 public:
  template <class... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }
  template <class E>
  void Enum(const E& field, E = E{}, const char* = nullptr) {
    out.PutU8(static_cast<uint8_t>(field));
  }
  template <class... Bits>
  void Flags(const Bits&... bits) {
    unsigned flags = 0, shift = 0;
    ((flags |= unsigned{bits} << shift++), ...);
    out.PutU8(static_cast<uint8_t>(flags));
  }

  ByteWriter out;

 private:
  void Put(const std::string& s) { out.PutString(s); }
  void Put(bool b) { out.PutU8(b ? 1 : 0); }
  void Put(double d) { out.PutDouble(d); }
  template <class A, class B>
  void Put(const std::pair<A, B>& p) {
    Put(p.first);
    Put(p.second);
  }
  template <class T>
  void Put(const std::vector<T>& items) {
    out.PutVarint(items.size());
    for (const T& item : items) Put(item);
  }
  template <class T>
  void Put(const T& field) {
    if constexpr (std::is_integral_v<T>) {
      out.PutVarint(field);
    } else {
      Fields(*this, field);
    }
  }
};

/// Counts the fewest bytes a value can encode to: 8 for a double, the sum
/// of the members for a pair or a struct, and 1 for anything else (an
/// empty string or vector included).
class MinSize {
 public:
  template <class... Ts>
  void operator()(Ts&... fields) {
    (Count(fields), ...);
  }
  template <class E>
  void Enum(E&, E = E{}, const char* = nullptr) {
    ++bytes;
  }
  template <class... Bits>
  void Flags(Bits&...) {
    ++bytes;
  }

  size_t bytes = 0;

 private:
  void Count(std::string&) { ++bytes; }
  void Count(double&) { bytes += 8; }
  template <class A, class B>
  void Count(std::pair<A, B>& p) {
    Count(p.first);
    Count(p.second);
  }
  template <class T>
  void Count(std::vector<T>&) {
    ++bytes;
  }
  template <class T>
  void Count(T& field) {
    if constexpr (std::is_integral_v<T>) {
      ++bytes;
    } else {
      Fields(*this, field);
    }
  }
};

template <class T>
size_t MinBytes() {
  static const size_t bytes = [] {
    T value{};
    MinSize counter;
    counter(value);
    return counter.bytes;
  }();
  return bytes;
}

/// Reads fields in list order. The first field that fails sets `status`
/// and every later one is skipped, so a decode reports the first failure.
class Reader {
 public:
  explicit Reader(ByteReader& in) : in_(in) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    ((status.ok() ? Get(fields) : void()), ...);
  }
  /// A byte above `max` fails with `error`; without a bound any byte
  /// decodes.
  template <class E>
  void Enum(E& field, E max = static_cast<E>(0xFF), const char* error = "") {
    uint8_t byte = 0;
    if (!status.ok() || !Take(in_.GetU8(), byte)) return;
    if (byte > static_cast<uint8_t>(max)) {
      status = Status::InvalidArgument(error);
      return;
    }
    field = static_cast<E>(byte);
  }
  /// Spare bits are ignored, so a peer may define new ones.
  template <class... Bits>
  void Flags(Bits&... bits) {
    uint8_t flags = 0;
    if (!status.ok() || !Take(in_.GetU8(), flags)) return;
    unsigned shift = 0;
    ((bits = ((flags >> shift++) & 1) != 0), ...);
  }

  Status status;

 private:
  template <class T>
  bool Take(StatusOr<T> got, T& out) {
    if (!got.ok()) {
      status = got.status();
      return false;
    }
    out = std::move(*got);
    return true;
  }

  void Get(std::string& s) { Take(in_.GetString(), s); }
  void Get(double& d) { Take(in_.GetDouble(), d); }
  void Get(bool& b) {
    uint8_t byte = 0;
    if (Take(in_.GetU8(), byte)) b = byte != 0;
  }
  template <class A, class B>
  void Get(std::pair<A, B>& p) {
    (*this)(p.first, p.second);
  }
  template <class T>
  void Get(std::vector<T>& items) {
    uint64_t count = 0;
    if (!Take(in_.GetVarint(), count)) return;
    // Same hardening as io/serializer.cc: every element occupies at least
    // MinBytes<T>(), so a count the remaining bytes cannot hold is
    // rejected BEFORE reserving memory.
    if (count > in_.remaining() / MinBytes<T>() + 1) {
      status = Status::InvalidArgument("corrupt element count in message");
      return;
    }
    items.reserve(count);
    for (uint64_t i = 0; i < count && status.ok(); ++i) {
      items.emplace_back();
      Get(items.back());
    }
  }
  template <class T>
  void Get(T& field) {
    if constexpr (std::is_integral_v<T>) {
      uint64_t value = 0;
      if (Take(in_.GetVarint(), value)) field = static_cast<T>(value);
    } else {
      Fields(*this, field);
    }
  }

  ByteReader& in_;
};

// ------------------------------------------------------------------ codec --

/// Checks the magic and version, then returns the kind byte.
StatusOr<uint8_t> ReadHeader(ByteReader& in) {
  for (char expected : kMagic) {
    auto byte = in.GetU8();
    if (!byte.ok()) return byte.status();
    if (static_cast<char>(*byte) != expected) {
      return Status::InvalidArgument("bad magic (not a provabs message)");
    }
  }
  auto version = in.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  return in.GetU8();
}

template <class M>
std::string Encode(MessageKind kind, const M& msg) {
  Writer writer;
  writer.out.PutBytes(kMagic, 4);
  writer.out.PutU8(kWireVersion);
  writer.out.PutU8(static_cast<uint8_t>(kind));
  writer(msg);
  return std::move(writer.out).Release();
}

template <class M>
StatusOr<M> Decode(MessageKind kind, std::string_view payload) {
  ByteReader in(payload);
  StatusOr<uint8_t> got = ReadHeader(in);
  if (!got.ok()) return got.status();
  if (*got != static_cast<uint8_t>(kind)) {
    return Status::InvalidArgument("payload holds a different message kind");
  }
  M msg;
  Reader reader(in);
  reader(msg);
  if (!reader.status.ok()) return reader.status;
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the message");
  }
  return msg;
}

}  // namespace

StatusOr<MessageKind> PeekMessageKind(std::string_view payload) {
  ByteReader in(payload);
  StatusOr<uint8_t> kind = ReadHeader(in);
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

std::string EncodeLoadRequest(const LoadRequest& req) {
  return Encode(MessageKind::kLoadRequest, req);
}
std::string EncodeCompressRequest(const CompressRequest& req) {
  return Encode(MessageKind::kCompressRequest, req);
}
std::string EncodeEvaluateRequest(const EvaluateRequest& req) {
  return Encode(MessageKind::kEvaluateRequest, req);
}
std::string EncodeInfoRequest(const InfoRequest& req) {
  return Encode(MessageKind::kInfoRequest, req);
}
std::string EncodeTradeoffRequest(const TradeoffRequest& req) {
  return Encode(MessageKind::kTradeoffRequest, req);
}
std::string EncodeShutdownRequest(const ShutdownRequest& req) {
  return Encode(MessageKind::kShutdownRequest, req);
}
std::string EncodeListAlgosRequest(const ListAlgosRequest& req) {
  return Encode(MessageKind::kListAlgosRequest, req);
}
std::string EncodeListBackendsRequest(const ListBackendsRequest& req) {
  return Encode(MessageKind::kListBackendsRequest, req);
}
std::string EncodeEvaluateScenarioProgramRequest(
    const EvaluateScenarioProgramRequest& req) {
  return Encode(MessageKind::kEvaluateScenarioProgramRequest, req);
}
std::string EncodeAppendRequest(const AppendRequest& req) {
  return Encode(MessageKind::kAppendRequest, req);
}
std::string EncodeResponse(const Response& resp) {
  return Encode(MessageKind::kResponse, resp);
}

StatusOr<LoadRequest> DecodeLoadRequest(std::string_view payload) {
  return Decode<LoadRequest>(MessageKind::kLoadRequest, payload);
}
StatusOr<CompressRequest> DecodeCompressRequest(std::string_view payload) {
  return Decode<CompressRequest>(MessageKind::kCompressRequest, payload);
}
StatusOr<EvaluateRequest> DecodeEvaluateRequest(std::string_view payload) {
  return Decode<EvaluateRequest>(MessageKind::kEvaluateRequest, payload);
}
StatusOr<InfoRequest> DecodeInfoRequest(std::string_view payload) {
  return Decode<InfoRequest>(MessageKind::kInfoRequest, payload);
}
StatusOr<TradeoffRequest> DecodeTradeoffRequest(std::string_view payload) {
  return Decode<TradeoffRequest>(MessageKind::kTradeoffRequest, payload);
}
StatusOr<ShutdownRequest> DecodeShutdownRequest(std::string_view payload) {
  return Decode<ShutdownRequest>(MessageKind::kShutdownRequest, payload);
}
StatusOr<ListAlgosRequest> DecodeListAlgosRequest(std::string_view payload) {
  return Decode<ListAlgosRequest>(MessageKind::kListAlgosRequest, payload);
}
StatusOr<ListBackendsRequest> DecodeListBackendsRequest(
    std::string_view payload) {
  return Decode<ListBackendsRequest>(MessageKind::kListBackendsRequest,
                                     payload);
}
StatusOr<EvaluateScenarioProgramRequest> DecodeEvaluateScenarioProgramRequest(
    std::string_view payload) {
  return Decode<EvaluateScenarioProgramRequest>(
      MessageKind::kEvaluateScenarioProgramRequest, payload);
}
StatusOr<AppendRequest> DecodeAppendRequest(std::string_view payload) {
  return Decode<AppendRequest>(MessageKind::kAppendRequest, payload);
}
StatusOr<Response> DecodeResponse(std::string_view payload) {
  return Decode<Response>(MessageKind::kResponse, payload);
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
