#ifndef PROVABS_SERVER_CLIENT_H_
#define PROVABS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "server/wire_protocol.h"

namespace provabs {

struct ClientOptions {
  /// Give up on connect() after this long (a firewalled host can
  /// otherwise black-hole the SYN for minutes). <= 0 blocks.
  int64_t connect_timeout_ms = 0;
  /// Per-RPC budget covering the request write and the response read; a
  /// hung server yields kDeadlineExceeded instead of blocking forever.
  /// <= 0 blocks. After a deadline failure the connection is closed —
  /// a late response arriving for an abandoned request would otherwise
  /// desynchronize every later RPC on the stream.
  int64_t rpc_timeout_ms = 0;
};

/// Blocking client for the provabs wire protocol: one TCP connection,
/// synchronous request/response. Used by the `provabs_cli remote-*`
/// subcommands and the end-to-end tests.
///
/// Transport and decode failures surface as the StatusOr error; application
/// errors (unknown artifact, infeasible bound, ...) arrive as a decoded
/// Response whose `code`/`message` carry the server-side Status.
class Client {
 public:
  /// Connects to `host`:`port`. `host` must be a numeric IPv4 address, or
  /// "localhost" (mapped to 127.0.0.1).
  static StatusOr<Client> Connect(const std::string& host, uint16_t port,
                                  const ClientOptions& options = {});

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  StatusOr<Response> Load(const LoadRequest& req);
  StatusOr<Response> Append(const AppendRequest& req);
  StatusOr<Response> Compress(const CompressRequest& req);
  StatusOr<Response> Evaluate(const EvaluateRequest& req);
  StatusOr<Response> EvaluateScenarioProgram(
      const EvaluateScenarioProgramRequest& req);
  StatusOr<Response> Info(const InfoRequest& req);
  StatusOr<Response> Tradeoff(const TradeoffRequest& req);
  StatusOr<Response> Shutdown(const ShutdownRequest& req);
  StatusOr<Response> ListAlgos(const ListAlgosRequest& req);
  StatusOr<Response> ListBackends(const ListBackendsRequest& req);

  /// Writes one encoded request frame and reads back its reply, honoring
  /// rpc_timeout_ms across both halves. The reply is read through
  /// DecodeReply, so a response to another verb is an error, not an
  /// answer. The typed calls above are this with the request encoded.
  StatusOr<Response> Call(const std::string& payload);

 private:
  Client(int fd, int64_t rpc_timeout_ms)
      : fd_(fd), rpc_timeout_ms_(rpc_timeout_ms) {}

  int fd_ = -1;
  int64_t rpc_timeout_ms_ = 0;
};

}  // namespace provabs

#endif  // PROVABS_SERVER_CLIENT_H_
