#include "server/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace provabs {

namespace {

/// Connects with a deadline: flip the socket non-blocking, start the
/// connect, poll for writability, then read the outcome via SO_ERROR.
/// The socket is restored to blocking mode on success (frame-level
/// deadlines use poll and work on blocking sockets).
Status ConnectWithTimeout(int fd, const sockaddr_in& addr,
                          int64_t timeout_ms, const std::string& where) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl() failed: ") +
                            std::strerror(errno));
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    return Status::NotFound("cannot connect to " + where + ": " +
                            std::strerror(errno));
  }
  if (rc != 0) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    for (;;) {
      int pr = ::poll(&p, 1, static_cast<int>(timeout_ms));
      if (pr > 0) break;
      if (pr == 0) {
        return Status::DeadlineExceeded("connect to " + where +
                                        " timed out after " +
                                        std::to_string(timeout_ms) + " ms");
      }
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll failed: ") +
                              std::strerror(errno));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return Status::NotFound("cannot connect to " + where + ": " +
                              std::strerror(err != 0 ? err : errno));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return Status::Internal(std::string("fcntl() failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Client> Client::Connect(const std::string& host, uint16_t port,
                                 const ClientOptions& options) {
  std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            std::strerror(errno));
  }
  std::string where = numeric + ":" + std::to_string(port);
  if (options.connect_timeout_ms > 0) {
    Status s = ConnectWithTimeout(fd, addr, options.connect_timeout_ms,
                                  where);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    Status s = Status::NotFound("cannot connect to " + where + ": " +
                                std::strerror(errno));
    ::close(fd);
    return s;
  }
  // The protocol is strict request/response with small frames; Nagle's
  // algorithm interacting with delayed ACKs would add tens of milliseconds
  // of idle stall to every round trip after the first.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd, options.rpc_timeout_ms);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), rpc_timeout_ms_(other.rpc_timeout_ms_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    rpc_timeout_ms_ = other.rpc_timeout_ms_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Response> Client::Call(const std::string& payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  Status written = WriteFrame(fd_, payload, rpc_timeout_ms_);
  if (!written.ok()) {
    if (written.code() == StatusCode::kDeadlineExceeded) {
      ::close(fd_);
      fd_ = -1;
    }
    return written;
  }
  auto reply = ReadFrame(fd_, rpc_timeout_ms_);
  if (!reply.ok()) {
    if (reply.status().code() == StatusCode::kDeadlineExceeded) {
      ::close(fd_);
      fd_ = -1;
    }
    return reply.status();
  }
  return DecodeReply(payload, *reply);
}

StatusOr<Response> Client::Load(const LoadRequest& req) {
  return Call(EncodeLoadRequest(req));
}

StatusOr<Response> Client::Append(const AppendRequest& req) {
  return Call(EncodeAppendRequest(req));
}

StatusOr<Response> Client::Compress(const CompressRequest& req) {
  return Call(EncodeCompressRequest(req));
}

StatusOr<Response> Client::Evaluate(const EvaluateRequest& req) {
  return Call(EncodeEvaluateRequest(req));
}

StatusOr<Response> Client::EvaluateScenarioProgram(
    const EvaluateScenarioProgramRequest& req) {
  return Call(EncodeEvaluateScenarioProgramRequest(req));
}

StatusOr<Response> Client::Info(const InfoRequest& req) {
  return Call(EncodeInfoRequest(req));
}

StatusOr<Response> Client::Tradeoff(const TradeoffRequest& req) {
  return Call(EncodeTradeoffRequest(req));
}

StatusOr<Response> Client::Shutdown(const ShutdownRequest& req) {
  return Call(EncodeShutdownRequest(req));
}

StatusOr<Response> Client::ListAlgos(const ListAlgosRequest& req) {
  return Call(EncodeListAlgosRequest(req));
}

StatusOr<Response> Client::ListBackends(const ListBackendsRequest& req) {
  return Call(EncodeListBackendsRequest(req));
}

}  // namespace provabs
