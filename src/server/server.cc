#include "server/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "server/wire_protocol.h"

namespace provabs {

namespace {

// epoll_event.data.u64 keys for the two loop-owned fds; connection ids
// start at 2 and never collide.
constexpr uint64_t kListenKey = 0;
constexpr uint64_t kWakeKey = 1;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void AppendFrameHeader(std::string& out, size_t payload_size) {
  uint32_t len = static_cast<uint32_t>(payload_size);
  out.push_back(static_cast<char>(len & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
}

uint32_t ReadFrameLength(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

Server::Server(ProvenanceService& service, const ServerOptions& options)
    : service_(service), options_(options) {}

Server::~Server() {
  Shutdown();
  Wait();
}

std::string Server::BuildRejectionFrame(const std::string& reason) const {
  Response resp;
  resp.code = StatusCode::kUnavailable;
  resp.message = reason;
  std::string payload = EncodeResponse(resp);
  std::string frame;
  frame.reserve(payload.size() + 4);
  AppendFrameHeader(frame, payload.size());
  frame += payload;
  return frame;
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("Start() may only be called once");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            std::strerror(errno));
  }
  auto fail = [this](Status s) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = reserve_fd_ = -1;
    return s;
  };
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("not a numeric IPv4 address: " +
                                        options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail(Status::Internal("bind(" + options_.host + ":" +
                                 std::to_string(options_.port) +
                                 ") failed: " + std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return fail(Status::Internal(std::string("getsockname() failed: ") +
                                 std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) != 0) {
    return fail(Status::Internal(std::string("listen() failed: ") +
                                 std::strerror(errno)));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return fail(Status::Internal(std::string("epoll_create1() failed: ") +
                                 std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return fail(Status::Internal(std::string("eventfd() failed: ") +
                                 std::strerror(errno)));
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail(Status::Internal(std::string("epoll_ctl(listen) failed: ") +
                                 std::strerror(errno)));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail(Status::Internal(std::string("epoll_ctl(wake) failed: ") +
                                 std::strerror(errno)));
  }

  if (options_.idle_timeout_ms > 0) {
    wheel_tick_ms_ = std::min<uint64_t>(
        std::max<uint64_t>(options_.idle_timeout_ms / 8, 10), 1000);
    wheel_last_tick_ = NowMs() / wheel_tick_ms_;
  }

  size_t workers = options_.worker_threads != 0
                       ? options_.worker_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  workers_ = std::make_unique<ThreadPool>(workers);

  service_.SetTransportStatsProvider([this](ServerStats& s) {
    s.active_connections = active_connections_.load();
    s.rejected_connections = rejected_connections_.load();
    s.idle_reaped = idle_reaped_.load();
    s.loop_wakeups = loop_wakeups_.load();
  });

  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Server::WakeLoop() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  // EAGAIN (counter saturated) still wakes the loop; nothing to handle.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::Shutdown() {
  if (shutting_down_.exchange(true)) return;
  WakeLoop();
}

Server::TransportStats Server::transport_stats() const {
  TransportStats s;
  s.active_connections = active_connections_.load();
  s.rejected_connections = rejected_connections_.load();
  s.idle_reaped = idle_reaped_.load();
  s.loop_wakeups = loop_wakeups_.load();
  return s;
}

void Server::Loop() {
  std::vector<epoll_event> events(64);
  for (;;) {
    int timeout = -1;
    uint64_t now = NowMs();
    if (shutting_down_.load() && !draining_) BeginDrain(now);
    if (draining_ && conns_.empty()) break;
    if (draining_) {
      timeout = drain_deadline_ms_ > now
                    ? static_cast<int>(drain_deadline_ms_ - now)
                    : 0;
    } else if (wheel_tick_ms_ > 0 && !conns_.empty()) {
      timeout = static_cast<int>(wheel_tick_ms_);
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout);
    loop_wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd is irrecoverably broken; exit and clean up.
    }
    now = NowMs();
    for (int i = 0; i < n; ++i) {
      uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        AcceptAll(now);
      } else if (key == kWakeKey) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else {
        HandleConnEvent(key, events[i].events, now);
      }
    }
    ProcessCompletions(now);
    if (shutting_down_.load() && !draining_) BeginDrain(now);
    WheelAdvance(now);
    if (draining_) {
      if (conns_.empty()) break;
      if (now >= drain_deadline_ms_) break;  // drain budget exhausted
    }
  }
  // Force-close whatever survived the drain window.
  std::vector<uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) remaining.push_back(id);
  for (uint64_t id : remaining) CloseConn(id);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptAll(uint64_t now_ms) {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // fd exhaustion: free the reserve descriptor, accept the waiting
        // connection, tell it why, and close — the backlog must not
        // silently fill while clients see neither accept nor error.
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
        }
        int victim = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (victim >= 0) {
          std::string frame = BuildRejectionFrame(
              "server out of file descriptors; retry later");
          // Best effort: the frame is smaller than any socket buffer, so
          // a single send normally delivers it whole.
          [[maybe_unused]] ssize_t sent =
              ::send(victim, frame.data(), frame.size(), MSG_NOSIGNAL);
          ::shutdown(victim, SHUT_WR);
          ::close(victim);
          rejected_connections_.fetch_add(1, std::memory_order_relaxed);
        }
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (victim < 0) break;
        continue;
      }
      break;  // Listener closed or irrecoverably broken.
    }
    // Responses are written as soon as they are ready; letting Nagle hold
    // them for a delayed ACK stalls every strict request/response client.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (draining_) {
      ::close(fd);
      continue;
    }
    if (admitted_ >= options_.max_connections) {
      RejectConnection(
          fd, now_ms,
          "server at its connection limit (" +
              std::to_string(options_.max_connections) + "); retry later");
      continue;
    }
    uint64_t id = next_conn_id_++;
    Conn conn;
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    auto it = conns_.emplace(id, std::move(conn)).first;
    ++admitted_;
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    WheelInsert(it->second, now_ms);
  }
}

void Server::RejectConnection(int fd, uint64_t now_ms,
                              const std::string& reason) {
  rejected_connections_.fetch_add(1, std::memory_order_relaxed);
  uint64_t id = next_conn_id_++;
  Conn conn;
  conn.fd = fd;
  conn.id = id;
  conn.rejected = true;
  conn.close_after_flush = true;
  conn.out = BuildRejectionFrame(reason);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  auto it = conns_.emplace(id, std::move(conn)).first;
  WheelInsert(it->second, now_ms);
  if (!FlushWrites(it->second)) return;
  MaybeCloseFlushed(it->second);
}

void Server::HandleConnEvent(uint64_t id, uint32_t events, uint64_t now_ms) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // Closed earlier this iteration.
  Conn& conn = it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(id);
    return;
  }
  if (events & EPOLLIN) {
    if (!ReadAvailable(conn, now_ms)) return;
  }
  if (events & EPOLLOUT) {
    if (!FlushWrites(conn)) return;
  }
  MaybeCloseFlushed(conn);
}

bool Server::ReadAvailable(Conn& conn, uint64_t now_ms) {
  char buf[64 * 1024];
  bool got_bytes = false;
  for (;;) {
    ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn.id);
      return false;
    }
    if (r == 0) {
      conn.eof = true;
      break;
    }
    got_bytes = true;
    // Rejected connections and draining servers read-drain only: the
    // bytes keep level-triggered EPOLLIN quiet and let us detect EOF.
    if (conn.rejected || draining_) continue;
    conn.in.append(buf, static_cast<size_t>(r));
  }
  if (!conn.rejected && !draining_) {
    if (!ExtractFrames(conn)) {
      CloseConn(conn.id);
      return false;
    }
    if (got_bytes) WheelInsert(conn, now_ms);
    DispatchNext(conn);
  }
  if (conn.eof) {
    // Peer sent FIN. Finish what is already in flight / queued (a
    // half-closed peer may still read responses), then close. A partial
    // inbound frame is simply abandoned — it can never complete.
    conn.close_after_flush = true;
    conn.in.clear();
  }
  return true;
}

bool Server::ExtractFrames(Conn& conn) {
  size_t off = 0;
  while (conn.in.size() - off >= 4) {
    uint32_t len = ReadFrameLength(conn.in.data() + off);
    if (len > kMaxFrameBytes) return false;  // Protocol violation.
    if (conn.in.size() - off - 4 < len) break;
    conn.pending.emplace_back(conn.in.substr(off + 4, len));
    off += 4 + len;
  }
  conn.in.erase(0, off);
  return true;
}

void Server::DispatchNext(Conn& conn) {
  if (conn.in_flight || conn.pending.empty() || draining_) return;
  conn.in_flight = true;
  std::string payload = std::move(conn.pending.front());
  conn.pending.pop_front();
  uint64_t id = conn.id;
  workers_->Submit([this, id, payload = std::move(payload)]() mutable {
    bool shutdown = false;
    std::string reply = service_.HandleFrame(payload, &shutdown);
    {
      std::lock_guard<std::mutex> lock(comp_mutex_);
      completions_.push_back(Completion{id, std::move(reply), shutdown});
    }
    WakeLoop();
  });
}

void Server::ProcessCompletions(uint64_t now_ms) {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(comp_mutex_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    if (c.shutdown) shutting_down_.store(true);
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // Peer vanished mid-request.
    Conn& conn = it->second;
    conn.in_flight = false;
    QueueFrame(conn, c.reply);
    if (c.shutdown) conn.close_after_flush = true;
    WheelInsert(conn, now_ms);
    if (!FlushWrites(conn)) continue;
    DispatchNext(conn);
    MaybeCloseFlushed(conn);
  }
}

void Server::QueueFrame(Conn& conn, std::string_view payload) {
  AppendFrameHeader(conn.out, payload.size());
  conn.out.append(payload.data(), payload.size());
}

bool Server::FlushWrites(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                       conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        UpdateEpollOut(conn, true);
        return true;
      }
      CloseConn(conn.id);
      return false;
    }
    conn.out_off += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_off = 0;
  UpdateEpollOut(conn, false);
  return true;
}

void Server::UpdateEpollOut(Conn& conn, bool want) {
  if (conn.epollout == want) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.epollout = want;
}

void Server::MaybeCloseFlushed(Conn& conn) {
  if (!conn.close_after_flush) return;
  if (conn.in_flight || !conn.pending.empty()) return;
  if (conn.out_off < conn.out.size()) return;
  if (conn.rejected && !conn.eof) {
    // The rejection frame is flushed; half-close and wait for the peer's
    // EOF so closing cannot turn the frame into a lost RST.
    if (!conn.shut_wr) {
      ::shutdown(conn.fd, SHUT_WR);
      conn.shut_wr = true;
    }
    return;
  }
  CloseConn(conn.id);
}

void Server::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  if (!conn.rejected) {
    --admitted_;
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.erase(it);  // Stale wheel entries are skipped lazily.
}

void Server::WheelInsert(Conn& conn, uint64_t now_ms) {
  if (wheel_tick_ms_ == 0) return;
  // Rejected connections only wait for the peer to read the error frame;
  // give them a short leash independent of the configured idle budget.
  uint64_t budget = conn.rejected
                        ? std::min<uint64_t>(options_.idle_timeout_ms, 5000)
                        : options_.idle_timeout_ms;
  conn.idle_deadline_ms = now_ms + budget;
  wheel_[WheelBucket(conn.idle_deadline_ms)].push_back(conn.id);
}

size_t Server::WheelBucket(uint64_t deadline_ms) const {
  // The first tick at or after the deadline: its bucket is visited only
  // once now >= that tick's start >= the deadline, so the visit finds the
  // entry expired. The tick containing the deadline could be visited
  // before the deadline, and the re-home below would then put the entry
  // back into the bucket just drained, a whole revolution late.
  return static_cast<size_t>(
      ((deadline_ms + wheel_tick_ms_ - 1) / wheel_tick_ms_) % kWheelBuckets);
}

void Server::WheelAdvance(uint64_t now_ms) {
  if (wheel_tick_ms_ == 0) return;
  uint64_t cur = now_ms / wheel_tick_ms_;
  if (cur <= wheel_last_tick_) return;
  uint64_t steps = cur - wheel_last_tick_;
  // After a long quiet stretch one revolution visits every bucket; any
  // expired entry is found because expiry checks absolute deadlines.
  if (steps > kWheelBuckets) steps = kWheelBuckets;
  for (uint64_t s = 1; s <= steps; ++s) {
    size_t bucket = static_cast<size_t>((wheel_last_tick_ + s) %
                                        kWheelBuckets);
    std::vector<uint64_t> ids;
    ids.swap(wheel_[bucket]);
    for (uint64_t id : ids) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // Closed since scheduling: stale.
      Conn& conn = it->second;
      if (conn.idle_deadline_ms > now_ms) {
        // Activity pushed the deadline out; re-home to its current slot.
        wheel_[WheelBucket(conn.idle_deadline_ms)].push_back(id);
        continue;
      }
      if (conn.in_flight) {
        // A request is still executing; not idle. Check again next lap.
        wheel_[bucket].push_back(id);
        continue;
      }
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(id);
    }
  }
  wheel_last_tick_ = cur;
}

void Server::BeginDrain(uint64_t now_ms) {
  draining_ = true;
  drain_deadline_ms_ = now_ms + options_.drain_timeout_ms;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) {
    // Finish what is executing, flush what is queued; never start more.
    conn.pending.clear();
    conn.in.clear();
    conn.close_after_flush = true;
    ids.push_back(id);
  }
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it != conns_.end()) MaybeCloseFlushed(it->second);
  }
}

void Server::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
  if (joined_) return;
  joined_ = true;
  // Workers may still be finishing handler tasks whose connections are
  // gone; they only touch the completion queue and the wakeup eventfd,
  // both still alive here. Destroying the pool joins them.
  workers_.reset();
  if (started_.load()) service_.SetTransportStatsProvider(nullptr);
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
}

}  // namespace provabs
