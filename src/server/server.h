#ifndef PROVABS_SERVER_SERVER_H_
#define PROVABS_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "parallel/thread_pool.h"
#include "server/provenance_service.h"

namespace provabs {

struct ServerOptions {
  /// Numeric IPv4 address to bind; analysts connect over loopback in the
  /// paper's single-site deployment, wider binds are for LAN serving.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Admission limit: connection #(max+1) receives a structured
  /// kUnavailable response and is closed instead of being served.
  size_t max_connections = 1024;
  /// A connection with no completed request activity for this long is
  /// closed by the timer wheel. 0 disables idle reaping.
  uint64_t idle_timeout_ms = 300000;
  /// On shutdown the server stops accepting, finishes in-flight requests
  /// and flushes their responses, but force-closes everything after this
  /// long so a stalled peer cannot hold the process open.
  uint64_t drain_timeout_ms = 5000;
  /// Worker threads executing decoded requests off the event loop;
  /// 0 = hardware concurrency.
  size_t worker_threads = 0;
};

/// Socket front end of the serving subsystem: a single epoll event loop
/// owns every socket (the listener, a wakeup eventfd, and all client
/// connections) and runs the framed-I/O state machine — non-blocking
/// accept, incremental reads assembling length-prefixed frames, buffered
/// partial writes flushed on EPOLLOUT. Decoded requests execute on a fixed
/// worker pool so a long compression DP never blocks other connections;
/// workers hand finished responses back to the loop through a completion
/// queue and an eventfd kick. N idle connections therefore cost N file
/// descriptors and zero threads: the process runs exactly 1 loop thread +
/// `worker_threads` workers regardless of connection count.
///
/// The service owns all state; the server owns only sockets and threads,
/// so unit tests can exercise the service without any of this file.
class Server {
 public:
  /// Snapshot of the transport counters (also surfaced in every response's
  /// stats block via the service's transport-stats provider).
  struct TransportStats {
    uint64_t active_connections = 0;   ///< gauge of admitted connections
    uint64_t rejected_connections = 0; ///< admission + fd-exhaustion rejects
    uint64_t idle_reaped = 0;          ///< closes by the idle timer wheel
    uint64_t loop_wakeups = 0;         ///< epoll_wait returns
  };

  /// `service` must outlive the server.
  Server(ProvenanceService& service, const ServerOptions& options);

  /// Shuts down and joins all threads.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop + worker pool. Call once.
  Status Start();

  /// The actually bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Blocks until the server has shut down (via Shutdown() or a wire
  /// shutdown request) and the loop + worker threads have exited.
  void Wait();

  /// Begins a graceful drain: stop accepting, finish in-flight requests,
  /// flush their responses, then close (force-closing at
  /// drain_timeout_ms). Idempotent; safe from any thread, including
  /// workers.
  void Shutdown();

  TransportStats transport_stats() const;

 private:
  /// Per-connection framed-I/O state machine. Bytes accumulate in `in`
  /// until a full [u32 length][payload] frame is available; encoded
  /// responses append to `out` and drain opportunistically, falling back
  /// to EPOLLOUT when the socket buffer fills.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string in;
    std::string out;
    size_t out_off = 0;
    /// Complete request payloads not yet dispatched. One request per
    /// connection executes at a time so responses keep request order.
    std::deque<std::string> pending;
    bool in_flight = false;
    /// Close once `out` drains and no request is in flight (EOF seen,
    /// rejection sent, or shutdown goodbye queued).
    bool close_after_flush = false;
    /// Admission rejection: after the error frame flushes we SHUT_WR and
    /// read-drain until peer EOF so the frame is never lost to a RST.
    bool rejected = false;
    bool shut_wr = false;
    bool eof = false;
    bool epollout = false;
    uint64_t idle_deadline_ms = 0;
  };

  struct Completion {
    uint64_t conn_id;
    std::string reply;
    bool shutdown;
  };

  void Loop();
  void AcceptAll(uint64_t now_ms);
  void RejectConnection(int fd, uint64_t now_ms, const std::string& reason);
  void HandleConnEvent(uint64_t id, uint32_t events, uint64_t now_ms);
  /// Reads until EAGAIN/EOF, assembling frames and dispatching. Returns
  /// false when the connection was closed (error or protocol violation).
  bool ReadAvailable(Conn& conn, uint64_t now_ms);
  /// Extracts complete frames from conn.in into conn.pending; returns
  /// false on a protocol violation (oversized frame) — caller closes.
  bool ExtractFrames(Conn& conn);
  void DispatchNext(Conn& conn);
  /// Writes as much of conn.out as the socket accepts; arms/disarms
  /// EPOLLOUT; returns false when the connection died mid-write.
  bool FlushWrites(Conn& conn);
  void QueueFrame(Conn& conn, std::string_view payload);
  void ProcessCompletions(uint64_t now_ms);
  void CloseConn(uint64_t id);
  void MaybeCloseFlushed(Conn& conn);
  void UpdateEpollOut(Conn& conn, bool want);

  // -- idle timer wheel --------------------------------------------------
  void WheelInsert(Conn& conn, uint64_t now_ms);
  void WheelAdvance(uint64_t now_ms);
  /// The wheel bucket an idle deadline is filed under.
  size_t WheelBucket(uint64_t deadline_ms) const;

  void BeginDrain(uint64_t now_ms);
  void WakeLoop();
  std::string BuildRejectionFrame(const std::string& reason) const;

  ProvenanceService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  /// Held open so the accept loop can free one descriptor under
  /// EMFILE/ENFILE, accept the waiting connection, send it a structured
  /// error, and close it — instead of letting the backlog silently fill.
  int reserve_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> started_{false};

  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> workers_;

  std::mutex comp_mutex_;
  std::vector<Completion> completions_;  // guarded by comp_mutex_

  // Loop-thread state (no locking: only Loop() and its callees touch it).
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup eventfd
  size_t admitted_ = 0;
  bool draining_ = false;
  uint64_t drain_deadline_ms_ = 0;
  static constexpr size_t kWheelBuckets = 256;
  std::array<std::vector<uint64_t>, kWheelBuckets> wheel_;
  uint64_t wheel_tick_ms_ = 0;
  uint64_t wheel_last_tick_ = 0;

  std::atomic<uint64_t> active_connections_{0};
  std::atomic<uint64_t> rejected_connections_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> loop_wakeups_{0};

  std::mutex lifecycle_mutex_;
  bool joined_ = false;  // guarded by lifecycle_mutex_
};

}  // namespace provabs

#endif  // PROVABS_SERVER_SERVER_H_
