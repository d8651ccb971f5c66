#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/optimal_single_tree.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "server/client.h"
#include "server/provenance_service.h"
#include "server/server.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

// ---------------------------------------------- in-process socket tests --

/// Full load → compress → evaluate round trip over a real loopback socket,
/// but with the server in-process so failures debug cleanly.
TEST(ServerSocketTest, EndToEndRoundTripWithCacheHit) {
  VariableTable vars;
  RunningExample ex = MakeRunningExample(vars);
  PolynomialSet polys = RunRunningExampleQuery(ex);
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars));

  ProvenanceService service;
  Server server(service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = SerializePolynomialSet(polys, vars);
  load.forests = {{"plans", SerializeForest(forest, vars)}};
  auto loaded = client->Load(load);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->ok()) << loaded->message;
  EXPECT_EQ(loaded->poly_count, polys.count());

  CompressRequest compress;
  compress.artifact = "ex";
  compress.forest = "plans";
  compress.bound = polys.SizeM() - 1;
  auto first = client->Compress(compress);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->ok()) << first->message;
  EXPECT_FALSE(first->cache_hit);

  // The acceptance bar: an identical second compress is served from the
  // artifact cache, observable through the response's cache-hit counter.
  auto second = client->Compress(compress);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_GE(second->stats.result_hits, 1u);
  EXPECT_EQ(second->monomial_loss, first->monomial_loss);

  EvaluateRequest eval;
  eval.artifact = "ex";
  eval.assignments = {{"m1", 0.5}};
  auto values = client->Evaluate(eval);
  ASSERT_TRUE(values.ok());
  ASSERT_TRUE(values->ok()) << values->message;
  Valuation val;
  val.Set(vars.Find("m1"), 0.5);
  std::vector<double> expected = val.EvaluateAll(polys);
  ASSERT_EQ(values->values.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(values->values[i], expected[i]);
  }

  // A second concurrent client sees the same resident artifact.
  auto client2 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client2.ok());
  auto info = client2->Info(InfoRequest{"ex"});
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->monomial_count, polys.SizeM());
  EXPECT_EQ(info->stats.artifact_count, 1u);

  auto bye = client->Shutdown(ShutdownRequest{});
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye->ok());
  server.Wait();  // Must return: the wire shutdown stops the server.
}

/// Load → compress → append → compress over a real socket: the second
/// compress must be answered by patching the first generation's cached DP
/// state, observable through the per-response flag and the stats counters.
TEST(ServerSocketTest, AppendThenCompressPatchesOverTheWire) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(vars.Intern("el" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {4, 2}, "E2E_"));
  PolynomialSet polys;
  for (int p = 0; p < 6; ++p) {
    std::vector<Monomial> terms;
    for (int m = 0; m < 8; ++m) {
      terms.emplace_back(1.0 + p + 0.25 * m,
                         std::vector<Factor>{{leaves[m], 1}});
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  const size_t bound = polys.SizeM() - 4;
  auto base = OptimalSingleTree(polys, forest, 0, bound);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  VariableId kept = kInvalidVariable;
  const AbstractionTree& tree = forest.tree(0);
  for (const NodeRef& ref : base->vvs.nodes()) {
    if (tree.node(ref.node).is_leaf()) {
      kept = tree.node(ref.node).label;
      break;
    }
  }
  ASSERT_NE(kept, kInvalidVariable);

  ProvenanceService service;
  Server server(service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  LoadRequest load;
  load.artifact = "inc";
  load.polys_bytes = SerializePolynomialSet(polys, vars);
  load.forests = {{"t", SerializeForest(forest, vars)}};
  auto loaded = client->Load(load);
  ASSERT_TRUE(loaded.ok() && loaded->ok());

  CompressRequest compress;
  compress.artifact = "inc";
  compress.forest = "t";
  compress.algo = "opt";
  compress.bound = bound;
  auto cold = client->Compress(compress);
  ASSERT_TRUE(cold.ok() && cold->ok());
  EXPECT_FALSE(cold->delta_patched);

  PolynomialSet extra;
  extra.Add(Polynomial::FromMonomials({Monomial(2.5, {{kept, 1}})}));
  AppendRequest append;
  append.artifact = "inc";
  append.polys_bytes = SerializePolynomialSet(extra, vars);
  auto appended = client->Append(append);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ASSERT_TRUE(appended->ok()) << appended->message;
  EXPECT_EQ(appended->poly_count, polys.count() + 1);
  EXPECT_GT(appended->generation, loaded->generation);

  auto patched = client->Compress(compress);
  ASSERT_TRUE(patched.ok() && patched->ok());
  EXPECT_FALSE(patched->cache_hit);
  EXPECT_TRUE(patched->delta_patched);
  EXPECT_EQ(patched->stats.delta_patched, 1u);
  EXPECT_EQ(patched->stats.delta_fallback_full, 0u);

  auto bye = client->Shutdown(ShutdownRequest{});
  ASSERT_TRUE(bye.ok());
  server.Wait();
}

TEST(ServerSocketTest, ServerSurvivesGarbageAndAbruptDisconnect) {
  ProvenanceService service;
  Server server(service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    // Dropping the connection without a request must not wedge the server.
  }
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // An unknown artifact is an application error, not a transport error...
  auto resp = client->Info(InfoRequest{"ghost"});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kNotFound);
  // ...and the connection stays usable afterwards.
  auto stats = client->Info(InfoRequest{});
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->ok());

  client->Shutdown(ShutdownRequest{});
  server.Wait();
}

// ------------------------------------------- event-loop lifecycle tests --

/// Thread count of this process, from /proc/self/status. The event-loop
/// acceptance bar — N idle connections never cost N threads — is only
/// checkable at the OS level.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

/// Raw blocking loopback connect, for tests that need a socket the Client
/// abstraction would hide (half-written frames, EOF observation).
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocks up to `timeout_ms` for EOF on `fd`; returns the elapsed
/// milliseconds, or -1 if the peer never closed.
int64_t WaitForEof(int fd, int64_t timeout_ms) {
  auto start = std::chrono::steady_clock::now();
  char buf[256];
  for (;;) {
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (elapsed >= timeout_ms) return -1;
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    int pr = ::poll(&p, 1, static_cast<int>(timeout_ms - elapsed));
    if (pr <= 0) continue;
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r == 0) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - start)
          .count();
    }
    if (r < 0 && errno != EINTR && errno != EAGAIN) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - start)
          .count();
    }
  }
}

/// 64 parked connections must cost file descriptors, not threads: the
/// process thread count after opening them equals the count right after
/// Start() (1 loop thread + the fixed worker pool).
TEST(ServerLifecycleTest, IdleConnectionsConsumeNoExtraThreads) {
  ServiceOptions service_options;
  service_options.eval_threads = 1;
  ProvenanceService service(service_options);
  ServerOptions options;
  options.worker_threads = 2;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // Let the loop + worker threads finish spawning before baselining.
  auto warm = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Info(InfoRequest{}).ok());
  int baseline = ProcessThreadCount();
  ASSERT_GT(baseline, 0);

  std::vector<Client> idle;
  for (int i = 0; i < 64; ++i) {
    auto c = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok()) << "connection " << i << ": "
                        << c.status().ToString();
    idle.push_back(std::move(*c));
  }
  // One of them proves the server is actually processing, not just
  // accepting into a backlog.
  auto info = idle.front().Info(InfoRequest{});
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->stats.active_connections, 65u);  // warm + 64 idle

  EXPECT_EQ(ProcessThreadCount(), baseline)
      << "event-loop server spawned per-connection threads";

  idle.clear();
  server.Shutdown();
  server.Wait();
}

/// A connection that goes silent is closed by the timer wheel within
/// 2 x idle_timeout_ms (the e2e acceptance bound).
TEST(ServerLifecycleTest, IdleClientReapedWithinTwiceTimeout) {
  ProvenanceService service;
  ServerOptions options;
  options.idle_timeout_ms = 400;
  options.worker_threads = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  int64_t elapsed = WaitForEof(fd, 4000);
  ::close(fd);
  ASSERT_GE(elapsed, 0) << "idle connection was never reaped";
  EXPECT_LE(elapsed, 2 * 400) << "reap took longer than 2x idle_timeout_ms";
  EXPECT_GE(server.transport_stats().idle_reaped, 1u);

  // The server keeps serving fresh connections afterwards.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Info(InfoRequest{});
  ASSERT_TRUE(resp.ok());
  EXPECT_GE(resp->stats.idle_reaped, 1u);

  server.Shutdown();
  server.Wait();
}

/// Reaping must not depend on when the event loop happens to wake. A busy
/// client wakes it at every phase of a wheel tick, so some wake falls in
/// an idle connection's deadline tick but before its deadline; that
/// connection must still close within 2 x idle_timeout_ms, not a wheel
/// revolution (256 ticks) later.
TEST(ServerLifecycleTest, IdleClientReapedWhileAnotherClientIsBusy) {
  ProvenanceService service;
  ServerOptions options;
  options.idle_timeout_ms = 400;
  options.worker_threads = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());
  auto busy = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(busy.ok());
  std::atomic<bool> stop{false};
  std::thread chatter([&] {
    while (!stop.load()) {
      (void)busy->Info(InfoRequest{});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Idle connections opened at spread phases of the 50 ms tick.
  using Clock = std::chrono::steady_clock;
  constexpr int kIdle = 6;
  std::vector<std::pair<int, Clock::time_point>> idle;
  for (int i = 0; i < kIdle; ++i) {
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    idle.emplace_back(fd, Clock::now());
    std::this_thread::sleep_for(std::chrono::milliseconds(9));
  }
  for (int i = 0; i < kIdle; ++i) {
    const auto [fd, opened] = idle[i];
    int64_t waited = WaitForEof(fd, 4000);
    ::close(fd);
    EXPECT_GE(waited, 0) << "idle connection " << i << " was never reaped";
    if (waited < 0) continue;
    int64_t since_open = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now() - opened)
                             .count();
    EXPECT_LE(since_open, 2 * 400) << "idle connection " << i;
  }
  stop.store(true);
  chatter.join();
  server.Shutdown();
  server.Wait();
}

/// Connection #(max+1) receives a structured kUnavailable response — not a
/// silent close — and closing an admitted connection frees its slot.
TEST(ServerLifecycleTest, OverLimitConnectionRejectedWithStructuredError) {
  ProvenanceService service;
  ServerOptions options;
  options.max_connections = 2;
  options.worker_threads = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Info(InfoRequest{}).ok());
  {
    auto second = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second->Info(InfoRequest{}).ok());

    auto third = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(third.ok());  // TCP accept succeeds; admission rejects.
    auto resp = third->Info(InfoRequest{});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, StatusCode::kUnavailable);
    EXPECT_NE(resp->message.find("connection limit"), std::string::npos)
        << resp->message;
    EXPECT_GE(server.transport_stats().rejected_connections, 1u);
  }  // `second` closes here, freeing its slot.

  // Freeing an admitted slot readmits: retry until the loop notices the
  // close (its EOF arrives asynchronously).
  bool readmitted = false;
  for (int i = 0; i < 100 && !readmitted; ++i) {
    auto retry = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(retry.ok());
    auto resp = retry->Info(InfoRequest{});
    readmitted = resp.ok() && resp->ok();
    if (!readmitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(readmitted) << "slot was never freed after client close";

  server.Shutdown();
  server.Wait();
}

/// Slowloris-style abuse: a half-written frame followed by a disconnect,
/// a truncated header, and an absurd frame length must all leave the loop
/// serving other clients.
TEST(ServerLifecycleTest, HalfWrittenFrameAndDisconnectDoNotWedgeLoop) {
  ProvenanceService service;
  ServerOptions options;
  options.worker_threads = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  {
    // Header promising 100 bytes, only 10 delivered, then FIN.
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    unsigned char partial[14] = {100, 0, 0, 0, 'x', 'x', 'x', 'x', 'x',
                                 'x',  'x', 'x', 'x', 'x'};
    ASSERT_EQ(::send(fd, partial, sizeof(partial), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(fd);
  }
  {
    // Two bytes of a four-byte header, then FIN.
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    unsigned char half_header[2] = {8, 0};
    ASSERT_EQ(::send(fd, half_header, sizeof(half_header), MSG_NOSIGNAL), 2);
    ::close(fd);
  }
  {
    // A length over kMaxFrameBytes is a protocol violation: the server
    // closes the connection rather than buffering toward it.
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::send(fd, huge, sizeof(huge), MSG_NOSIGNAL), 4);
    EXPECT_GE(WaitForEof(fd, 2000), 0) << "oversized frame not rejected";
    ::close(fd);
  }

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Info(InfoRequest{});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok());

  server.Shutdown();
  server.Wait();
}

/// Shutdown during an in-flight compress drains gracefully: the DP
/// finishes, its response reaches the client, and only then does the
/// server exit.
TEST(ServerLifecycleTest, GracefulDrainCompletesInFlightCompress) {
  VariableTable vars;
  RunningExample ex = MakeRunningExample(vars);
  PolynomialSet polys = RunRunningExampleQuery(ex);
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars));

  std::mutex m;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  ServiceOptions service_options;
  service_options.compress_hook = [&](const ArtifactStore::ResultKey&) {
    std::unique_lock<std::mutex> lock(m);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  ProvenanceService service(service_options);
  ServerOptions options;
  options.worker_threads = 2;
  options.drain_timeout_ms = 10000;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  LoadRequest load;
  load.artifact = "ex";
  load.polys_bytes = SerializePolynomialSet(polys, vars);
  load.forests = {{"plans", SerializeForest(forest, vars)}};
  ASSERT_TRUE(client->Load(load).ok());

  StatusOr<Response> compress_result = Status::Internal("not run");
  std::thread requester([&] {
    CompressRequest req;
    req.artifact = "ex";
    req.forest = "plans";
    req.bound = polys.SizeM() - 1;
    compress_result = client->Compress(req);
  });

  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }
  server.Shutdown();  // Drain begins with the DP still executing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  requester.join();
  server.Wait();

  ASSERT_TRUE(compress_result.ok()) << compress_result.status().ToString();
  EXPECT_TRUE(compress_result->ok()) << compress_result->message;
}

// ------------------------------------------------- binary-level smoke ----

/// The CI smoke test: spawns the real `provabs_server` binary on an
/// ephemeral loopback port, drives a generate → remote-load →
/// remote-compress ×2 → remote-evaluate → remote-shutdown session through
/// the real `provabs_cli`, and asserts the second compress reports
/// "cache: hit". Skipped when the binaries are not in the conventional
/// build layout (e.g. running from an install tree).
class ServerBinarySmokeTest : public ::testing::Test {
 protected:
  static std::string FindBinary(const std::string& name) {
    const std::string candidates[] = {
        "../tools/" + name,        // ctest from build/tests
        "./tools/" + name,         // manual run from build/
        "./build/tools/" + name,   // manual run from the repo root
    };
    for (const std::string& c : candidates) {
      std::FILE* probe = std::fopen(c.c_str(), "rb");
      if (probe != nullptr) {
        std::fclose(probe);
        return c;
      }
    }
    return "";
  }

  void SetUp() override {
    cli_ = FindBinary("provabs_cli");
    server_ = FindBinary("provabs_server");
    if (cli_.empty() || server_.empty()) {
      GTEST_SKIP() << "provabs binaries not found";
    }
    // A per-process subdirectory: cli_test writes the same artifact names
    // into TempDir(), and ctest runs suites in parallel.
    dir_ = ::testing::TempDir() + "/server_e2e_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
  }

  /// Runs a CLI command, returns its exit code, captures combined output.
  int RunCli(const std::string& args, std::string* output) {
    std::string out_path = dir_ + "/cli_out.txt";
    int rc = std::system(
        (cli_ + " " + args + " > " + out_path + " 2>&1").c_str());
    std::ifstream in(out_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    *output = buffer.str();
    return rc;
  }

  std::string cli_, server_, dir_;
};

/// Kills the forked server on any exit path (a failed ASSERT must not
/// leave an orphan daemon on the CI runner), unless disarmed by a clean
/// shutdown.
struct ChildGuard {
  pid_t pid;
  bool armed = true;
  ~ChildGuard() {
    if (armed && pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

/// Polls waitpid for up to ~10 s; false if the child is still running (so
/// the caller can fail the test instead of hanging until ctest's timeout).
bool WaitForExit(pid_t pid, int* status) {
  for (int i = 0; i < 200; ++i) {
    pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

TEST_F(ServerBinarySmokeTest, FullRemoteSessionWithCacheHit) {
  std::string out;
  ASSERT_EQ(RunCli("generate --workload telephony --scale 0.02 --out " +
                       dir_ + "/p.bin --forest-out " + dir_ + "/f.bin",
                   &out),
            0)
      << out;

  // Spawn the server with an ephemeral port, discovered via --port-file.
  std::string port_file = dir_ + "/server.port";
  std::string server_log = dir_ + "/server.log";
  std::remove(port_file.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::FILE* log = std::freopen(server_log.c_str(), "w", stdout);
    (void)log;
    execl(server_.c_str(), "provabs_server", "--port", "0", "--port-file",
          port_file.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  ChildGuard guard{pid};

  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(port_file);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server did not write its port file";

  std::string remote = "--host 127.0.0.1 --port " + port;
  EXPECT_EQ(RunCli("remote-load " + remote + " --name tel --in " + dir_ +
                       "/p.bin --forest " + dir_ + "/f.bin",
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("loaded 'tel'"), std::string::npos) << out;

  std::string compress = "remote-compress " + remote +
                         " --name tel --bound 1500 --algo opt";
  EXPECT_EQ(RunCli(compress, &out), 0) << out;
  EXPECT_NE(out.find("cache: miss"), std::string::npos) << out;

  // The identical request again: answered from the artifact cache.
  EXPECT_EQ(RunCli(compress, &out), 0) << out;
  EXPECT_NE(out.find("cache: hit"), std::string::npos) << out;

  EXPECT_EQ(RunCli("remote-evaluate " + remote +
                       " --name tel --set m1=0.8 --bound 1500",
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("polynomial 0:"), std::string::npos) << out;

  // A non-default registry algorithm over the wire: the exhaustive
  // baseline is servable through the same request path as opt/greedy.
  EXPECT_EQ(RunCli("remote-compress " + remote +
                       " --name tel --bound 1500 --algo brute",
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("brute:"), std::string::npos) << out;

  // A scenario program answers a whole what-if family in one round trip
  // (wire v5, kind 24); the repeat is served from the program cache.
  std::string scenario =
      "remote-scenario " + remote +
      " --name tel --expr 'LET d = GRID(0.5, 1, 2); SET PREFIX(plan) = d;'";
  EXPECT_EQ(RunCli(scenario, &out), 0) << out;
  EXPECT_NE(out.find("scenario 2:"), std::string::npos) << out;
  EXPECT_NE(out.find("3 scenarios"), std::string::npos) << out;
  EXPECT_NE(out.find("program cache: miss"), std::string::npos) << out;
  EXPECT_EQ(RunCli(scenario + " --shape argmax", &out), 0) << out;
  EXPECT_NE(out.find("objective"), std::string::npos) << out;
  EXPECT_EQ(RunCli(scenario, &out), 0) << out;
  EXPECT_NE(out.find("program cache: hit"), std::string::npos) << out;
  // An ill-typed program is a structured remote error (exit 1, the
  // server's InvalidArgument relayed), not a hang or a crash.
  int bad = RunCli("remote-scenario " + remote +
                       " --name tel --expr 'SET ghost = 1;'",
                   &out);
  ASSERT_TRUE(WIFEXITED(bad)) << out;
  EXPECT_EQ(WEXITSTATUS(bad), 1) << out;
  EXPECT_NE(out.find("ghost"), std::string::npos) << out;

  EXPECT_EQ(RunCli("remote-info " + remote + " --name tel", &out), 0) << out;
  EXPECT_NE(out.find("hits"), std::string::npos) << out;
  // The batching/program-cache counters surface in remote-info.
  EXPECT_NE(out.find("programs:"), std::string::npos) << out;
  EXPECT_NE(out.find("lane groups"), std::string::npos) << out;
  // remote-info surfaces the server's algorithm registry (request 22).
  EXPECT_NE(out.find("algorithms:"), std::string::npos) << out;
  EXPECT_NE(out.find("prox"), std::string::npos) << out;

  EXPECT_EQ(RunCli("remote-shutdown " + remote, &out), 0) << out;

  int status = 0;
  ASSERT_TRUE(WaitForExit(pid, &status))
      << "server did not exit after remote-shutdown";
  guard.armed = false;  // Reaped; nothing left to kill.
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::ifstream log(server_log);
  std::stringstream log_text;
  log_text << log.rdbuf();
  EXPECT_NE(log_text.str().find("shut down cleanly"), std::string::npos)
      << log_text.str();
}

/// The lines of a verb's output that carry its answer: timings, cache
/// counters and the closing summary line (timing, backend, program cache)
/// legitimately differ between runs and are dropped.
std::vector<std::string> AnswerLines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '(' || line.rfind("cache:", 0) == 0 ||
        line.rfind("single-flight:", 0) == 0) {
      continue;
    }
    if (line.find("ML=") != std::string::npos) {
      line = line.substr(0, line.rfind(" in "));  // "... in 0.004s"
    }
    lines.push_back(line);
  }
  return lines;
}

/// The offline verbs answer through a ProvenanceService inside the CLI
/// process and the remote-* verbs through a server; on one artifact each
/// pair prints the same ML/VL/VVS, curve rows, polynomial values, and
/// argmax winner with its objective and parameters.
TEST_F(ServerBinarySmokeTest, OfflineAndRemoteVerbsPrintTheSameAnswers) {
  std::string out;
  const std::string p = dir_ + "/parity_p.bin";
  const std::string f = dir_ + "/parity_f.bin";
  ASSERT_EQ(RunCli("generate --workload telephony --scale 0.02 --out " + p +
                       " --forest-out " + f,
                   &out),
            0)
      << out;

  std::string port_file = dir_ + "/parity.port";
  std::remove(port_file.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::FILE* log = std::freopen("/dev/null", "w", stdout);
    (void)log;
    execl(server_.c_str(), "provabs_server", "--port", "0", "--port-file",
          port_file.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  ChildGuard guard{pid};
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(port_file);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server did not write its port file";

  const std::string remote = "--port " + port + " --name tel";
  ASSERT_EQ(RunCli("remote-load " + remote + " --in " + p + " --forest " + f,
                   &out),
            0)
      << out;

  const std::string program =
      " --expr 'LET d = GRID(0.5, 1, 2); SET PREFIX(plan) = d;'"
      " --shape argmax";
  const std::pair<std::string, std::string> pairs[] = {
      {"compress --in " + p + " --forest " + f + " --bound 1500",
       "remote-compress " + remote + " --bound 1500"},
      {"tradeoff --in " + p + " --forest " + f, "remote-tradeoff " + remote},
      {"evaluate --in " + p + " --set m1=0.8",
       "remote-evaluate " + remote + " --set m1=0.8"},
      {"scenario --in " + p + program, "remote-scenario " + remote + program},
  };
  std::string local_out, remote_out;
  for (const auto& [offline, online] : pairs) {
    ASSERT_EQ(RunCli(offline, &local_out), 0) << local_out;
    ASSERT_EQ(RunCli(online, &remote_out), 0) << remote_out;
    const std::vector<std::string> local = AnswerLines(local_out);
    EXPECT_FALSE(local.empty()) << offline;
    EXPECT_EQ(local, AnswerLines(remote_out))
        << offline << "\n" << local_out << "\n" << online << "\n"
        << remote_out;
  }
  // The argmax winner is printed with the parameter behind it.
  EXPECT_NE(remote_out.find("  d = "), std::string::npos) << remote_out;

  EXPECT_EQ(RunCli("remote-shutdown --port " + port, &out), 0) << out;
  int status = 0;
  ASSERT_TRUE(WaitForExit(pid, &status))
      << "server did not exit after remote-shutdown";
  guard.armed = false;
}

/// The client-deadline acceptance bar: a remote-compress against a
/// SIGSTOPped server exits with a DeadlineExceeded error instead of
/// hanging forever on the dead socket.
TEST_F(ServerBinarySmokeTest, RemoteCompressAgainstStoppedServerTimesOut) {
  std::string port_file = dir_ + "/stopped.port";
  std::remove(port_file.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(server_.c_str(), "provabs_server", "--port", "0", "--port-file",
          port_file.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  ChildGuard guard{pid};

  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(port_file);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server did not write its port file";

  // Freeze the server. The kernel still completes TCP handshakes on its
  // listen backlog and buffers the request bytes, so without a deadline
  // the client would block in read() until the process is thawed.
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);

  std::string out;
  auto start = std::chrono::steady_clock::now();
  int rc = RunCli("remote-compress --host 127.0.0.1 --port " + port +
                      " --name tel --bound 1500 --timeout-ms 500",
                  &out);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 1) << out;
  EXPECT_NE(out.find("DeadlineExceeded"), std::string::npos) << out;
  EXPECT_LT(elapsed, 10000) << "timeout did not bound the RPC";

  ::kill(pid, SIGCONT);  // ChildGuard's SIGKILL needs a running process
}

}  // namespace
}  // namespace provabs
