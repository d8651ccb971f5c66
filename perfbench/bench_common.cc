#include "bench_common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/client.h"

namespace perfbench {

using provabs::Status;
using provabs::StatusOr;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool PercentileSupported(size_t n, double q) {
  const double at = std::ceil(static_cast<double>(n) * q / 100.0 - 1e-9);
  return static_cast<double>(n) - at >= static_cast<double>(kMinSamplesBeyond);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double q : {50.0, 90.0, 99.0, 99.9}) {
    if (PercentileSupported(n, q)) best = q;
  }
  return best;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.p50 = Percentile(values, 50.0);
  s.p90 = Percentile(values, 90.0);
  s.p99 = Percentile(values, 99.0);
  return s;
}

int64_t ParseVmHwmKb(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    return std::strtoll(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

ServerProcess::~ServerProcess() { Kill(); }

Status ServerProcess::Start(const std::string& binary,
                            const std::string& work_dir,
                            int64_t start_timeout_ms) {
  static int spawn_count = 0;
  const std::string tag = std::to_string(::getpid()) + "-" +
                          std::to_string(spawn_count++);
  const std::string port_file = work_dir + "/port-" + tag + ".txt";
  const std::string log_file = work_dir + "/server-" + tag + ".log";
  std::remove(port_file.c_str());
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    // The server must not outlive the driver, whatever kills the driver.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--port-file",
            port_file.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  const Clock::time_point start = Clock::now();
  while (MillisSince(start) < static_cast<double>(start_timeout_ms)) {
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("provabs_server exited during start-up; see " +
                              log_file);
    }
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port != 0) {
      port_ = static_cast<uint16_t>(port);
      std::remove(port_file.c_str());
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return Status::DeadlineExceeded("provabs_server did not publish its port "
                                  "within " +
                                  std::to_string(start_timeout_ms) + " ms");
}

Status ServerProcess::Stop(int64_t timeout_ms) {
  if (pid_ < 0) return Status::OK();
  provabs::ClientOptions options;
  options.connect_timeout_ms = timeout_ms;
  options.rpc_timeout_ms = timeout_ms;
  auto client = provabs::Client::Connect("127.0.0.1", port_, options);
  if (client.ok()) (void)client->Shutdown(provabs::ShutdownRequest{});
  const Clock::time_point start = Clock::now();
  while (MillisSince(start) < static_cast<double>(timeout_ms)) {
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0
                 ? Status::OK()
                 : Status::Internal("provabs_server exited abnormally");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return Status::DeadlineExceeded("provabs_server did not shut down in time");
}

void ServerProcess::Kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid_, &wstatus, 0);
  pid_ = -1;
}

StatusOr<double> ServerProcess::PeakRssMiB() const {
  if (pid_ < 0) return Status::FailedPrecondition("server not running");
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::stringstream text;
  text << in.rdbuf();
  const int64_t kb = ParseVmHwmKb(text.str());
  if (kb < 0) return Status::NotFound("no VmHWM line in /proc status");
  return static_cast<double>(kb) / 1024.0;
}

}  // namespace perfbench
