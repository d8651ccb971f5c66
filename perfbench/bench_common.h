#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

// Plumbing shared by every perfbench workload: sample statistics (median
// and the highest percentile the sample count supports), a spawned
// `provabs_server` with a start timeout and a kill on timeout, and the
// server's peak resident set (`VmHWM`).

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// A percentile needs at least this many samples beyond it to be reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Linear interpolation between closest ranks (numpy's default) of the
/// `q`-th percentile, 0 <= q <= 100. Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// True when `n` samples leave at least kMinSamplesBeyond samples above the
/// `q`-th percentile's rank.
bool PercentileSupported(size_t n, double q);

/// The highest of p50, p90, p99 and p99.9 that `n` samples support, or 0
/// when not even the median is supported.
double HighestSupportedPercentile(size_t n);

/// A latency (or any) sample with the summary the report prints.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};
Summary Summarize(const std::vector<double>& values);

/// A running `provabs_server` child. Spawned with default options plus
/// `--port 0 --port-file`; the destructor kills a server that was not
/// stopped cleanly, so no path leaves one behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary`, logging to `work_dir/server-<n>.log`, and waits up
  /// to `start_timeout_ms` for its port file; kills it on timeout.
  provabs::Status Start(const std::string& binary, const std::string& work_dir,
                        int64_t start_timeout_ms);

  /// Sends Shutdown and waits up to `timeout_ms` for a clean exit, then
  /// kills. Idempotent.
  provabs::Status Stop(int64_t timeout_ms);

  uint16_t port() const { return port_; }

  /// Peak resident set of the server in MiB, from /proc/<pid>/status.
  provabs::StatusOr<double> PeakRssMiB() const;

 private:
  void Kill();

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Reads `VmHWM` (kB) from a /proc/<pid>/status text; -1 when absent.
int64_t ParseVmHwmKb(const std::string& status_text);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
