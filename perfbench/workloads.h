#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads. Each is a closed loop: every connection waits for
// one answer before sending its next request, with zero think time. Each
// connection's request sequence is a function of the seed; the measured
// phase runs for a fixed wall time.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/statusor.h"
#include "inputs.h"
#include "oracle.h"
#include "server/client.h"
#include "trace.h"

namespace perfbench {

/// What one measured phase observed, merged over its connections.
struct Outcome {
  /// Latencies per request class ("evaluate", "compress", ...), in ms.
  std::map<std::string, std::vector<double>> ms;
  std::vector<double> all_ms;
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  uint64_t not_ok = 0;
  uint64_t mismatches = 0;
  uint64_t scenarios = 0;
  /// Requests that found their artifact evicted from the server's cache
  /// and recovered by reloading it (or waiting for the reload).
  uint64_t reloads = 0;
  std::vector<double> size_ratios;
  std::vector<double> rel_errs;
  /// Compress answers whose oracle runs after the phase: (bound, fields).
  std::vector<std::pair<uint64_t, CompressExpect>> deferred;
  std::vector<std::string> notes;  ///< first failures, for the report
  double wall_s = 0.0;

  uint64_t failed() const { return transport_errors + not_ok + mismatches; }
  void Merge(Outcome&& other);
  /// Records a failure of `what` with `detail` in the given counter.
  void Fail(uint64_t& counter, const std::string& what,
            const std::string& detail);
};

/// Shared by a phase's connections.
struct PhaseControl {
  Clock::time_point deadline;
  Tracer* tracer = nullptr;  ///< disabled outside the traced phase
  std::atomic<uint64_t>* next_request = nullptr;
};

/// Everything the per-layer probes need from a workload.
struct ProbeInputs {
  const Dataset* data = nullptr;
  const ColdCompression* cold = nullptr;  ///< at `bound`, applied
  uint64_t bound = 0;                     ///< the workload's served bound
  std::string program;                    ///< a 1000-scenario family
  Assignments scenario;                   ///< valid on the compressed view
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and precomputes the oracle. Not part
  /// of setup_s.
  virtual provabs::Status Prepare(uint64_t seed) = 0;
  /// Input sizes and load model, one line each.
  virtual std::vector<std::string> Describe() const = 0;
  /// Loads the artifacts and warms up: the first Compress of each served
  /// key and the first Evaluate of each served view.
  virtual provabs::Status Setup(provabs::Client& client) = 0;
  /// Runs connection `index` (0 or 1) until the deadline.
  virtual void Connection(int index, provabs::Client& client,
                          const PhaseControl& control, Outcome& out) = 0;
  /// Oracle checks that run after the measured phase.
  virtual void Finish(Outcome& out) { (void)out; }
  virtual ProbeInputs probe_inputs() const = 0;
  /// The request class whose latency is the workload's headline
  /// (primary_p50_ms).
  virtual std::string primary_class() const = 0;

  static constexpr int kConnections = 2;
};

/// "whatif-serve", "tradeoff-explore" or "append-stream"; null otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
