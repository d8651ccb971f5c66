#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Per-layer probes of the traced run: the driver times its own calls into
// each layer's public functions on the workload's own inputs and messages,
// recording a span around every call.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t n = 0;
  std::string note;  ///< e.g. the backend auto-routing picked
};

/// Runs every probe. `port` is the live server, used for the transport
/// overhead comparison against an in-process ProvenanceService holding
/// the same artifact.
std::vector<LayerMetric> RunProbes(const ProbeInputs& in, uint16_t port,
                                   Tracer& tracer,
                                   std::atomic<uint64_t>& next_request);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
