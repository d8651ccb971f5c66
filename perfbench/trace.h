#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around its calls into each layer; they stay in
// memory until the run ends and are then summarized (per-layer self time)
// and dumped as JSON lines.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "core.eval_us"
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span
  uint64_t request = 0;
};

/// The part of [begin, end] not covered by the union of `children`
/// (intervals, clipped to [begin, end]; they may overlap).
double SelfTimeUs(double begin, double end,
                  std::vector<std::pair<double, double>> children);

/// Thread-safe. A disabled tracer records nothing and hands out id -1, so
/// call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(int64_t id);

  std::vector<Span> spans() const;

  /// Per layer (the span name up to its first '.'): total self time in ms
  /// (span duration minus the union of its children's intervals) and span
  /// count.
  struct LayerTime {
    double self_ms = 0.0;
    uint64_t spans = 0;
  };
  std::map<std::string, LayerTime> SelfTimes() const;

  /// Writes one JSON object per span.
  provabs::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index == id
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
