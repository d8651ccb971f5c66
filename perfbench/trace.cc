#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SelfTimeUs(double begin, double end,
                  std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double run_begin = 0.0;
  double run_end = -1.0;
  for (const auto& [b0, e0] : children) {
    const double b = std::max(b0, begin);
    const double e = std::min(e0, end);
    if (e <= b) continue;
    if (b > run_end) {
      if (run_end > run_begin) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
    } else {
      run_end = std::max(run_end, e);
    }
  }
  if (run_end > run_begin) covered += run_end - run_begin;
  return end - begin - covered;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_us = MicrosSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = MicrosSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, Tracer::LayerTime> Tracer::SelfTimes() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : all) {
    LayerTime& layer = out[s.name.substr(0, s.name.find('.'))];
    layer.self_ms += SelfTimeUs(s.start_us, s.end_us,
                                std::move(children[static_cast<size_t>(s.id)])) /
                     1e3;
    ++layer.spans;
  }
  return out;
}

provabs::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return provabs::Status::Internal("cannot write span dump " + path);
  }
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 s.name.c_str(), s.start_us, s.end_us,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0
             ? provabs::Status::OK()
             : provabs::Status::Internal("cannot close span dump " + path);
}

}  // namespace perfbench
