#include "server/evaluate_batcher.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

namespace provabs {

namespace {

/// Polynomials per pool chunk within a group; each chunk carries the whole
/// scenario group so the backend keeps full lanes.
constexpr size_t kPolysPerChunk = 64;

}  // namespace

StatusOr<std::vector<double>> EvaluateBatcher::Evaluate(
    std::shared_ptr<const PolynomialSet> polys, Valuation val,
    const std::string& backend, std::string* ran_backend) {
  auto item = std::make_shared<Pending>();
  item->polys = std::move(polys);
  // Resolve the compiled form and materialize the valuation on the caller
  // thread, outside the batcher lock: the compiled form is cached on the
  // set (pre-warmed for server artifacts), and materialization is one hash
  // probe per distinct variable. Workers then touch only flat arrays.
  item->compiled = item->polys->Compiled();
  item->dense = item->compiled->MaterializeValuation(val);
  item->backend = backend;

  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(item);
  ++stats_.requests;
  while (!item->done) {
    if (leader_active_) {
      // A leader is running a batch; wait until our slot is filled, or
      // until leadership frees up and it is our turn to run the next
      // batch (a leader serves exactly one batch, so a continuous stream
      // of arrivals cannot trap one caller in the leader role).
      done_cv_.wait(lock, [&] { return item->done || !leader_active_; });
      continue;
    }
    LeadOneBatch(lock);
  }
  if (!item->status.ok()) return item->status;
  if (ran_backend != nullptr) *ran_backend = item->ran->info().name;
  return std::move(item->out);
}

StatusOr<std::vector<std::vector<double>>> EvaluateBatcher::EvaluateDense(
    std::shared_ptr<const PolynomialSet> polys,
    std::shared_ptr<const CompiledPolynomialSet> compiled,
    std::vector<DenseValuation> scenarios, const std::string& backend,
    std::string* ran_backend) {
  if (compiled == nullptr) {
    return Status::InvalidArgument("EvaluateDense needs a compiled form");
  }
  if (scenarios.empty()) return std::vector<std::vector<double>>{};
  for (const DenseValuation& dense : scenarios) {
    if (dense.source_fingerprint() != compiled->fingerprint()) {
      return Status::InvalidArgument(
          "scenario valuation was materialized against a different compiled "
          "form (fingerprint mismatch)");
    }
  }
  std::vector<std::shared_ptr<Pending>> items;
  items.reserve(scenarios.size());
  for (DenseValuation& dense : scenarios) {
    auto item = std::make_shared<Pending>();
    item->polys = polys;
    item->compiled = compiled;
    item->dense = std::move(dense);
    item->backend = backend;
    items.push_back(std::move(item));
  }

  // All items are published under one lock hold, so whichever leader next
  // drains the queue takes the whole family as one lane group; waiting on
  // the last item therefore waits for all of them.
  Pending& last = *items.back();
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& item : items) queue_.push_back(item);
  stats_.requests += items.size();
  while (!last.done) {
    if (leader_active_) {
      done_cv_.wait(lock, [&] { return last.done || !leader_active_; });
      continue;
    }
    LeadOneBatch(lock);
  }
  std::vector<std::vector<double>> results;
  results.reserve(items.size());
  for (const auto& item : items) {
    if (!item->status.ok()) return item->status;
    results.push_back(std::move(item->out));
  }
  if (ran_backend != nullptr) *ran_backend = last.ran->info().name;
  return results;
}

void EvaluateBatcher::LeadOneBatch(std::unique_lock<std::mutex>& lock) {
  leader_active_ = true;
  std::vector<std::shared_ptr<Pending>> batch = std::move(queue_);
  queue_.clear();
  ++stats_.batches;
  stats_.max_batch = std::max<uint64_t>(stats_.max_batch, batch.size());
  lock.unlock();

  uint64_t groups = 0;
  uint64_t backend_calls = 0;
  RunBatch(batch, &groups, &backend_calls);

  lock.lock();
  stats_.groups += groups;
  stats_.backend_calls += backend_calls;
  for (const auto& done : batch) done->done = true;
  leader_active_ = false;
  done_cv_.notify_all();
}

void EvaluateBatcher::RunBatch(
    const std::vector<std::shared_ptr<Pending>>& batch, uint64_t* groups,
    uint64_t* backend_calls) {
  // Group by (compiled form, requested backend): same artifact + same
  // strategy = shareable scenario lanes. Keyed by the compiled SNAPSHOT
  // pointer (not the set), so a request materialized before a concurrent
  // mutation recompiled its set still evaluates against the snapshot it
  // was materialized from — the fingerprint contract holds by
  // construction.
  struct Group {
    std::optional<BackendRoute> route;
    std::vector<Pending*> items;
    std::vector<const DenseValuation*> scenarios;
  };
  std::map<std::pair<const CompiledPolynomialSet*, std::string>, Group>
      by_key;
  for (const auto& item : batch) {
    by_key[{item->compiled.get(), item->backend}].items.push_back(item.get());
  }
  *groups = by_key.size();

  // Route each group and lay out chunks. Chunking is min(ceil(P / 64),
  // pool width): wide enough to use the pool on large artifacts, and
  // exactly ONE EvaluateBatch call per group on a 1-thread pool (asserted
  // by tests via a counting backend). A probing route times the group's
  // chunks and records their sum when `by_key` goes out of scope.
  struct Chunk {
    Group* group;
    size_t poly_begin;
    size_t poly_end;
  };
  std::vector<Chunk> chunks;
  for (auto& [key, group] : by_key) {
    const CompiledPolynomialSet* compiled = key.first;
    StatusOr<BackendRoute> route =
        registry_->Route(key.second, *compiled, group.items.size());
    if (!route.ok()) {
      for (Pending* item : group.items) item->status = route.status();
      continue;
    }
    group.route.emplace(std::move(*route));
    group.scenarios.reserve(group.items.size());
    for (Pending* item : group.items) {
      item->ran = group.route->backend();
      item->out.resize(compiled->poly_count());
      group.scenarios.push_back(&item->dense);
    }
    const size_t poly_count = compiled->poly_count();
    if (poly_count == 0) continue;
    const size_t by_size = (poly_count + kPolysPerChunk - 1) / kPolysPerChunk;
    const size_t n_chunks =
        std::max<size_t>(1, std::min(by_size, pool_.thread_count()));
    const size_t per_chunk = (poly_count + n_chunks - 1) / n_chunks;
    for (size_t c = 0; c < n_chunks; ++c) {
      const size_t begin = c * per_chunk;
      const size_t end = std::min(poly_count, begin + per_chunk);
      if (begin < end) chunks.push_back(Chunk{&group, begin, end});
    }
  }
  *backend_calls = chunks.size();
  if (chunks.empty()) return;

  std::vector<Status> chunk_status(chunks.size());
  pool_.ParallelFor(chunks.size(), [&](size_t c) {
    const Chunk& chunk = chunks[c];
    const Group& group = *chunk.group;
    const CompiledPolynomialSet& compiled =
        *group.items.front()->compiled;
    std::vector<double*> out_ptrs(group.items.size());
    for (size_t s = 0; s < group.items.size(); ++s) {
      out_ptrs[s] = group.items[s]->out.data() + chunk.poly_begin;
    }
    chunk_status[c] = group.route->EvaluateBatch(
        compiled, chunk.poly_begin, chunk.poly_end, group.scenarios.data(),
        out_ptrs.data(), group.scenarios.size());
  });
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (chunk_status[c].ok()) continue;
    for (Pending* item : chunks[c].group->items) {
      if (item->status.ok()) item->status = chunk_status[c];
    }
  }
}

EvaluateBatcher::Stats EvaluateBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace provabs
