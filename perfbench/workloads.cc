#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "algo/tradeoff_curve.h"
#include "io/serializer.h"

namespace perfbench {

using provabs::Client;
using provabs::Response;
using provabs::Status;
using provabs::StatusOr;

void Outcome::Merge(Outcome&& other) {
  for (auto& [bucket, values] : other.ms) {
    std::vector<double>& mine = ms[bucket];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  all_ms.insert(all_ms.end(), other.all_ms.begin(), other.all_ms.end());
  attempted += other.attempted;
  transport_errors += other.transport_errors;
  not_ok += other.not_ok;
  mismatches += other.mismatches;
  scenarios += other.scenarios;
  reloads += other.reloads;
  size_ratios.insert(size_ratios.end(), other.size_ratios.begin(),
                     other.size_ratios.end());
  rel_errs.insert(rel_errs.end(), other.rel_errs.begin(),
                  other.rel_errs.end());
  deferred.insert(deferred.end(), other.deferred.begin(),
                  other.deferred.end());
  for (std::string& note : other.notes) {
    if (notes.size() < 8) notes.push_back(std::move(note));
  }
}

void Outcome::Fail(uint64_t& counter, const std::string& what,
                   const std::string& detail) {
  ++counter;
  if (notes.size() < 8) notes.push_back(what + ": " + detail);
}

namespace {

constexpr char kArtifact[] = "bench";

/// Runs fn(i) for i in [0, n) on up to four threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

bool Evicted(const Response& resp) {
  return resp.code == provabs::StatusCode::kNotFound &&
         resp.message.find("not loaded") != std::string::npos;
}

/// One answered request.
struct Answer {
  Response resp;
  double ms = 0.0;
  int64_t span = -1;  ///< root span, for the oracle check to hang under
  bool reloaded = false;  ///< the artifact had to be reloaded first
};

/// Sends one request through `send` and times it. When the server answers
/// that the artifact is not loaded (its cache evicted it), `recover` runs
/// inside the timed region: true resends, false abandons the request. A
/// recovery is counted in `reloads`, never as a failure; transport errors
/// and other non-OK answers are failures. Returns only OK answers.
template <typename SendFn>
std::optional<Answer> Send(const PhaseControl& control, Outcome& out,
                           const std::string& what, SendFn&& send,
                           const std::function<bool()>& recover) {
  Answer answer;
  answer.span = control.tracer->Begin(
      "client." + what, -1, control.next_request->fetch_add(1));
  const Clock::time_point start = Clock::now();
  StatusOr<Response> resp = send();
  while (resp.ok() && Evicted(*resp) && recover) {
    ++out.reloads;
    answer.reloaded = true;
    if (!recover()) {
      control.tracer->End(answer.span);
      return std::nullopt;
    }
    resp = send();
  }
  answer.ms = MillisSince(start);
  control.tracer->End(answer.span);
  ++out.attempted;
  if (!resp.ok()) {
    out.Fail(out.transport_errors, what, resp.status().ToString());
    return std::nullopt;
  }
  if (!resp->ok()) {
    out.Fail(out.not_ok, what, resp->message);
    return std::nullopt;
  }
  answer.resp = std::move(*resp);
  return answer;
}

void Record(Outcome& out, const std::string& bucket, const Answer& answer) {
  out.ms[bucket].push_back(answer.ms);
  out.all_ms.push_back(answer.ms);
}

/// Send() whose latency is filed under `bucket`, or under
/// `bucket`_after_reload when the artifact had to be reloaded first.
template <typename SendFn>
std::optional<Answer> Timed(const PhaseControl& control, Outcome& out,
                            const std::string& bucket, SendFn&& send,
                            const std::function<bool()>& recover) {
  std::optional<Answer> answer =
      Send(control, out, bucket, std::forward<SendFn>(send), recover);
  if (answer) {
    Record(out, answer->reloaded ? bucket + "_after_reload" : bucket,
           *answer);
  }
  return answer;
}

/// Request kinds dealt from a shuffled deck: every pass deals each kind its
/// fixed count in a seeded order, so a run's mix never drifts with the
/// draw.
class Deck {
 public:
  explicit Deck(const std::vector<std::pair<char, int>>& counts) {
    for (const auto& [kind, count] : counts) cards_.insert(cards_.end(), count, kind);
    pos_ = cards_.size();
  }
  char Next(provabs::Rng& rng) {
    if (pos_ == cards_.size()) {
      rng.Shuffle(cards_);
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<char> cards_;
  size_t pos_ = 0;
};

/// Runs an oracle check under a span; a non-empty answer is a mismatch.
void Check(const PhaseControl& control, Outcome& out, int64_t span,
           const std::string& bucket,
           const std::function<std::string()>& check) {
  int64_t id = control.tracer->Begin("oracle.check", span, 0);
  std::string problem = check();
  control.tracer->End(id);
  if (!problem.empty()) out.Fail(out.mismatches, bucket, problem);
}

/// Status of a setup-time answer checked against the oracle.
Status Expect(const StatusOr<Response>& resp, const std::string& what,
              const std::string& problem = "") {
  if (!resp.ok()) return resp.status();
  if (!resp->ok()) return Status::Internal(what + ": " + resp->message);
  if (!problem.empty()) {
    return Status::Internal(what + " disagrees with the oracle: " + problem);
  }
  return Status::OK();
}

provabs::LoadRequest MakeLoad(const Dataset& data) {
  provabs::LoadRequest load;
  load.artifact = kArtifact;
  load.polys_bytes = data.polys_bytes;
  load.forests = {{"default", data.forest_bytes}};
  return load;
}

provabs::CompressRequest MakeCompress(uint64_t bound) {
  provabs::CompressRequest req;
  req.artifact = kArtifact;
  req.bound = bound;
  return req;
}

provabs::EvaluateRequest MakeEvaluate(const Assignments& assignments,
                                      bool compressed, uint64_t bound) {
  provabs::EvaluateRequest req;
  req.artifact = kArtifact;
  req.assignments = assignments;
  req.compressed = compressed;
  req.bound = compressed ? bound : 0;
  return req;
}

double SizeRatio(const Response& resp, uint64_t size_m) {
  return static_cast<double>(resp.compressed_monomials) /
         static_cast<double>(size_m);
}

// ---------------------------------------------------------------------------
// whatif-serve: the paper's use case. Analysts fire single what-ifs at the
// compressed telephony view, now and then a 1000-scenario family, and
// rarely the same what-if over the full provenance.

class WhatifServe : public Workload {
 public:
  Status Prepare(uint64_t seed) override {
    data_ = MakeTelephonyDataset(seed);
    PROVABS_ASSIGN_OR_RETURN(
        cold_, ColdCompress(data_.polys, data_.forest, *data_.vars,
                            data_.mid_bound, /*apply=*/true));
    const std::unordered_set<provabs::VariableId> full_vars =
        data_.polys.Variables();
    const std::unordered_set<provabs::VariableId> view_vars =
        cold_.compressed.Variables();
    provabs::Rng rng(seed ^ 0x5ce9a710ULL);
    for (size_t j = 0; j < kPool; ++j) {
      pool_.push_back(
          MakeScenario(rng, data_, cold_.result.vvs, full_vars, view_vars));
    }
    want_view_.resize(kPool);
    want_full_.resize(kPool);
    rel_err_.resize(kPool);
    ParallelFor(kPool, [&](size_t j) {
      want_view_[j] = MakeValuation(pool_[j].compressed, *data_.vars)
                          .EvaluateAll(cold_.compressed);
      want_full_[j] = MakeValuation(pool_[j].full, *data_.vars)
                          .EvaluateAll(data_.polys);
      double err = 0.0;
      for (size_t i = 0; i < want_full_[j].size(); ++i) {
        err += std::fabs(want_view_[j][i] - want_full_[j][i]) /
               std::fabs(want_full_[j][i]);
      }
      rel_err_[j] = err / static_cast<double>(want_full_[j].size());
    });
    std::vector<StatusOr<ProgramExpect>> programs(
        kProgramVariants, Status::Internal("not computed"));
    for (int v = 0; v < kProgramVariants; ++v) {
      program_text_.push_back(ProgramText(v, data_));
    }
    ParallelFor(kProgramVariants, [&](size_t v) {
      programs[v] =
          ExpectArgmax(program_text_[v], cold_.compressed, *data_.vars);
    });
    for (StatusOr<ProgramExpect>& p : programs) {
      if (!p.ok()) return p.status();
      if (p->scenario_count != 1000) {
        return Status::Internal("program family is not 1000 scenarios");
      }
      want_program_.push_back(std::move(*p));
    }
    for (int c = 0; c < kConnections; ++c) {
      rng_.emplace_back(seed * 1000003ULL + 101 + static_cast<uint64_t>(c));
      // Per 50 requests: 45 compressed Evaluates, 4 programs, 1 full.
      decks_.emplace_back(std::vector<std::pair<char, int>>{
          {'E', 45}, {'S', 4}, {'F', 1}});
    }
    return Status::OK();
  }

  std::vector<std::string> Describe() const override {
    return {"input: " + data_.description,
            "forest: one 4,4 tree over the 128 plan variables; opt at bound " +
                std::to_string(data_.mid_bound) +
                " (midpoint of the feasible loss range) keeps " +
                std::to_string(cold_.compressed.SizeM()) + " monomials",
            "load: closed loop, 2 connections, zero think time; per request "
            "90% compressed Evaluate (32 seeded plan-discount what-ifs), 8% "
            "argmax 1000-scenario SWEEP program (4 texts), 2% full-provenance "
            "Evaluate"};
  }

  Status Setup(Client& client) override {
    PROVABS_RETURN_IF_ERROR(Expect(client.Load(MakeLoad(data_)), "load"));
    StatusOr<Response> c = client.Compress(MakeCompress(data_.mid_bound));
    PROVABS_RETURN_IF_ERROR(Expect(
        c, "compress", c.ok() ? CheckCompress(*c, cold_.expect) : ""));
    StatusOr<Response> v =
        client.Evaluate(MakeEvaluate(pool_[0].compressed, true,
                                     data_.mid_bound));
    PROVABS_RETURN_IF_ERROR(Expect(
        v, "evaluate", v.ok() ? CheckValues(v->values, want_view_[0]) : ""));
    StatusOr<Response> f =
        client.Evaluate(MakeEvaluate(pool_[0].full, false, 0));
    return Expect(f, "full evaluate",
                  f.ok() ? CheckValues(f->values, want_full_[0]) : "");
  }

  void Connection(int index, Client& client, const PhaseControl& control,
                  Outcome& out) override {
    provabs::Rng& rng = rng_[static_cast<size_t>(index)];
    Deck& deck = decks_[static_cast<size_t>(index)];
    const uint64_t size_m = data_.polys.SizeM();
    const std::function<bool()> reload = [&] {
      return client.Load(MakeLoad(data_)).ok();
    };
    while (Clock::now() < control.deadline) {
      const char kind = deck.Next(rng);
      if (kind == 'E') {
        const size_t j = rng.Uniform(kPool);
        auto a = Timed(control, out, "evaluate", [&] {
          return client.Evaluate(
              MakeEvaluate(pool_[j].compressed, true, data_.mid_bound));
        }, reload);
        if (!a) continue;
        ++out.scenarios;
        out.size_ratios.push_back(SizeRatio(a->resp, size_m));
        out.rel_errs.push_back(rel_err_[j]);
        Check(control, out, a->span, "evaluate", [&] {
          std::string problem = CheckCompress(a->resp, cold_.expect);
          return problem.empty() ? CheckValues(a->resp.values, want_view_[j])
                                 : problem;
        });
      } else if (kind == 'S') {
        const size_t v = rng.Uniform(kProgramVariants);
        provabs::EvaluateScenarioProgramRequest req;
        req.artifact = kArtifact;
        req.program = program_text_[v];
        req.compressed = true;
        req.bound = data_.mid_bound;
        req.shape = provabs::ScenarioShape::kArgmax;
        auto a = Timed(control, out, "scenario", [&] {
          return client.EvaluateScenarioProgram(req);
        }, reload);
        if (!a) continue;
        out.scenarios += a->resp.scenario_count;
        out.size_ratios.push_back(SizeRatio(a->resp, size_m));
        Check(control, out, a->span, "scenario",
              [&] { return CheckProgram(a->resp, want_program_[v]); });
      } else {
        const size_t j = rng.Uniform(kPool);
        auto a = Timed(control, out, "full_evaluate", [&] {
          return client.Evaluate(MakeEvaluate(pool_[j].full, false, 0));
        }, reload);
        if (!a) continue;
        ++out.scenarios;
        Check(control, out, a->span, "full_evaluate",
              [&] { return CheckValues(a->resp.values, want_full_[j]); });
      }
    }
  }

  ProbeInputs probe_inputs() const override {
    return ProbeInputs{&data_, &cold_, data_.mid_bound, program_text_[0],
                       pool_[0].compressed};
  }
  std::string primary_class() const override { return "evaluate"; }

 private:
  static constexpr size_t kPool = 32;
  Dataset data_;
  ColdCompression cold_;
  std::vector<Scenario> pool_;
  std::vector<std::vector<double>> want_view_;
  std::vector<std::vector<double>> want_full_;
  std::vector<double> rel_err_;
  std::vector<std::string> program_text_;
  std::vector<ProgramExpect> want_program_;
  std::vector<provabs::Rng> rng_;
  std::vector<Deck> decks_;
};

// ---------------------------------------------------------------------------
// tradeoff-explore: an analyst choosing a granularity. `opt` Compress at
// seeded bounds across the feasible range on TPC-H Q5, mostly fresh keys;
// a fixed share repeats the key the other connection just sent.

class TradeoffExplore : public Workload {
 public:
  Status Prepare(uint64_t seed) override {
    data_ = MakeTpchDataset(Query::kQ5, seed);
    PROVABS_ASSIGN_OR_RETURN(
        cold_, ColdCompress(data_.polys, data_.forest, *data_.vars,
                            data_.mid_bound, /*apply=*/true));
    PROVABS_ASSIGN_OR_RETURN(
        curve_, provabs::OptimalTradeoffCurve(data_.polys, data_.forest, 0));
    provabs::Rng rng(seed ^ 0x7a3d0ff1ULL);
    scenario_ = MakeOthersScenario(rng, data_);
    for (int c = 0; c < kConnections; ++c) {
      rng_.emplace_back(seed * 1000003ULL + 202 + static_cast<uint64_t>(c));
      // Per 20 requests: 1 Tradeoff, 4 repeats of the other connection's
      // last key, 15 fresh bounds.
      decks_.emplace_back(std::vector<std::pair<char, int>>{
          {'T', 1}, {'R', 4}, {'N', 15}});
      phase_[c] = rng_.back().NextDouble();
      last_bound_[c].store(0);
    }
    return Status::OK();
  }

  std::vector<std::string> Describe() const override {
    return {"input: " + data_.description,
            "forest: one 4,4 tree over the 128 supplier variables; fresh "
            "bounds spread evenly (golden-ratio steps) over [" +
                std::to_string(data_.min_size) + ", " +
                std::to_string(data_.polys.SizeM()) + "]",
            "load: closed loop, 2 connections, zero think time; per request "
            "5% Tradeoff, 20% opt Compress repeating the other connection's "
            "last key, 75% opt Compress at a fresh seeded bound"};
  }

  Status Setup(Client& client) override {
    PROVABS_RETURN_IF_ERROR(Expect(client.Load(MakeLoad(data_)), "load"));
    StatusOr<Response> c = client.Compress(MakeCompress(data_.mid_bound));
    return Expect(c, "compress",
                  c.ok() ? CheckCompress(*c, cold_.expect) : "");
  }

  void Connection(int index, Client& client, const PhaseControl& control,
                  Outcome& out) override {
    provabs::Rng& rng = rng_[static_cast<size_t>(index)];
    Deck& deck = decks_[static_cast<size_t>(index)];
    const uint64_t size_m = data_.polys.SizeM();
    const std::function<bool()> reload = [&] {
      return client.Load(MakeLoad(data_)).ok();
    };
    while (Clock::now() < control.deadline) {
      const char kind = deck.Next(rng);
      if (kind == 'T') {
        provabs::TradeoffRequest req;
        req.artifact = kArtifact;
        auto a = Timed(control, out, "tradeoff",
                       [&] { return client.Tradeoff(req); }, reload);
        if (!a) continue;
        Check(control, out, a->span, "tradeoff",
              [&] { return CheckTradeoff(a->resp.points, curve_); });
        continue;
      }
      uint64_t bound = kind == 'R' ? last_bound_[1 - index].load() : 0;
      if (bound == 0) {
        // Golden-ratio steps from a seeded offset spread fresh bounds
        // evenly over the feasible range, so every run explores the same
        // mix of granularities.
        double& phase = phase_[static_cast<size_t>(index)];
        phase += 0.6180339887498949;
        phase -= std::floor(phase);
        bound = data_.min_size +
                static_cast<uint64_t>(
                    phase * static_cast<double>(size_m - data_.min_size));
      }
      last_bound_[index].store(bound);
      auto a = Send(control, out, "compress", [&] {
        return client.Compress(MakeCompress(bound));
      }, reload);
      if (!a) continue;
      // Latency is classed by how the server answered.
      Record(out,
             a->reloaded          ? "compress_after_reload"
             : a->resp.cache_hit  ? "compress_hit"
             : a->resp.dedup_hit  ? "compress_dedup"
                                  : "compress",
             *a);
      out.size_ratios.push_back(SizeRatio(a->resp, size_m));
      CompressExpect got;
      got.monomial_loss = a->resp.monomial_loss;
      got.variable_loss = a->resp.variable_loss;
      got.compressed_monomials = a->resp.compressed_monomials;
      got.vvs = a->resp.vvs;
      out.deferred.emplace_back(bound, std::move(got));
    }
  }

  void Finish(Outcome& out) override {
    // A cold in-process compression per distinct key, after the phase so
    // the oracle never competes with the server for cores.
    std::vector<uint64_t> bounds;
    for (const auto& [bound, got] : out.deferred) bounds.push_back(bound);
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    std::vector<StatusOr<ColdCompression>> cold(
        bounds.size(), Status::Internal("not computed"));
    ParallelFor(bounds.size(), [&](size_t i) {
      cold[i] = ColdCompress(data_.polys, data_.forest, *data_.vars,
                             bounds[i], /*apply=*/false);
    });
    for (const auto& [bound, got] : out.deferred) {
      const size_t i = static_cast<size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), bound) -
          bounds.begin());
      if (!cold[i].ok()) {
        out.Fail(out.mismatches, "compress", cold[i].status().ToString());
        continue;
      }
      provabs::Response as_response;
      as_response.monomial_loss = got.monomial_loss;
      as_response.variable_loss = got.variable_loss;
      as_response.compressed_monomials = got.compressed_monomials;
      as_response.vvs = got.vvs;
      std::string problem = CheckCompress(as_response, cold[i]->expect);
      if (!problem.empty()) {
        out.Fail(out.mismatches, "compress",
                 "bound " + std::to_string(bound) + ": " + problem);
      }
    }
    out.deferred.clear();
  }

  ProbeInputs probe_inputs() const override {
    return ProbeInputs{&data_, &cold_, data_.mid_bound, ProgramText(0, data_),
                       scenario_};
  }
  std::string primary_class() const override { return "compress"; }

 private:
  Dataset data_;
  ColdCompression cold_;
  std::vector<provabs::TradeoffPoint> curve_;
  Assignments scenario_;
  std::vector<provabs::Rng> rng_;
  std::vector<Deck> decks_;
  double phase_[kConnections] = {};  ///< per connection, in [0, 1)
  std::atomic<uint64_t> last_bound_[kConnections];
};

// ---------------------------------------------------------------------------
// append-stream: writes beside reads on TPC-H Q10. The writer replays a
// fixed epoch: Load the base set, then kSteps times Append a small seeded
// delta, Compress the same key, Evaluate. The reader sends compressed
// Evaluates against whatever generation is current.

class AppendStream : public Workload {
 public:
  Status Prepare(uint64_t seed) override {
    data_ = MakeTpchDataset(Query::kQ10, seed);
    // A tenth of the feasible loss range: there the cut keeps about half
    // of the leaves, so deltas can land on either side of it. At the
    // midpoint the cut is the root alone and every delta would cross it.
    bound_ = data_.polys.SizeM() - (data_.polys.SizeM() - data_.min_size) / 10;
    provabs::Rng rng(seed ^ 0x1d2e3f4aULL);
    for (size_t j = 0; j < kPool; ++j) {
      pool_.push_back(MakeOthersScenario(rng, data_));
    }
    // The chain is sequential: each delta lands on a leaf relative to the
    // previous generation's cut. Value oracles run beside it.
    states_.resize(kSteps + 1);
    provabs::PolynomialSet polys = data_.polys;
    std::vector<std::thread> evals;
    std::mutex error_mutex;
    Status error = Status::OK();
    for (size_t k = 0; k <= kSteps; ++k) {
      StatusOr<ColdCompression> cold = ColdCompress(
          polys, data_.forest, *data_.vars, bound_, /*apply=*/true);
      if (!cold.ok()) {
        error = cold.status();
        break;
      }
      StateExpect& state = states_[k];
      state.size_m = polys.SizeM();
      state.poly_count = polys.count();
      state.compress = cold->expect;
      if (k == 0) cold_ = *cold;
      auto view = std::make_shared<provabs::PolynomialSet>(
          std::move(cold->compressed));
      evals.emplace_back([this, view, &state] {
        for (const Assignments& s : pool_) {
          state.values.push_back(
              MakeValuation(s, *data_.vars).EvaluateAll(*view));
        }
      });
      if (k == kSteps) break;
      std::vector<provabs::VariableId> kept, below;
      SplitLeavesByCut(data_.forest, cold->result.vvs, &kept, &below);
      const bool cross =
          !below.empty() && (kept.empty() || rng.Bernoulli(kBelowCutShare));
      const std::vector<provabs::VariableId>& from = cross ? below : kept;
      provabs::Polynomial delta = MakeDeltaPolynomial(
          rng, from[rng.Uniform(from.size())], data_,
          static_cast<size_t>(rng.UniformInt(2, 4)));
      delta_bytes_.push_back(SerializeDelta(delta, *data_.vars));
      // Append the delta as the server will: decoded from its wire bytes.
      auto decoded =
          provabs::DeserializePolynomialSet(delta_bytes_.back(), *data_.vars);
      if (!decoded.ok()) {
        error = decoded.status();
        break;
      }
      for (const provabs::Polynomial& p : decoded->polynomials()) polys.Add(p);
    }
    for (std::thread& t : evals) t.join();
    if (!error.ok()) return error;
    reader_rng_ = provabs::Rng(seed * 1000003ULL + 303);
    return Status::OK();
  }

  std::vector<std::string> Describe() const override {
    return {"input: " + data_.description,
            "forest: one 4,4 tree over the 128 supplier variables; opt at "
            "bound " +
                std::to_string(bound_) +
                " (a tenth of the feasible loss range)",
            "load: closed loop, 2 connections, zero think time; writer "
            "epochs of Load + Compress then " +
                std::to_string(kSteps) +
                " x (Append 2-4 monomials, Compress, Evaluate), 25% of deltas "
                "below the cut; reader: compressed Evaluate of 4 seeded "
                "part-discount what-ifs"};
  }

  Status Setup(Client& client) override {
    {
      std::lock_guard<std::mutex> lock(history_mutex_);
      history_.assign(1, 0);
      inflight_ = -1;
    }
    step_ = 0;
    need_load_ = false;
    PROVABS_RETURN_IF_ERROR(Expect(client.Load(MakeLoad(data_)), "load"));
    StatusOr<Response> c = client.Compress(MakeCompress(bound_));
    PROVABS_RETURN_IF_ERROR(Expect(
        c, "compress", c.ok() ? CheckCompress(*c, states_[0].compress) : ""));
    StatusOr<Response> v =
        client.Evaluate(MakeEvaluate(pool_[0], true, bound_));
    return Expect(v, "evaluate",
                  v.ok() ? CheckValues(v->values, states_[0].values[0]) : "");
  }

  void Connection(int index, Client& client, const PhaseControl& control,
                  Outcome& out) override {
    if (index == 0) {
      Writer(client, control, out);
    } else {
      Reader(client, control, out);
    }
  }

  ProbeInputs probe_inputs() const override {
    return ProbeInputs{&data_, &cold_, bound_, ProgramText(0, data_), pool_[0]};
  }
  std::string primary_class() const override { return "recompress"; }

 private:
  static constexpr size_t kSteps = 32;
  static constexpr size_t kPool = 4;
  static constexpr double kBelowCutShare = 0.25;

  struct StateExpect {
    uint64_t size_m = 0;
    uint64_t poly_count = 0;
    CompressExpect compress;
    std::vector<std::vector<double>> values;  ///< per pool scenario
  };

  /// The writer's state machine. Any answer that the artifact was evicted
  /// restarts the epoch: the server has lost the appended generations.
  void Writer(Client& client, const PhaseControl& control, Outcome& out) {
    const std::function<bool()> restart = [&] {
      need_load_ = true;
      return false;
    };
    while (Clock::now() < control.deadline) {
      if (need_load_ || step_ == kSteps) {
        // Next epoch: reload the base set (a fresh generation with no
        // delta chain) and compress it from scratch.
        SetInflight(0);
        auto load = Timed(control, out, "load",
                          [&] { return client.Load(MakeLoad(data_)); },
                          nullptr);
        if (!load) continue;
        Publish(0);
        need_load_ = false;
        auto a = Timed(control, out, "compress", [&] {
          return client.Compress(MakeCompress(bound_));
        }, restart);
        if (!a) continue;
        out.size_ratios.push_back(SizeRatio(a->resp, states_[0].size_m));
        Check(control, out, a->span, "compress",
              [&] { return CheckCompress(a->resp, states_[0].compress); });
        continue;
      }
      const size_t k = step_ + 1;
      const StateExpect& state = states_[k];
      provabs::AppendRequest append;
      append.artifact = kArtifact;
      append.polys_bytes = delta_bytes_[k - 1];
      SetInflight(k);
      auto appended = Timed(control, out, "append",
                            [&] { return client.Append(append); }, restart);
      if (!appended) continue;
      Publish(k);
      Check(control, out, appended->span, "append", [&]() -> std::string {
        if (appended->resp.monomial_count == state.size_m &&
            appended->resp.poly_count == state.poly_count) {
          return "";
        }
        return "artifact size after append differs";
      });
      auto rc = Timed(control, out, "recompress", [&] {
        return client.Compress(MakeCompress(bound_));
      }, restart);
      if (!rc) continue;
      out.size_ratios.push_back(SizeRatio(rc->resp, state.size_m));
      Check(control, out, rc->span, "recompress",
            [&] { return CheckCompress(rc->resp, state.compress); });
      const size_t j = k % kPool;
      auto eval = Timed(control, out, "evaluate", [&] {
        return client.Evaluate(MakeEvaluate(pool_[j], true, bound_));
      }, restart);
      if (!eval) continue;
      ++out.scenarios;
      Check(control, out, eval->span, "evaluate", [&] {
        std::string problem = CheckCompress(eval->resp, state.compress);
        return problem.empty() ? CheckValues(eval->resp.values, state.values[j])
                               : problem;
      });
    }
  }

  void Reader(Client& client, const PhaseControl& control, Outcome& out) {
    // An evicted artifact is the writer's to reload; the reader waits.
    const std::function<bool()> wait = [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return Clock::now() < control.deadline;
    };
    while (Clock::now() < control.deadline) {
      const size_t j = reader_rng_.Uniform(kPool);
      size_t first = 0;
      {
        std::lock_guard<std::mutex> lock(history_mutex_);
        first = history_.size() - 1;
      }
      auto eval = Timed(control, out, "evaluate", [&] {
        return client.Evaluate(MakeEvaluate(pool_[j], true, bound_));
      }, wait);
      if (!eval) continue;
      // The server answered from a state published since `first`, or from
      // the one a still-unacknowledged write is creating.
      std::vector<size_t> window;
      {
        std::lock_guard<std::mutex> lock(history_mutex_);
        window.assign(history_.begin() + static_cast<std::ptrdiff_t>(first),
                      history_.end());
        if (inflight_ >= 0) window.push_back(static_cast<size_t>(inflight_));
      }
      ++out.scenarios;
      Check(control, out, eval->span, "evaluate", [&]() -> std::string {
        std::string problem;
        for (size_t k : window) {
          const StateExpect& state = states_[k];
          problem = CheckCompress(eval->resp, state.compress);
          if (problem.empty()) {
            problem = CheckValues(eval->resp.values, state.values[j]);
          }
          if (problem.empty()) return "";
        }
        return "no state in the window matches: " + problem;
      });
    }
  }

  /// The state the writer's outstanding write will create.
  void SetInflight(size_t k) {
    std::lock_guard<std::mutex> lock(history_mutex_);
    inflight_ = static_cast<int64_t>(k);
  }

  /// Records that the server now holds state `k`.
  void Publish(size_t k) {
    std::lock_guard<std::mutex> lock(history_mutex_);
    history_.push_back(k);
    inflight_ = -1;
    step_ = k;
  }

  Dataset data_;
  uint64_t bound_ = 0;    ///< the one compression key's bound
  ColdCompression cold_;  ///< generation 0
  std::vector<Assignments> pool_;
  std::vector<StateExpect> states_;      ///< index = appends since Load
  std::vector<std::string> delta_bytes_;  ///< delta k+1 at index k
  provabs::Rng reader_rng_{0};
  size_t step_ = 0;         ///< writer-only: appends since the last Load
  bool need_load_ = false;  ///< writer-only: the epoch must restart
  std::mutex history_mutex_;
  /// Appends-since-Load of every state the server has held, in order.
  std::vector<size_t> history_;  // guarded by history_mutex_
  int64_t inflight_ = -1;        // guarded by history_mutex_
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "whatif-serve") return std::make_unique<WhatifServe>();
  if (name == "tradeoff-explore") return std::make_unique<TradeoffExplore>();
  if (name == "append-stream") return std::make_unique<AppendStream>();
  return nullptr;
}

}  // namespace perfbench
