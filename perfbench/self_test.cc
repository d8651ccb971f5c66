// perfbench_selftest — checks the benchmark's own statistics, tracing and
// oracle before any measurement is trusted. Exits nonzero on the first
// failed check. run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "inputs.h"
#include "oracle.h"
#include "trace.h"
#include "workload/tree_gen.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

void Near(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-12,
         what + " = " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestStatistics() {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Near(Percentile(ten, 50), 5.5, "p50 of 1..10");
  Near(Percentile(ten, 90), 9.1, "p90 of 1..10");
  Near(Percentile(ten, 0), 1.0, "p0 of 1..10");
  Near(Percentile(ten, 100), 10.0, "p100 of 1..10");
  Near(Percentile({1, 2, 3, 4, 5}, 90), 4.6, "p90 of 1..5");
  Near(Median({3, 1, 2}), 2.0, "median of {3,1,2}");
  Near(Median({}), 0.0, "median of nothing");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Near(Percentile(thousand, 99), 990.01, "p99 of 1..1000");

  Expect(PercentileSupported(20, 50), "20 samples support p50");
  Expect(!PercentileSupported(19, 50), "19 samples do not support p50");
  Expect(PercentileSupported(100, 90), "100 samples support p90");
  Expect(!PercentileSupported(99, 90), "99 samples do not support p90");
  Expect(PercentileSupported(1000, 99), "1000 samples support p99");
  Expect(!PercentileSupported(999, 99), "999 samples do not support p99");
  Near(HighestSupportedPercentile(19), 0.0, "highest supported of 19");
  Near(HighestSupportedPercentile(99), 50.0, "highest supported of 99");
  Near(HighestSupportedPercentile(1000), 99.0, "highest supported of 1000");
  Near(HighestSupportedPercentile(10000), 99.9, "highest supported of 10000");

  Expect(ParseVmHwmKb("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t   4321 kB\n") ==
             4321,
         "VmHWM parse");
  Expect(ParseVmHwmKb("Name:\tx\n") == -1, "VmHWM absent");
}

void TestTracer() {
  Near(SelfTimeUs(0, 10, {}), 10.0, "self time without children");
  Near(SelfTimeUs(0, 10, {{2, 5}, {4, 7}}), 5.0, "overlapping children");
  Near(SelfTimeUs(0, 10, {{6, 8}, {1, 2}}), 7.0, "disjoint children");
  Near(SelfTimeUs(0, 10, {{-5, 3}, {9, 20}}), 6.0, "children clipped");

  Tracer tracer(true);
  const int64_t parent = tracer.Begin("a.parent", -1, 7);
  const int64_t child = tracer.Begin("b.child", parent, 7);
  tracer.End(child);
  tracer.End(parent);
  const std::vector<Span> spans = tracer.spans();
  Expect(spans.size() == 2 && spans[1].parent == parent &&
             spans[1].request == 7 && spans[0].end_us >= spans[1].end_us,
         "span recording");
  auto layers = tracer.SelfTimes();
  Expect(layers.count("a") == 1 && layers.count("b") == 1 &&
             layers["b"].spans == 1,
         "self time grouped by layer");
  Tracer disabled(false);
  Expect(disabled.Begin("x.y", -1, 0) == -1 && disabled.spans().empty(),
         "a disabled tracer records nothing");
}

/// A small set: leaves a0..a7 under a 2,2 tree, each monomial a leaf times
/// one of b0..b2.
Dataset SmallDataset() {
  Dataset data;
  data.vars = std::make_shared<provabs::VariableTable>();
  for (int i = 0; i < 8; ++i) {
    data.leaves.push_back(data.vars->Intern("a" + std::to_string(i)));
  }
  for (int j = 0; j < 3; ++j) {
    data.others.push_back(data.vars->Intern("b" + std::to_string(j)));
  }
  std::vector<provabs::Polynomial> polys;
  for (int p = 0; p < 3; ++p) {
    std::vector<provabs::Monomial> terms;
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 3; ++j) {
        if ((i + j + p) % 3 == 0) continue;
        terms.emplace_back(1.5 + i + 10 * j + 100 * p,
                           std::vector<provabs::Factor>{
                               {data.leaves[i], 1}, {data.others[j], 1}});
      }
    }
    polys.push_back(provabs::Polynomial::FromMonomials(std::move(terms)));
  }
  data.polys = provabs::PolynomialSet(std::move(polys));
  data.forest.AddTree(
      provabs::BuildUniformTree(*data.vars, data.leaves, {2, 2}, "X_"));
  data.leaf_prefix = "a";
  data.tree_prefix = "X_";
  return data;
}

void TestOracle() {
  Dataset data = SmallDataset();
  const uint64_t bound = data.polys.SizeM() - 6;
  auto cold = ColdCompress(data.polys, data.forest, *data.vars, bound,
                           /*apply=*/true);
  Expect(cold.ok(), "cold compression of the small set");
  if (!cold.ok()) return;
  auto unapplied = ColdCompress(data.polys, data.forest, *data.vars, bound,
                                /*apply=*/false);
  Expect(unapplied.ok() && unapplied->expect.compressed_monomials ==
                               cold->expect.compressed_monomials,
         "|P|_M - ML equals |P↓S|_M");

  provabs::Response resp;
  resp.monomial_loss = cold->expect.monomial_loss;
  resp.variable_loss = cold->expect.variable_loss;
  resp.compressed_monomials = cold->expect.compressed_monomials;
  resp.vvs = cold->expect.vvs;
  Expect(CheckCompress(resp, cold->expect).empty(), "matching compress");
  provabs::Response wrong_vvs = resp;
  // Another valid cut of the same tree: all roots, or all leaves when the
  // oracle's cut happens to be all roots.
  wrong_vvs.vvs = provabs::ValidVariableSet::AllRoots(data.forest)
                      .ToString(data.forest, *data.vars);
  if (wrong_vvs.vvs == resp.vvs) {
    wrong_vvs.vvs = provabs::ValidVariableSet::AllLeaves(data.forest)
                        .ToString(data.forest, *data.vars);
  }
  Expect(!CheckCompress(wrong_vvs, cold->expect).empty(),
         "a wrong vvs is rejected");
  provabs::Response wrong_ml = resp;
  ++wrong_ml.monomial_loss;
  Expect(!CheckCompress(wrong_ml, cold->expect).empty(),
         "a wrong monomial loss is rejected");

  const Assignments scenario = {{"b1", 0.75}, {"b2", 1.25}};
  const std::vector<double> want =
      MakeValuation(scenario, *data.vars).EvaluateAll(cold->compressed);
  Expect(CheckValues(want, want).empty(), "identical values accepted");
  std::vector<double> ulp = want;
  ulp[1] = std::nextafter(ulp[1], 1e300);
  Expect(!CheckValues(ulp, want).empty(), "a one-ulp perturbation is rejected");
  std::vector<double> shorter(want.begin(), want.end() - 1);
  Expect(!CheckValues(shorter, want).empty(), "a short answer is rejected");

  const std::string text =
      "LET d = SWEEP(0.50 .. 1.49 STEP 0.01); LET q = GRID(0.8, 0.9, 1.0); "
      "SET PREFIX(X_) = IF d < 1 THEN d ELSE 2 - d; SET b1 = q;";
  auto program = ExpectArgmax(text, cold->compressed, *data.vars);
  Expect(program.ok() && program->scenario_count == 300,
         "300-scenario family");
  if (program.ok()) {
    provabs::Response got;
    got.scenario_count = program->scenario_count;
    got.scenario_indices = {program->argmax};
    got.objectives = {program->objective};
    got.values = program->values;
    Expect(CheckProgram(got, *program).empty(), "matching argmax accepted");
    provabs::Response wrong_index = got;
    wrong_index.scenario_indices[0] = program->argmax + 1;
    Expect(!CheckProgram(wrong_index, *program).empty(),
           "a wrong argmax index is rejected");
    provabs::Response wrong_value = got;
    wrong_value.values[0] = std::nextafter(wrong_value.values[0], -1e300);
    Expect(!CheckProgram(wrong_value, *program).empty(),
           "a one-ulp argmax value is rejected");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestStatistics();
  perfbench::TestTracer();
  perfbench::TestOracle();
  if (perfbench::failures != 0) return 1;
  std::printf("perfbench self-test passed\n");
  return 0;
}
