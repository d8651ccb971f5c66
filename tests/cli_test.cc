#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/polynomial_set.h"
#include "core/variable.h"
#include "io/serializer.h"

namespace provabs {
namespace {

/// Shell-level smoke tests of the provabs_cli binary: the producer →
/// analyst round trip (generate → info → compress → tradeoff → evaluate).
/// The binary path is resolved relative to the test binary's conventional
/// build layout; the suite is skipped when it is absent (e.g. when tests
/// are run from an install tree).
class CliTest : public ::testing::Test {
 protected:
  /// Locates the CLI binary relative to common test working directories.
  static std::string Binary() {
    static const char* candidates[] = {
        "../tools/provabs_cli",        // ctest from build/tests
        "./tools/provabs_cli",         // manual run from build/
        "./build/tools/provabs_cli",   // manual run from the repo root
    };
    for (const char* c : candidates) {
      FILE* probe = std::fopen(c, "rb");
      if (probe != nullptr) {
        std::fclose(probe);
        return c;
      }
    }
    return "";
  }

  void SetUp() override {
    if (Binary().empty()) {
      GTEST_SKIP() << "provabs_cli binary not found";
    }
    // A per-process subdirectory: other suites (server_e2e_test) also spawn
    // the CLI with artifact files in TempDir(), and ctest runs suites in
    // parallel — shared names like p.bin would race.
    dir_ = ::testing::TempDir() + "/cli_test_" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
  }

  int Run(const std::string& args) {
    std::string cmd = Binary() + " " + args + " >/dev/null 2>&1";
    return std::system(cmd.c_str());
  }

  /// Runs a command and captures its combined stdout and stderr.
  int RunCapture(const std::string& args, std::string* output) {
    const std::string out_path = dir_ + "/cli_out.txt";
    int rc = std::system(
        (Binary() + " " + args + " > " + out_path + " 2>&1").c_str());
    std::ifstream in(out_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    *output = buffer.str();
    return rc;
  }

  /// Extracts the process exit code from a std::system wait status.
  static int ExitCode(int status) {
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string dir_;
};

TEST_F(CliTest, FullProducerAnalystRoundTrip) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.02 --out " + dir_ +
                "/p.bin --forest-out " + dir_ + "/f.bin"),
            0);
  EXPECT_EQ(Run("info --in " + dir_ + "/p.bin"), 0);
  EXPECT_EQ(Run("compress --in " + dir_ + "/p.bin --forest " + dir_ +
                "/f.bin --bound 1500 --algo opt --out " + dir_ +
                "/c.bin --vvs-out " + dir_ + "/v.bin"),
            0);
  EXPECT_EQ(Run("tradeoff --in " + dir_ + "/p.bin --forest " + dir_ +
                "/f.bin"),
            0);
  EXPECT_EQ(Run("evaluate --in " + dir_ + "/c.bin --set m1=0.8"), 0);
}

TEST_F(CliTest, GreedyAlgoSelectable) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.02 --out " + dir_ +
                "/p2.bin --forest-out " + dir_ + "/f2.bin --fanouts 4,4"),
            0);
  EXPECT_EQ(Run("compress --in " + dir_ + "/p2.bin --forest " + dir_ +
                "/f2.bin --bound 1500 --algo greedy"),
            0);
}

TEST_F(CliTest, AllRegisteredAlgosSelectable) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.01 --out " + dir_ +
                "/p3.bin --forest-out " + dir_ + "/f3.bin --fanouts 2,2"),
            0);
  // Registry-routed: the exhaustive baseline and the Prox competitor run
  // through the same subcommand as the tree algorithms, including writing
  // the compressed artifact (prox representatives are interned before
  // serialization). A generous bound keeps every algorithm fast.
  for (const std::string algo : {"opt", "greedy", "brute", "prox"}) {
    EXPECT_EQ(Run("compress --in " + dir_ + "/p3.bin --forest " + dir_ +
                  "/f3.bin --bound 100000 --algo " + algo + " --out " +
                  dir_ + "/c3-" + algo + ".bin"),
              0)
        << algo;
    EXPECT_EQ(Run("info --in " + dir_ + "/c3-" + algo + ".bin"), 0) << algo;
  }
  // A tighter bound forces prox to actually merge; the written artifact
  // must still deserialize (synthesized group variables get interned).
  EXPECT_EQ(Run("compress --in " + dir_ + "/p3.bin --forest " + dir_ +
                "/f3.bin --bound 200 --algo prox --out " + dir_ +
                "/c3-prox-tight.bin"),
            0);
  EXPECT_EQ(Run("evaluate --in " + dir_ + "/c3-prox-tight.bin"), 0);
  // A grouping algorithm cannot serialize a tree cut; rejected before the
  // algorithm runs.
  EXPECT_EQ(ExitCode(Run("compress --in " + dir_ + "/p3.bin --forest " +
                         dir_ + "/f3.bin --bound 100000 --algo prox "
                         "--vvs-out " +
                         dir_ + "/v3.bin")),
            2);
}

TEST_F(CliTest, EvalBackendSelectable) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.02 --out " + dir_ +
                "/pe.bin --forest-out " + dir_ + "/fe.bin"),
            0);
  // Every registered evaluation backend serves the same evaluate command.
  for (const std::string backend : {"compiled", "simd_batch", "jit"}) {
    EXPECT_EQ(Run("evaluate --in " + dir_ + "/pe.bin --set m1=0.8 "
                  "--eval-backend " + backend),
              0)
        << backend;
  }
}

TEST_F(CliTest, UnknownEvalBackendIsUsageError) {
  // Strict registry validation: exit 2 before any file is touched.
  EXPECT_EQ(ExitCode(Run("evaluate --in nope.bin --eval-backend turbo")), 2);
  EXPECT_EQ(ExitCode(Run("remote-evaluate --port 1 --name a "
                         "--eval-backend turbo")),
            2);
}

TEST_F(CliTest, UnknownAlgoIsUsageError) {
  // Strict registry validation: exit 2 before any file is touched.
  EXPECT_EQ(ExitCode(Run("compress --in nope.bin --forest nope.bin "
                         "--bound 5 --algo quantum")),
            2);
  EXPECT_EQ(ExitCode(Run("remote-compress --port 1 --name a --bound 5 "
                         "--algo quantum")),
            2);
  EXPECT_EQ(ExitCode(Run("remote-evaluate --port 1 --name a --bound 5 "
                         "--algo quantum")),
            2);
}

TEST_F(CliTest, MissingFlagsAreUsageErrors) {
  EXPECT_NE(Run("generate --workload telephony"), 0);
  EXPECT_NE(Run("compress --in nope.bin"), 0);
  EXPECT_NE(Run("frobnicate"), 0);
}

TEST_F(CliTest, MissingFileIsRuntimeError) {
  EXPECT_NE(Run("info --in " + dir_ + "/definitely_missing.bin"), 0);
}

TEST_F(CliTest, UnknownFlagsAreUsageErrors) {
  // A typo must fail loudly, never be silently ignored.
  EXPECT_NE(Run("info --bogus x"), 0);
  EXPECT_NE(Run("generate --workload telephony --out " + dir_ +
                "/t.bin --typo 1"),
            0);
  EXPECT_NE(Run("evaluate --in x.bin stray-word"), 0);
  EXPECT_NE(Run("info --in"), 0);  // flag without a value
}

TEST_F(CliTest, RemotePortIsValidatedStrictly) {
  EXPECT_NE(Run("remote-info --name x"), 0);      // missing --port
  EXPECT_NE(Run("remote-info --port 99999"), 0);  // out of range
  EXPECT_NE(Run("remote-info --port abc"), 0);    // non-numeric
}

TEST_F(CliTest, HelpExitsZero) {
  EXPECT_EQ(Run("--help"), 0);
  EXPECT_EQ(Run("help"), 0);
  EXPECT_EQ(Run("compress --help"), 0);
  EXPECT_EQ(Run("remote-load --help"), 0);
}

TEST_F(CliTest, ScenarioSubcommandEvaluatesFamilies) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.02 --out " + dir_ +
                "/ps.bin --forest-out " + dir_ + "/fs.bin"),
            0);
  const std::string program =
      "'LET d = GRID(0.5, 1); SET PREFIX(plan) = d; SET * = 1;'";
  EXPECT_EQ(Run("scenario --in " + dir_ + "/ps.bin --expr " + program), 0);
  // Every registered backend and every shape serve the same subcommand.
  for (const std::string backend : {"compiled", "simd_batch", "jit"}) {
    EXPECT_EQ(Run("scenario --in " + dir_ + "/ps.bin --expr " + program +
                  " --eval-backend " + backend),
              0)
        << backend;
  }
  for (const std::string shape : {"values", "argmin", "argmax"}) {
    EXPECT_EQ(Run("scenario --in " + dir_ + "/ps.bin --expr " + program +
                  " --shape " + shape),
              0)
        << shape;
  }
  EXPECT_EQ(Run("scenario --in " + dir_ + "/ps.bin --expr " + program +
                " --shape topk --top-k 2"),
            0);
  // --expr-file is the other source; the same program from disk.
  std::string expr_file = dir_ + "/prog.scn";
  {
    std::ofstream out(expr_file);
    out << "LET d = GRID(0.5, 1);\nSET PREFIX(plan) = d;\nSET * = 1;\n";
  }
  EXPECT_EQ(Run("scenario --in " + dir_ + "/ps.bin --expr-file " + expr_file),
            0);
}

TEST_F(CliTest, ScenarioParseAndSemanticErrorsAreExit2) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.01 --out " + dir_ +
                "/pe2.bin"),
            0);
  // Parse error (caret diagnostic on stderr), semantic error (unknown
  // variable), type error: all exit 2, never a crash.
  EXPECT_EQ(ExitCode(Run("scenario --in " + dir_ +
                         "/pe2.bin --expr 'LET d = SWEEP(1 .. 2 STEP)'")),
            2);
  EXPECT_EQ(ExitCode(Run("scenario --in " + dir_ +
                         "/pe2.bin --expr 'SET ghost = 1;'")),
            2);
  EXPECT_EQ(ExitCode(Run("scenario --in " + dir_ +
                         "/pe2.bin --expr 'LET d = GRID(1); SET * = d < 1;'")),
            2);
  // remote-scenario pre-checks syntax locally: exit 2 without a server.
  EXPECT_EQ(ExitCode(Run("remote-scenario --port 1 --name a "
                         "--expr 'LET broken ='")),
            2);
}

TEST_F(CliTest, ScenarioFlagValidation) {
  // Flags are validated before any file is opened, so a missing input
  // artifact never masks the usage error.
  const std::string ok_expr = "--expr 'SET * = 1;'";
  EXPECT_EQ(ExitCode(Run("scenario " + ok_expr)), 2);  // missing --in
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin")), 2);  // no program
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin --expr 'SET * = 1;' "
                         "--expr-file also.scn")),
            2);  // both sources
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin " + ok_expr +
                         " --shape sideways")),
            2);  // unknown shape
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin " + ok_expr +
                         " --shape topk")),
            2);  // topk without --top-k
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin " + ok_expr +
                         " --shape topk --top-k 0")),
            2);  // zero k
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin " + ok_expr +
                         " --shape values --top-k 3")),
            2);  // --top-k outside topk
  EXPECT_EQ(ExitCode(Run("scenario --in nope.bin " + ok_expr +
                         " --eval-backend turbo")),
            2);  // unknown backend
  // remote-scenario shares the validators.
  EXPECT_EQ(ExitCode(Run("remote-scenario --port 1 --name a " + ok_expr +
                         " --shape topk")),
            2);
  EXPECT_EQ(ExitCode(Run("remote-scenario --port 1 --name a " + ok_expr +
                         " --algo opt")),
            2);  // --algo requires --bound
}

TEST_F(CliTest, AppendWithLeafLocalDeltaReportsThePatch) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.01 --out " + dir_ +
                "/pa.bin --forest-out " + dir_ + "/fa.bin"),
            0);
  // One monomial on a single plan leaf. The bound keeps every leaf in the
  // cut, so the delta lies under no chosen internal node and the
  // recompression patches the pre-append DP state.
  VariableTable vars;
  PolynomialSet extra;
  extra.Add(Polynomial::FromMonomials(
      {Monomial(2.5, {{vars.Intern("plan3"), 1}})}));
  ASSERT_TRUE(WriteFile(dir_ + "/delta.bin",
                        SerializePolynomialSet(extra, vars))
                  .ok());
  std::string out;
  ASSERT_EQ(RunCapture("append --in " + dir_ + "/pa.bin --add " + dir_ +
                           "/delta.bin --forest " + dir_ +
                           "/fa.bin --bound 100000 --out " + dir_ +
                           "/merged.bin",
                       &out),
            0)
      << out;
  EXPECT_NE(out.find("appended to"), std::string::npos) << out;
  EXPECT_NE(out.find("ML=0 VL=0"), std::string::npos) << out;
  EXPECT_NE(out.find("single-flight: patched a predecessor generation"),
            std::string::npos)
      << out;
  EXPECT_EQ(Run("info --in " + dir_ + "/merged.bin"), 0);
}

TEST_F(CliTest, AppendReadsTheDeltaBeforeAnyDp) {
  ASSERT_EQ(Run("generate --workload telephony --scale 0.01 --out " + dir_ +
                "/pm.bin --forest-out " + dir_ + "/fm.bin"),
            0);
  // A missing --add file fails before the pre-append compression runs:
  // the error names the file, not the bound the DP would find infeasible.
  std::string out;
  EXPECT_EQ(ExitCode(RunCapture("append --in " + dir_ + "/pm.bin --add " +
                                    dir_ + "/missing.bin --forest " + dir_ +
                                    "/fm.bin --bound 1",
                                &out)),
            1)
      << out;
  EXPECT_NE(out.find("missing.bin"), std::string::npos) << out;
  EXPECT_EQ(out.find("Infeasible"), std::string::npos) << out;
}

TEST_F(CliTest, UnknownWorkloadRejected) {
  EXPECT_NE(Run("generate --workload tpch-q99 --out " + dir_ + "/x.bin"),
            0);
}

}  // namespace
}  // namespace provabs
