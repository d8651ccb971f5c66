/// provabs_cli — command-line front end for the provenance-abstraction
/// pipeline, mirroring the paper's deployment story: a producer generates
/// provenance once (`generate`), compresses it under a bound (`compress`),
/// and ships compact binary artifacts to analysts, who inspect (`info`,
/// `tradeoff`) and run what-if scenarios (`evaluate`) locally — or, with
/// the `remote-*` subcommands, against a long-lived `provabs_server` that
/// keeps artifacts and compressed results resident (see docs/SERVER.md).

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "common/timer.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "online/online_compressor.h"
#include "scenario/parser.h"
#include "scenario/program.h"
#include "server/client.h"
#include "server/wire_protocol.h"
#include "workload/telephony.h"
#include "workload/tpch.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

const char kUsage[] =
    "usage: provabs_cli <command> [flags]\n"
    "\n"
    "offline pipeline:\n"
    "  generate --workload telephony|tpch-q1|tpch-q5|tpch-q10\n"
    "      [--scale S] [--fanouts 8 | 4,4 | 2,2,8] --out P.bin\n"
    "      [--forest-out F.bin]\n"
    "  info --in P.bin\n"
    "  compress --in P.bin --forest F.bin --bound N\n"
    "      [--algo NAME] [--budget-ms MS] [--vvs-out V.bin] [--out C.bin]\n"
    "  append --in P.bin --add EXTRA.bin [--out MERGED.bin]\n"
    "      [--forest F.bin --bound N]   (with a forest and bound, the\n"
    "       compression is re-derived incrementally from the pre-append\n"
    "       DP state, falling back to the full DP only when it must)\n"
    "  tradeoff --in P.bin --forest F.bin\n"
    "  evaluate --in P.bin [--set var=value]... [--eval-backend NAME]\n"
    "  scenario --in P.bin (--expr TEXT | --expr-file F.scn)\n"
    "      [--shape values|argmin|argmax|topk [--top-k K]]\n"
    "      [--eval-backend NAME]\n"
    "\n"
    "serving (against a running provabs_server):\n"
    "  remote-load --port P --name A --in P.bin [--forest F.bin]\n"
    "      [--forest-name N] [--host H]\n"
    "  remote-append --port P --name A --in EXTRA.bin [--host H]\n"
    "  remote-info --port P [--name A] [--host H]\n"
    "  remote-compress --port P --name A --bound N\n"
    "      [--algo NAME] [--forest-name N] [--host H]\n"
    "  remote-evaluate --port P --name A [--set var=value]...\n"
    "      [--eval-backend NAME]\n"
    "      [--bound N [--algo NAME] [--forest-name N]] [--host H]\n"
    "  remote-scenario --port P --name A (--expr TEXT | --expr-file F.scn)\n"
    "      [--shape values|argmin|argmax|topk [--top-k K]]\n"
    "      [--eval-backend NAME]\n"
    "      [--bound N [--algo NAME] [--forest-name N]] [--host H]\n"
    "  remote-tradeoff --port P --name A [--forest-name N] [--host H]\n"
    "  remote-shutdown --port P [--host H]\n"
    "  (every remote-* accepts --timeout-ms MS: bound the connect and "
    "each RPC,\n"
    "   failing with DeadlineExceeded instead of hanging)\n"
    "\n"
    "run 'provabs_cli <command> --help' for the command's flags.\n";

/// One line of an algorithm listing: name, summary, capability suffixes.
/// Shared by --help (local registry) and remote-info (the server's
/// ListAlgos records) so the two renderings cannot drift.
void PrintAlgoLine(std::FILE* out, const std::string& name,
                   const std::string& summary, bool deterministic,
                   bool supports_tradeoff, bool exact, bool produces_cut,
                   bool supports_time_budget) {
  std::string caps;
  if (exact) caps += ", exact";
  if (supports_tradeoff) caps += ", tradeoff";
  if (!produces_cut) caps += ", grouping";
  if (!deterministic) caps += ", randomized";
  // Only the absence is worth a caller's attention: --budget-ms against
  // such an algorithm would be silently ignored.
  if (!supports_time_budget) caps += ", no-time-budget";
  std::fprintf(out, "  %-8s %s%s\n", name.c_str(), summary.c_str(),
               caps.c_str());
}

/// One line of an evaluation-backend listing: name, summary, capability
/// suffixes. Shared by --help (local registry) and remote-info (the
/// server's ListBackends records) so the two renderings cannot drift.
void PrintBackendLine(std::FILE* out, const std::string& name,
                      const std::string& summary, bool vectorized,
                      bool deterministic, uint64_t preferred_batch) {
  std::string caps;
  if (vectorized) caps += ", simd";
  if (!deterministic) caps += ", nondeterministic";
  if (preferred_batch > 1) {
    caps += ", batch>=" + std::to_string(preferred_batch);
  }
  std::fprintf(out, "  %-10s %s%s\n", name.c_str(), summary.c_str(),
               caps.c_str());
}

/// Usage text plus the live registries, so --help never drifts from what
/// --algo / --eval-backend actually accept.
void PrintUsage(std::FILE* out) {
  std::fputs(kUsage, out);
  std::fprintf(out, "registered algorithms (--algo):\n");
  for (const CompressorInfo& info : CompressorRegistry::Default().Infos()) {
    PrintAlgoLine(out, info.name, info.summary, info.deterministic,
                  info.supports_tradeoff, info.exact, info.produces_cut,
                  info.supports_time_budget);
  }
  std::fprintf(out, "registered evaluation backends (--eval-backend):\n");
  for (const EvaluationBackendInfo& info :
       EvaluationBackendRegistry::Default().Infos()) {
    PrintBackendLine(out, info.name, info.summary, info.vectorized,
                     info.deterministic, info.preferred_batch);
  }
}

/// Strict --algo validation shared by the local and remote subcommands:
/// a name outside the registry is a usage error (exit 2) that lists what is
/// registered, the same "typos fail loudly" contract the flag parser has.
bool ValidateAlgo(const std::string& algo, const char* cmd) {
  if (CompressorRegistry::Default().Find(algo) != nullptr) return true;
  std::fprintf(stderr, "%s: unknown algorithm '%s' (registered: %s)\n", cmd,
               algo.c_str(),
               CompressorRegistry::Default().NamesCsv().c_str());
  return false;
}

/// Strict --eval-backend validation, same contract as ValidateAlgo. An
/// empty name (flag absent) is valid: measured routing picks.
bool ValidateEvalBackend(const std::string& backend, const char* cmd) {
  if (backend.empty() ||
      EvaluationBackendRegistry::Default().Find(backend) != nullptr) {
    return true;
  }
  std::fprintf(stderr,
               "%s: unknown evaluation backend '%s' (registered: %s)\n", cmd,
               backend.c_str(),
               EvaluationBackendRegistry::Default().NamesCsv().c_str());
  return false;
}

/// Minimal strict flag parser: --name value pairs plus repeated --set
/// entries. Flags outside `allowed` (and bare non-flag words) are usage
/// errors — a typo must never be silently ignored.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> sets;
  bool help = false;

  const char* Get(const std::string& name,
                  const char* fallback = nullptr) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second.c_str();
  }
};

bool ParseArgs(int argc, char** argv, int start, const char* cmd,
               std::initializer_list<const char*> allowed, Args* out) {
  for (int i = start; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      out->help = true;
      return true;
    }
    if (flag.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", cmd,
                   flag.c_str());
      return false;
    }
    std::string name = flag.substr(2);
    bool known = false;
    for (const char* a : allowed) {
      if (name == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", cmd, flag.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: flag '%s' needs a value\n", cmd,
                   flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    if (name == "set") {
      out->sets.push_back(value);
    } else {
      out->flags[name] = value;
    }
  }
  return true;
}

/// Strict numeric parses: garbage, trailing junk, or a sign on an unsigned
/// flag is a usage error — the same "a typo must fail loudly" contract the
/// flag names follow (atoi/atof would silently truncate "15oo" to 15).
bool ParseUint64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      std::strchr(text, '-') != nullptr) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseFanouts(const std::string& spec, std::vector<uint32_t>* fanouts) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    uint64_t value = 0;
    if (!ParseUint64(spec.substr(pos, comma - pos).c_str(), &value) ||
        value < 1 || value > (1u << 20)) {
      return false;
    }
    fanouts->push_back(static_cast<uint32_t>(value));
    pos = comma + 1;
  }
  return !fanouts->empty();
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// --------------------------------------------------- scenario front end --

/// Reads the scenario program source from --expr (literal text) or
/// --expr-file (a path); exactly one of the two is required. Returns 0 and
/// fills `out` on success; otherwise the exit code (2 usage, 1 I/O).
int ReadProgramSource(const Args& args, const char* cmd, std::string* out) {
  const char* expr = args.Get("expr");
  const char* expr_file = args.Get("expr-file");
  if ((expr == nullptr) == (expr_file == nullptr)) {
    std::fprintf(stderr, "%s requires exactly one of --expr / --expr-file\n",
                 cmd);
    return 2;
  }
  if (expr != nullptr) {
    *out = expr;
    return 0;
  }
  auto data = ReadFileToString(expr_file);
  if (!data.ok()) return Fail(data.status());
  *out = std::move(*data);
  return 0;
}

/// Parses --shape / --top-k. Default shape is values; --top-k is only
/// meaningful (and then mandatory, >= 1) with --shape topk.
bool ParseShapeArgs(const Args& args, const char* cmd, ScenarioShape* shape,
                    uint64_t* top_k) {
  const char* name = args.Get("shape", "values");
  std::string s = name;
  if (s == "values") {
    *shape = ScenarioShape::kValues;
  } else if (s == "argmin") {
    *shape = ScenarioShape::kArgmin;
  } else if (s == "argmax") {
    *shape = ScenarioShape::kArgmax;
  } else if (s == "topk") {
    *shape = ScenarioShape::kTopK;
  } else {
    std::fprintf(stderr,
                 "%s: bad --shape '%s' (want values|argmin|argmax|topk)\n",
                 cmd, name);
    return false;
  }
  const char* k = args.Get("top-k");
  if (*shape != ScenarioShape::kTopK) {
    if (k != nullptr) {
      std::fprintf(stderr, "%s: --top-k requires --shape topk\n", cmd);
      return false;
    }
    *top_k = 0;
    return true;
  }
  if (k == nullptr || !ParseUint64(k, top_k) || *top_k == 0) {
    std::fprintf(stderr,
                 "%s: --shape topk needs --top-k K (a positive integer)\n",
                 cmd);
    return false;
  }
  return true;
}

/// Prints a compile/parse failure with the caret diagnostic the offset
/// points at, matching compiler convention; callers exit 2 (usage error:
/// the program text is an argument, and it is malformed).
void PrintScenarioError(const char* cmd, const Status& status,
                        std::string_view source, size_t offset) {
  std::fprintf(stderr, "%s: %s\n%s\n", cmd, status.message().c_str(),
               scenario::CaretDiagnostic(source, offset).c_str());
}

void PrintValueRow(const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    std::printf(i == 0 ? "%.6f" : " %.6f", values[i]);
  }
  std::printf("\n");
}

// ----------------------------------------------------- offline pipeline --

int CmdGenerate(const Args& args) {
  const char* workload = args.Get("workload");
  const char* out = args.Get("out");
  if (workload == nullptr || out == nullptr) {
    std::fprintf(stderr, "generate requires --workload and --out\n");
    return 2;
  }
  double scale = 0;
  if (!ParseDouble(args.Get("scale", "0.2"), &scale) || scale <= 0) {
    std::fprintf(stderr, "generate: bad --scale '%s' (want a number > 0)\n",
                 args.Get("scale", "0.2"));
    return 2;
  }
  std::vector<uint32_t> fanouts;
  if (!ParseFanouts(args.Get("fanouts", "8"), &fanouts)) {
    std::fprintf(stderr,
                 "generate: bad --fanouts '%s' (want e.g. 8 or 4,4)\n",
                 args.Get("fanouts", "8"));
    return 2;
  }

  VariableTable vars;
  PolynomialSet polys;
  std::vector<VariableId> tree_leaves;
  std::string name = workload;
  if (name == "telephony") {
    TelephonyConfig config;
    config.num_customers = static_cast<size_t>(10000 * scale);
    Rng rng(config.seed);
    TelephonyVars tv = MakeTelephonyVars(vars, config);
    polys = RunTelephonyQuery(GenerateTelephony(config, rng), tv);
    tree_leaves = tv.plan_vars;
  } else if (name.rfind("tpch-", 0) == 0) {
    TpchConfig config;
    config.scale_factor = scale;
    Rng rng(config.seed);
    Database db = GenerateTpch(config, rng);
    TpchVars tv = MakeTpchVars(vars, 128);
    TpchQuery q;
    if (name == "tpch-q1") {
      q = TpchQuery::kQ1;
    } else if (name == "tpch-q5") {
      q = TpchQuery::kQ5;
    } else if (name == "tpch-q10") {
      q = TpchQuery::kQ10;
    } else {
      std::fprintf(stderr, "unknown TPC-H workload %s\n", workload);
      return 2;
    }
    polys = RunTpchQuery(q, db, tv);
    tree_leaves = tv.supplier_vars;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }

  Status write = WriteFile(out, SerializePolynomialSet(polys, vars));
  if (!write.ok()) return Fail(write);
  std::printf("wrote %s: %zu polynomials, %zu monomials, %zu variables\n",
              out, polys.count(), polys.SizeM(), polys.SizeV());

  if (const char* forest_out = args.Get("forest-out")) {
    AbstractionForest forest;
    forest.AddTree(BuildUniformTree(vars, tree_leaves, fanouts, "T_"));
    Status fw = WriteFile(forest_out, SerializeForest(forest, vars));
    if (!fw.ok()) return Fail(fw);
    std::printf("wrote %s: 1 tree, %zu nodes\n", forest_out,
                forest.TotalNodes());
  }
  return 0;
}

int CmdInfo(const Args& args) {
  const char* in = args.Get("in");
  if (in == nullptr) {
    std::fprintf(stderr, "info requires --in\n");
    return 2;
  }
  auto data = ReadFileToString(in);
  if (!data.ok()) return Fail(data.status());
  VariableTable vars;
  auto polys = DeserializePolynomialSet(*data, vars);
  if (!polys.ok()) return Fail(polys.status());
  std::printf("%s: %zu bytes\n", in, data->size());
  std::printf("  polynomials : %zu\n", polys->count());
  std::printf("  monomials   : %zu (|P|_M)\n", polys->SizeM());
  std::printf("  variables   : %zu (|P|_V)\n", polys->SizeV());
  size_t max_m = 0;
  size_t min_m = SIZE_MAX;
  for (const Polynomial& p : polys->polynomials()) {
    max_m = std::max(max_m, p.SizeM());
    min_m = std::min(min_m, p.SizeM());
  }
  if (polys->count() > 0) {
    std::printf("  per polynomial: min %zu, max %zu, avg %.2f monomials\n",
                min_m, max_m,
                static_cast<double>(polys->SizeM()) /
                    static_cast<double>(polys->count()));
  }
  return 0;
}

int CmdCompress(const Args& args) {
  const char* in = args.Get("in");
  const char* forest_path = args.Get("forest");
  const char* bound_str = args.Get("bound");
  if (in == nullptr || forest_path == nullptr || bound_str == nullptr) {
    std::fprintf(stderr, "compress requires --in, --forest, --bound\n");
    return 2;
  }
  // Validate flags before touching the (possibly large) artifact files, so
  // usage errors surface as usage errors — and before the compression
  // runs, so an impossible flag combination never costs an algorithm run.
  std::string algo = args.Get("algo", "opt");
  if (!ValidateAlgo(algo, "compress")) return 2;
  const Compressor* compressor = CompressorRegistry::Default().Find(algo);
  if (args.Get("vvs-out") != nullptr && !compressor->info().produces_cut) {
    std::fprintf(stderr,
                 "compress: --vvs-out requires a cut-based algorithm "
                 "('%s' produces a variable grouping)\n",
                 algo.c_str());
    return 2;
  }
  VariableTable vars;
  auto polys_data = ReadFileToString(in);
  if (!polys_data.ok()) return Fail(polys_data.status());
  auto polys = DeserializePolynomialSet(*polys_data, vars);
  if (!polys.ok()) return Fail(polys.status());
  auto forest_data = ReadFileToString(forest_path);
  if (!forest_data.ok()) return Fail(forest_data.status());
  auto forest = DeserializeForest(*forest_data, vars);
  if (!forest.ok()) return Fail(forest.status());

  uint64_t bound = 0;
  if (!ParseUint64(bound_str, &bound)) {
    std::fprintf(stderr,
                 "compress: bad --bound '%s' (want a non-negative integer)\n",
                 bound_str);
    return 2;
  }
  CompressOptions copts;
  copts.bound = bound;
  if (const char* budget_str = args.Get("budget-ms")) {
    if (!ParseUint64(budget_str, &copts.time_budget_ms) ||
        copts.time_budget_ms == 0) {
      std::fprintf(stderr,
                   "compress: bad --budget-ms '%s' (want a positive integer)\n",
                   budget_str);
      return 2;
    }
  }
  Timer timer;
  StatusOr<CompressionResult> result =
      compressor->Compress(*polys, *forest, copts);
  if (!result.ok()) return Fail(result.status());
  // An exhausted budget is not an error for the anytime algorithms: the
  // cut is valid and its loss exact, only optimality was traded — but the
  // caller must be able to see the trade happened.
  std::string caveats;
  if (result->budget_exhausted) caveats += " (budget exhausted: best-so-far)";
  if (!result->adequate) caveats += " (bound not reached)";
  std::printf("%s: ML=%zu VL=%zu%s in %.3fs\n", algo.c_str(),
              result->loss.monomial_loss, result->loss.variable_loss,
              caveats.c_str(), timer.ElapsedSeconds());
  std::printf("VVS: %s\n", result->Describe(*forest, vars).c_str());

  if (const char* vvs_out = args.Get("vvs-out")) {
    if (result->grouping) {
      // Unreachable for the built-ins (caught pre-run via produces_cut);
      // guards third-party compressors whose metadata lies.
      std::fprintf(stderr,
                   "compress: --vvs-out requires a cut-based algorithm "
                   "('%s' produced a variable grouping)\n",
                   algo.c_str());
      return 2;
    }
    Status w = WriteFile(vvs_out, SerializeVvs(result->vvs, *forest, vars));
    if (!w.ok()) return Fail(w);
  }
  if (const char* out = args.Get("out")) {
    // Grouping results synthesize group representatives outside the
    // variable table; intern them so the compressed set serializes.
    result->InternGrouping(vars);
    PolynomialSet compressed = result->Apply(*forest, *polys);
    Status w = WriteFile(out, SerializePolynomialSet(compressed, vars));
    if (!w.ok()) return Fail(w);
    std::printf("wrote %s: %zu monomials\n", out, compressed.SizeM());
  }
  return 0;
}

/// Offline mirror of the server's incremental-update path: compress the
/// base artifact once (retaining the DP state on the result), append the
/// extra polynomials through the delta log, then re-derive the compression
/// with OptimalRecompress — the full DP runs again only when a patch gate
/// declines (the printed fallback reason names which one).
int CmdAppend(const Args& args) {
  const char* in = args.Get("in");
  const char* add = args.Get("add");
  if (in == nullptr || add == nullptr) {
    std::fprintf(stderr, "append requires --in and --add\n");
    return 2;
  }
  const char* forest_path = args.Get("forest");
  const char* bound_str = args.Get("bound");
  if ((forest_path == nullptr) != (bound_str == nullptr)) {
    std::fprintf(stderr, "append: --forest and --bound go together\n");
    return 2;
  }
  uint64_t bound = 0;
  if (bound_str != nullptr && !ParseUint64(bound_str, &bound)) {
    std::fprintf(stderr,
                 "append: bad --bound '%s' (want a non-negative integer)\n",
                 bound_str);
    return 2;
  }

  VariableTable vars;
  auto base_data = ReadFileToString(in);
  if (!base_data.ok()) return Fail(base_data.status());
  auto polys = DeserializePolynomialSet(*base_data, vars);
  if (!polys.ok()) return Fail(polys.status());
  auto add_data = ReadFileToString(add);
  if (!add_data.ok()) return Fail(add_data.status());
  auto extra = DeserializePolynomialSet(*add_data, vars);
  if (!extra.ok()) return Fail(extra.status());

  std::optional<CompressionResult> before;
  AbstractionForest forest;
  if (forest_path != nullptr) {
    auto forest_data = ReadFileToString(forest_path);
    if (!forest_data.ok()) return Fail(forest_data.status());
    auto parsed = DeserializeForest(*forest_data, vars);
    if (!parsed.ok()) return Fail(parsed.status());
    forest = std::move(*parsed);
    auto pre = OptimalSingleTree(*polys, forest, 0, bound);
    if (!pre.ok()) return Fail(pre.status());
    before = std::move(*pre);
  }

  const uint64_t base_revision = polys->revision();
  for (const Polynomial& p : extra->polynomials()) polys->Add(p);
  std::printf("appended %zu polynomials: now %zu polynomials, %zu "
              "monomials, %zu variables\n",
              extra->count(), polys->count(), polys->SizeM(),
              polys->SizeV());

  if (forest_path != nullptr) {
    PolynomialSetDelta delta = polys->DeltaSince(base_revision);
    Timer timer;
    RecompressFallback fallback = RecompressFallback::kNone;
    StatusOr<CompressionResult> result = OptimalRecompress(
        *polys, forest, *before, delta, bound, &fallback);
    if (fallback != RecompressFallback::kNone) {
      std::printf("recompress: fallback to the full DP (%s)\n",
                  RecompressFallbackName(fallback));
      timer = Timer();
      result = OptimalSingleTree(*polys, forest, 0, bound);
    }
    if (!result.ok()) return Fail(result.status());
    std::printf("%s: ML=%zu VL=%zu%s in %.3fs\n",
                fallback == RecompressFallback::kNone ? "opt (patched)"
                                                      : "opt (full)",
                result->loss.monomial_loss, result->loss.variable_loss,
                result->adequate ? "" : " (bound not reached)",
                timer.ElapsedSeconds());
    std::printf("VVS: %s\n", result->Describe(forest, vars).c_str());
  }

  if (const char* out = args.Get("out")) {
    Status w = WriteFile(out, SerializePolynomialSet(*polys, vars));
    if (!w.ok()) return Fail(w);
    std::printf("wrote %s: %zu monomials\n", out, polys->SizeM());
  }
  return 0;
}

int CmdTradeoff(const Args& args) {
  const char* in = args.Get("in");
  const char* forest_path = args.Get("forest");
  if (in == nullptr || forest_path == nullptr) {
    std::fprintf(stderr, "tradeoff requires --in and --forest\n");
    return 2;
  }
  VariableTable vars;
  auto polys_data = ReadFileToString(in);
  if (!polys_data.ok()) return Fail(polys_data.status());
  auto polys = DeserializePolynomialSet(*polys_data, vars);
  if (!polys.ok()) return Fail(polys.status());
  auto forest_data = ReadFileToString(forest_path);
  if (!forest_data.ok()) return Fail(forest_data.status());
  auto forest = DeserializeForest(*forest_data, vars);
  if (!forest.ok()) return Fail(forest.status());

  auto curve = OptimalTradeoffCurve(*polys, *forest, 0);
  if (!curve.ok()) return Fail(curve.status());
  std::printf("%12s %14s\n", "size |P'|_M", "variable loss");
  for (const TradeoffPoint& p : *curve) {
    std::printf("%12zu %14zu\n", p.size_m, p.variable_loss);
  }
  return 0;
}

int CmdEvaluate(const Args& args) {
  const char* in = args.Get("in");
  if (in == nullptr) {
    std::fprintf(stderr, "evaluate requires --in\n");
    return 2;
  }
  std::string backend = args.Get("eval-backend", "");
  if (!ValidateEvalBackend(backend, "evaluate")) return 2;
  VariableTable vars;
  auto polys_data = ReadFileToString(in);
  if (!polys_data.ok()) return Fail(polys_data.status());
  auto polys = DeserializePolynomialSet(*polys_data, vars);
  if (!polys.ok()) return Fail(polys.status());

  Valuation val;
  for (const std::string& assignment : args.sets) {
    size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --set '%s' (want var=value)\n",
                   assignment.c_str());
      return 2;
    }
    std::string name = assignment.substr(0, eq);
    VariableId id = vars.Find(name);
    if (id == kInvalidVariable) {
      std::fprintf(stderr, "unknown variable '%s'\n", name.c_str());
      return 2;
    }
    double value = 0;
    if (!ParseDouble(assignment.substr(eq + 1).c_str(), &value)) {
      std::fprintf(stderr, "bad --set '%s' (value is not a number)\n",
                   assignment.c_str());
      return 2;
    }
    val.Set(id, value);
  }

  Timer timer;
  // Routed through the evaluation-backend registry; all backends return
  // bitwise identical values, so --eval-backend only selects a strategy.
  StatusOr<std::vector<std::vector<double>>> results =
      EvaluateScenarios(*polys, {val}, backend);
  if (!results.ok()) return Fail(results.status());
  double elapsed = timer.ElapsedSeconds();
  const std::vector<double>& answers = results->front();
  for (size_t i = 0; i < answers.size(); ++i) {
    std::printf("polynomial %zu: %.6f\n", i, answers[i]);
  }
  std::printf("(%zu polynomials in %.4fs%s%s)\n", answers.size(), elapsed,
              backend.empty() ? "" : ", backend: ",
              backend.c_str());
  return 0;
}

int CmdScenario(const Args& args) {
  const char* in = args.Get("in");
  if (in == nullptr) {
    std::fprintf(stderr, "scenario requires --in\n");
    return 2;
  }
  std::string backend = args.Get("eval-backend", "");
  if (!ValidateEvalBackend(backend, "scenario")) return 2;
  ScenarioShape shape = ScenarioShape::kValues;
  uint64_t top_k = 0;
  if (!ParseShapeArgs(args, "scenario", &shape, &top_k)) return 2;
  std::string source;
  if (int rc = ReadProgramSource(args, "scenario", &source)) return rc;

  VariableTable vars;
  auto polys_data = ReadFileToString(in);
  if (!polys_data.ok()) return Fail(polys_data.status());
  auto polys = DeserializePolynomialSet(*polys_data, vars);
  if (!polys.ok()) return Fail(polys.status());
  auto compiled = polys->Compiled();

  size_t error_offset = 0;
  auto program =
      scenario::ScenarioProgram::Compile(source, compiled, vars,
                                         &error_offset);
  if (!program.ok()) {
    PrintScenarioError("scenario", program.status(), source, error_offset);
    return 2;
  }
  const uint64_t total = program->scenario_count();
  const size_t poly_count = compiled->poly_count();

  struct Pick {
    uint64_t index;
    double objective;
    std::vector<double> values;
  };
  const bool shaped = shape != ScenarioShape::kValues;
  const uint64_t keep = shape == ScenarioShape::kTopK ? top_k : 1;
  auto better = [shape](const Pick& a, const Pick& b) {
    if (a.objective != b.objective) {
      return shape == ScenarioShape::kArgmin ? a.objective < b.objective
                                             : a.objective > b.objective;
    }
    return a.index < b.index;
  };
  std::vector<Pick> picks;

  Timer timer;
  constexpr uint64_t kChunk = 1024;
  for (uint64_t begin = 0; begin < total; begin += kChunk) {
    const uint64_t end = std::min(total, begin + kChunk);
    std::vector<DenseValuation> chunk;
    Status expand = program->ExpandChunk(begin, end, &chunk);
    if (!expand.ok()) return Fail(expand);
    const size_t n = chunk.size();
    StatusOr<BackendRoute> route =
        EvaluationBackendRegistry::Default().Route(backend, *compiled, n);
    if (!route.ok()) return Fail(route.status());
    std::vector<const DenseValuation*> ptrs(n);
    std::vector<std::vector<double>> outs(n,
                                          std::vector<double>(poly_count));
    std::vector<double*> out_ptrs(n);
    for (size_t i = 0; i < n; ++i) {
      ptrs[i] = &chunk[i];
      out_ptrs[i] = outs[i].data();
    }
    Status eval = route->EvaluateBatch(*compiled, 0, poly_count, ptrs.data(),
                                       out_ptrs.data(), n);
    if (!eval.ok()) return Fail(eval);
    for (size_t i = 0; i < n; ++i) {
      if (!shaped) {
        std::printf("scenario %llu: ",
                    static_cast<unsigned long long>(begin + i));
        PrintValueRow(outs[i].data(), poly_count);
        continue;
      }
      double objective = 0.0;
      for (double v : outs[i]) objective += v;
      picks.push_back(Pick{begin + i, objective, std::move(outs[i])});
    }
    if (shaped && picks.size() > keep) {
      std::sort(picks.begin(), picks.end(), better);
      picks.resize(static_cast<size_t>(keep));
    }
  }
  double elapsed = timer.ElapsedSeconds();
  if (shaped) {
    std::sort(picks.begin(), picks.end(), better);
    for (const Pick& pick : picks) {
      std::printf("scenario %llu: objective %.6f\n",
                  static_cast<unsigned long long>(pick.index),
                  pick.objective);
      // The parameter assignments that produced this scenario — the
      // answer an analyst actually wants from argmin/argmax.
      std::vector<double> params = program->ParamValues(pick.index);
      for (size_t p = 0; p < params.size(); ++p) {
        std::printf("  %s = %.6f\n", program->param_names()[p].c_str(),
                    params[p]);
      }
      std::printf("  values: ");
      PrintValueRow(pick.values.data(), pick.values.size());
    }
  }
  std::printf("(%llu scenarios x %zu polynomials in %.4fs%s%s)\n",
              static_cast<unsigned long long>(total), poly_count, elapsed,
              backend.empty() ? "" : ", backend: ", backend.c_str());
  return 0;
}

// ---------------------------------------------------- remote subcommands --

/// Parses the required --port flag strictly: missing, non-numeric, or
/// out-of-range values are usage errors (-1 after a message), consistent
/// with the "nothing is silently ignored" flag-parsing contract.
long ParsePortArg(const Args& args, const char* cmd) {
  const char* port = args.Get("port");
  if (port == nullptr) {
    std::fprintf(stderr, "%s requires --port\n", cmd);
    return -1;
  }
  uint64_t value = 0;
  if (!ParseUint64(port, &value) || value < 1 || value > 65535) {
    std::fprintf(stderr, "%s: bad --port '%s' (want 1-65535)\n", cmd, port);
    return -1;
  }
  return static_cast<long>(value);
}

/// Connects using --host (default 127.0.0.1) and a validated port.
/// --timeout-ms, when given, bounds both the connect and every RPC on the
/// connection; expiry surfaces as a DeadlineExceeded error, not a hang.
StatusOr<Client> ConnectFromArgs(const Args& args, long port) {
  ClientOptions options;
  const char* timeout = args.Get("timeout-ms");
  if (timeout != nullptr) {
    uint64_t ms = 0;
    if (!ParseUint64(timeout, &ms) || ms < 1 ||
        ms > uint64_t{1} << 40) {
      return Status::InvalidArgument(std::string("bad --timeout-ms '") +
                                     timeout +
                                     "' (want a positive millisecond count)");
    }
    options.connect_timeout_ms = static_cast<int64_t>(ms);
    options.rpc_timeout_ms = static_cast<int64_t>(ms);
  }
  return Client::Connect(args.Get("host", "127.0.0.1"),
                         static_cast<uint16_t>(port), options);
}

/// Prints a server-side error, if any; returns 0 when the response is OK.
int CheckResponse(const Response& resp) {
  if (resp.ok()) return 0;
  std::fprintf(stderr, "server error: %s\n", resp.ToStatus().ToString().c_str());
  return 1;
}

void PrintServerStats(const ServerStats& stats) {
  std::printf("server: %llu artifacts, %llu cached results, %llu bytes "
              "cached (budget %llu)\n",
              static_cast<unsigned long long>(stats.artifact_count),
              static_cast<unsigned long long>(stats.result_count),
              static_cast<unsigned long long>(stats.cached_bytes),
              static_cast<unsigned long long>(stats.byte_budget));
  std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(stats.result_hits),
              static_cast<unsigned long long>(stats.result_misses),
              static_cast<unsigned long long>(stats.evictions));
  std::printf("single-flight: %llu dedup hits, %llu waiters in flight\n",
              static_cast<unsigned long long>(stats.dedup_hits),
              static_cast<unsigned long long>(stats.inflight_waiters));
  std::printf("batching: %llu batches (%llu lane groups, %llu backend "
              "calls) for %llu evaluate requests\n",
              static_cast<unsigned long long>(stats.eval_batches),
              static_cast<unsigned long long>(stats.eval_groups),
              static_cast<unsigned long long>(stats.eval_backend_calls),
              static_cast<unsigned long long>(stats.eval_requests));
  std::printf("programs: %llu cached, %llu hits, %llu misses\n",
              static_cast<unsigned long long>(stats.program_count),
              static_cast<unsigned long long>(stats.program_hits),
              static_cast<unsigned long long>(stats.program_misses));
  std::printf("connections: %llu active, %llu rejected, %llu idle-reaped "
              "(%llu loop wakeups)\n",
              static_cast<unsigned long long>(stats.active_connections),
              static_cast<unsigned long long>(stats.rejected_connections),
              static_cast<unsigned long long>(stats.idle_reaped),
              static_cast<unsigned long long>(stats.loop_wakeups));
  std::printf("incremental: %llu compressions delta-patched, %llu fell "
              "back to the full algorithm\n",
              static_cast<unsigned long long>(stats.delta_patched),
              static_cast<unsigned long long>(stats.delta_fallback_full));
}

int CmdRemoteLoad(const Args& args) {
  const char* name = args.Get("name");
  const char* in = args.Get("in");
  const char* forest = args.Get("forest");
  if (name == nullptr || (in == nullptr && forest == nullptr)) {
    std::fprintf(stderr,
                 "remote-load requires --name and --in and/or --forest\n");
    return 2;
  }
  if (forest == nullptr && args.Get("forest-name") != nullptr) {
    // Without --forest the name would be silently dropped; refuse.
    std::fprintf(stderr, "remote-load: --forest-name requires --forest\n");
    return 2;
  }
  // Validate the port before touching the (possibly large) artifact files,
  // so usage errors surface as usage errors.
  long port = ParsePortArg(args, "remote-load");
  if (port < 0) return 2;
  LoadRequest req;
  req.artifact = name;
  if (in != nullptr) {
    auto data = ReadFileToString(in);
    if (!data.ok()) return Fail(data.status());
    req.polys_bytes = std::move(*data);
  }
  if (forest != nullptr) {
    auto data = ReadFileToString(forest);
    if (!data.ok()) return Fail(data.status());
    req.forests.emplace_back(args.Get("forest-name", "default"),
                             std::move(*data));
  }
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  auto resp = client->Load(req);
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  std::printf("loaded '%s' (generation %llu): %llu polynomials, %llu "
              "monomials, %llu variables\n",
              name, static_cast<unsigned long long>(resp->generation),
              static_cast<unsigned long long>(resp->poly_count),
              static_cast<unsigned long long>(resp->monomial_count),
              static_cast<unsigned long long>(resp->variable_count));
  return 0;
}

int CmdRemoteAppend(const Args& args) {
  const char* name = args.Get("name");
  const char* in = args.Get("in");
  if (name == nullptr || in == nullptr) {
    std::fprintf(stderr, "remote-append requires --name and --in\n");
    return 2;
  }
  long port = ParsePortArg(args, "remote-append");
  if (port < 0) return 2;
  AppendRequest req;
  req.artifact = name;
  auto data = ReadFileToString(in);
  if (!data.ok()) return Fail(data.status());
  req.polys_bytes = std::move(*data);
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  auto resp = client->Append(req);
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  std::printf("appended to '%s' (generation %llu): now %llu polynomials, "
              "%llu monomials, %llu variables\n",
              name, static_cast<unsigned long long>(resp->generation),
              static_cast<unsigned long long>(resp->poly_count),
              static_cast<unsigned long long>(resp->monomial_count),
              static_cast<unsigned long long>(resp->variable_count));
  return 0;
}

int CmdRemoteInfo(const Args& args) {
  long port = ParsePortArg(args, "remote-info");
  if (port < 0) return 2;
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  InfoRequest req;
  req.artifact = args.Get("name", "");
  auto resp = client->Info(req);
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  if (!req.artifact.empty()) {
    std::printf("artifact '%s' (generation %llu):\n", req.artifact.c_str(),
                static_cast<unsigned long long>(resp->generation));
    std::printf("  polynomials : %llu\n",
                static_cast<unsigned long long>(resp->poly_count));
    std::printf("  monomials   : %llu (|P|_M)\n",
                static_cast<unsigned long long>(resp->monomial_count));
    std::printf("  variables   : %llu (|P|_V)\n",
                static_cast<unsigned long long>(resp->variable_count));
  }
  PrintServerStats(resp->stats);
  // The server's algorithm registry, so analysts discover what --algo
  // accepts without consulting the server's build.
  auto algos = client->ListAlgos(ListAlgosRequest{});
  if (!algos.ok()) return Fail(algos.status());
  if (int rc = CheckResponse(*algos)) return rc;
  std::printf("algorithms:\n");
  for (const AlgoCapability& a : algos->algos) {
    PrintAlgoLine(stdout, a.name, a.summary, a.deterministic,
                  a.supports_tradeoff, a.exact, a.produces_cut,
                  a.supports_time_budget);
  }
  // Likewise the evaluation-backend registry, for --eval-backend.
  auto backends = client->ListBackends(ListBackendsRequest{});
  if (!backends.ok()) return Fail(backends.status());
  if (int rc = CheckResponse(*backends)) return rc;
  std::printf("evaluation backends:\n");
  for (const EvalBackendCapability& b : backends->backends) {
    PrintBackendLine(stdout, b.name, b.summary, b.vectorized,
                     b.deterministic, b.preferred_batch);
  }
  return 0;
}

int CmdRemoteCompress(const Args& args) {
  const char* name = args.Get("name");
  const char* bound = args.Get("bound");
  if (name == nullptr || bound == nullptr) {
    std::fprintf(stderr, "remote-compress requires --name and --bound\n");
    return 2;
  }
  CompressRequest req;
  req.artifact = name;
  req.forest = args.Get("forest-name", "default");
  req.algo = args.Get("algo", "opt");
  if (!ValidateAlgo(req.algo, "remote-compress")) return 2;
  if (!ParseUint64(bound, &req.bound)) {
    std::fprintf(
        stderr,
        "remote-compress: bad --bound '%s' (want a non-negative integer)\n",
        bound);
    return 2;
  }
  long port = ParsePortArg(args, "remote-compress");
  if (port < 0) return 2;
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  Timer timer;
  auto resp = client->Compress(req);
  double elapsed = timer.ElapsedSeconds();
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  std::printf("%s: ML=%llu VL=%llu%s in %.3fs\n", req.algo.c_str(),
              static_cast<unsigned long long>(resp->monomial_loss),
              static_cast<unsigned long long>(resp->variable_loss),
              resp->adequate ? "" : " (bound not reached)", elapsed);
  std::printf("VVS: %s\n", resp->vvs.c_str());
  std::printf("compressed size: %llu monomials\n",
              static_cast<unsigned long long>(resp->compressed_monomials));
  std::printf("cache: %s (%llu hits, %llu misses)\n",
              resp->cache_hit ? "hit" : "miss",
              static_cast<unsigned long long>(resp->stats.result_hits),
              static_cast<unsigned long long>(resp->stats.result_misses));
  // Four disjoint outcomes: answered from cache, waited on an identical
  // request's in-flight run (dedup), patched a cached predecessor
  // generation's DP state, or ran the full DP on the server thread.
  std::printf("single-flight: %s (%llu dedup hits total)\n",
              resp->cache_hit     ? "cache hit, no DP involved"
              : resp->dedup_hit   ? "waited on an in-flight DP"
              : resp->delta_patched
                  ? "patched a predecessor generation (full DP skipped)"
                  : "ran the DP",
              static_cast<unsigned long long>(resp->stats.dedup_hits));
  return 0;
}

int CmdRemoteEvaluate(const Args& args) {
  const char* name = args.Get("name");
  if (name == nullptr) {
    std::fprintf(stderr, "remote-evaluate requires --name\n");
    return 2;
  }
  EvaluateRequest req;
  req.artifact = name;
  req.eval_backend = args.Get("eval-backend", "");
  if (!ValidateEvalBackend(req.eval_backend, "remote-evaluate")) return 2;
  for (const std::string& assignment : args.sets) {
    size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --set '%s' (want var=value)\n",
                   assignment.c_str());
      return 2;
    }
    double value = 0;
    if (!ParseDouble(assignment.substr(eq + 1).c_str(), &value)) {
      std::fprintf(stderr, "bad --set '%s' (value is not a number)\n",
                   assignment.c_str());
      return 2;
    }
    req.assignments.emplace_back(assignment.substr(0, eq), value);
  }
  if (const char* bound = args.Get("bound")) {
    req.compressed = true;
    if (!ParseUint64(bound, &req.bound)) {
      std::fprintf(
          stderr,
          "remote-evaluate: bad --bound '%s' (want a non-negative integer)\n",
          bound);
      return 2;
    }
    req.forest = args.Get("forest-name", "default");
    req.algo = args.Get("algo", "opt");
    if (!ValidateAlgo(req.algo, "remote-evaluate")) return 2;
  } else if (args.Get("algo") != nullptr ||
             args.Get("forest-name") != nullptr) {
    // Without --bound these flags would be silently dropped; refuse.
    std::fprintf(stderr,
                 "remote-evaluate: --algo/--forest-name require --bound\n");
    return 2;
  }
  long port = ParsePortArg(args, "remote-evaluate");
  if (port < 0) return 2;
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  Timer timer;
  auto resp = client->Evaluate(req);
  double elapsed = timer.ElapsedSeconds();
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  for (size_t i = 0; i < resp->values.size(); ++i) {
    std::printf("polynomial %zu: %.6f\n", i, resp->values[i]);
  }
  std::printf("(%zu polynomials in %.4fs%s, backend: %s)\n",
              resp->values.size(), elapsed,
              !req.compressed      ? ""
              : resp->cache_hit    ? ", compressed, cache: hit"
              : resp->dedup_hit    ? ", compressed, cache: dedup"
                                   : ", compressed, cache: miss",
              resp->eval_backend.c_str());
  return 0;
}

int CmdRemoteScenario(const Args& args) {
  const char* name = args.Get("name");
  if (name == nullptr) {
    std::fprintf(stderr, "remote-scenario requires --name\n");
    return 2;
  }
  EvaluateScenarioProgramRequest req;
  req.artifact = name;
  req.eval_backend = args.Get("eval-backend", "");
  if (!ValidateEvalBackend(req.eval_backend, "remote-scenario")) return 2;
  if (!ParseShapeArgs(args, "remote-scenario", &req.shape, &req.top_k)) {
    return 2;
  }
  if (int rc = ReadProgramSource(args, "remote-scenario", &req.program)) {
    return rc;
  }
  // Syntax is checked locally for the caret-diagnostic contract (exit 2
  // like the offline `scenario` command); semantic analysis needs the
  // artifact's variables, which live server-side.
  size_t error_offset = 0;
  auto ast = scenario::Parse(req.program, &error_offset);
  if (!ast.ok()) {
    PrintScenarioError("remote-scenario", ast.status(), req.program,
                       error_offset);
    return 2;
  }
  if (const char* bound = args.Get("bound")) {
    req.compressed = true;
    if (!ParseUint64(bound, &req.bound)) {
      std::fprintf(
          stderr,
          "remote-scenario: bad --bound '%s' (want a non-negative integer)\n",
          bound);
      return 2;
    }
    req.forest = args.Get("forest-name", "default");
    req.algo = args.Get("algo", "opt");
    if (!ValidateAlgo(req.algo, "remote-scenario")) return 2;
  } else if (args.Get("algo") != nullptr ||
             args.Get("forest-name") != nullptr) {
    std::fprintf(stderr,
                 "remote-scenario: --algo/--forest-name require --bound\n");
    return 2;
  }
  long port = ParsePortArg(args, "remote-scenario");
  if (port < 0) return 2;
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  Timer timer;
  auto resp = client->EvaluateScenarioProgram(req);
  double elapsed = timer.ElapsedSeconds();
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  if (req.shape == ScenarioShape::kValues) {
    const size_t poly_count =
        resp->scenario_count == 0
            ? 0
            : resp->values.size() / static_cast<size_t>(resp->scenario_count);
    for (uint64_t s = 0; s < resp->scenario_count; ++s) {
      std::printf("scenario %llu: ", static_cast<unsigned long long>(s));
      PrintValueRow(resp->values.data() + s * poly_count, poly_count);
    }
  } else {
    const size_t poly_count =
        resp->scenario_indices.empty()
            ? 0
            : resp->values.size() / resp->scenario_indices.size();
    for (size_t i = 0; i < resp->scenario_indices.size(); ++i) {
      std::printf("scenario %llu: objective %.6f\n",
                  static_cast<unsigned long long>(resp->scenario_indices[i]),
                  resp->objectives[i]);
      std::printf("  values: ");
      PrintValueRow(resp->values.data() + i * poly_count, poly_count);
    }
  }
  std::printf("(%llu scenarios in %.4fs, program cache: %s%s, backend: %s)\n",
              static_cast<unsigned long long>(resp->scenario_count), elapsed,
              resp->program_cache_hit ? "hit" : "miss",
              !req.compressed      ? ""
              : resp->cache_hit    ? ", compressed, cache: hit"
              : resp->dedup_hit    ? ", compressed, cache: dedup"
                                   : ", compressed, cache: miss",
              resp->eval_backend.c_str());
  return 0;
}

int CmdRemoteTradeoff(const Args& args) {
  const char* name = args.Get("name");
  if (name == nullptr) {
    std::fprintf(stderr, "remote-tradeoff requires --name\n");
    return 2;
  }
  TradeoffRequest req;
  req.artifact = name;
  req.forest = args.Get("forest-name", "default");
  long port = ParsePortArg(args, "remote-tradeoff");
  if (port < 0) return 2;
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  auto resp = client->Tradeoff(req);
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  std::printf("%12s %14s\n", "size |P'|_M", "variable loss");
  for (const TradeoffPoint& p : resp->points) {
    std::printf("%12zu %14zu\n", p.size_m, p.variable_loss);
  }
  return 0;
}

int CmdRemoteShutdown(const Args& args) {
  long port = ParsePortArg(args, "remote-shutdown");
  if (port < 0) return 2;
  auto client = ConnectFromArgs(args, port);
  if (!client.ok()) return Fail(client.status());
  auto resp = client->Shutdown(ShutdownRequest{});
  if (!resp.ok()) return Fail(resp.status());
  if (int rc = CheckResponse(*resp)) return rc;
  std::printf("server shutting down\n");
  return 0;
}

// ------------------------------------------------------------ dispatch ---

struct Command {
  const char* name;
  int (*fn)(const Args&);
  std::initializer_list<const char*> flags;
};

const Command kCommands[] = {
    {"generate", CmdGenerate, {"workload", "scale", "fanouts", "out",
                               "forest-out"}},
    {"info", CmdInfo, {"in"}},
    {"compress", CmdCompress, {"in", "forest", "bound", "algo", "budget-ms",
                               "vvs-out", "out"}},
    {"append", CmdAppend, {"in", "add", "out", "forest", "bound"}},
    {"tradeoff", CmdTradeoff, {"in", "forest"}},
    {"evaluate", CmdEvaluate, {"in", "set", "eval-backend"}},
    {"scenario", CmdScenario, {"in", "expr", "expr-file", "shape", "top-k",
                               "eval-backend"}},
    {"remote-load", CmdRemoteLoad, {"host", "port", "name", "in", "forest",
                                    "forest-name", "timeout-ms"}},
    {"remote-append", CmdRemoteAppend, {"host", "port", "name", "in",
                                        "timeout-ms"}},
    {"remote-info", CmdRemoteInfo, {"host", "port", "name", "timeout-ms"}},
    {"remote-compress", CmdRemoteCompress, {"host", "port", "name", "bound",
                                            "algo", "forest-name",
                                            "timeout-ms"}},
    {"remote-evaluate", CmdRemoteEvaluate, {"host", "port", "name", "set",
                                            "bound", "algo", "forest-name",
                                            "eval-backend", "timeout-ms"}},
    {"remote-scenario", CmdRemoteScenario, {"host", "port", "name", "expr",
                                            "expr-file", "shape", "top-k",
                                            "bound", "algo", "forest-name",
                                            "eval-backend", "timeout-ms"}},
    {"remote-tradeoff", CmdRemoteTradeoff, {"host", "port", "name",
                                            "forest-name", "timeout-ms"}},
    {"remote-shutdown", CmdRemoteShutdown, {"host", "port", "timeout-ms"}},
};

int Run(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintUsage(stdout);
    return 0;
  }
  for (const Command& command : kCommands) {
    if (cmd != command.name) continue;
    Args args;
    if (!ParseArgs(argc, argv, 2, command.name, command.flags, &args)) {
      return 2;
    }
    if (args.help) {
      PrintUsage(stdout);
      return 0;
    }
    return command.fn(args);
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
  PrintUsage(stderr);
  return 2;
}

}  // namespace
}  // namespace provabs

int main(int argc, char** argv) { return provabs::Run(argc, argv); }
