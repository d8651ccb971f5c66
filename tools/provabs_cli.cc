/// provabs_cli — command-line front end for the provenance-abstraction
/// pipeline, mirroring the paper's deployment story: a producer generates
/// provenance once (`generate`), compresses it under a bound (`compress`),
/// and ships compact binary artifacts to analysts, who inspect (`info`,
/// `tradeoff`) and run what-if scenarios (`evaluate`, `scenario`).
///
/// Every verb that has a server counterpart runs one pipeline: it builds
/// the wire request from its flags, sends it through a Channel and prints
/// the decoded response. The `remote-*` forms send it to a long-lived
/// `provabs_server` (see docs/SERVER.md); the offline forms send it to a
/// ProvenanceService inside this process, loaded from the --in/--forest
/// files, so both forms compute and print the same answers.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/compressor.h"
#include "common/timer.h"
#include "core/evaluation_backend.h"
#include "io/serializer.h"
#include "scenario/parser.h"
#include "scenario/program.h"
#include "server/client.h"
#include "server/provenance_service.h"
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
    "      [--algo NAME] [--vvs-out V.bin] [--out C.bin]\n"
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
  // Only the absence is worth a caller's attention: an anytime budget
  // (CompressOptions::time_budget_ms) would be silently ignored.
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
  const char* cmd = "";
  std::map<std::string, std::string> flags;
  std::vector<std::string> sets;
  bool help = false;

  const char* Get(const std::string& name,
                  const char* fallback = nullptr) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second.c_str();
  }

  /// The `remote-*` form of a verb, answered by a provabs_server.
  bool remote() const { return std::strncmp(cmd, "remote-", 7) == 0; }
};

bool ParseArgs(int argc, char** argv, int start, const char* cmd,
               std::initializer_list<const char*> allowed, Args* out) {
  out->cmd = cmd;
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
int ReadProgramSource(const Args& args, std::string* out) {
  const char* expr = args.Get("expr");
  const char* expr_file = args.Get("expr-file");
  if ((expr == nullptr) == (expr_file == nullptr)) {
    std::fprintf(stderr, "%s requires exactly one of --expr / --expr-file\n",
                 args.cmd);
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
bool ParseShapeArgs(const Args& args, ScenarioShape* shape,
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
                 args.cmd, name);
    return false;
  }
  const char* k = args.Get("top-k");
  if (*shape != ScenarioShape::kTopK) {
    if (k != nullptr) {
      std::fprintf(stderr, "%s: --top-k requires --shape topk\n", args.cmd);
      return false;
    }
    *top_k = 0;
    return true;
  }
  if (k == nullptr || !ParseUint64(k, top_k) || *top_k == 0) {
    std::fprintf(stderr,
                 "%s: --shape topk needs --top-k K (a positive integer)\n",
                 args.cmd);
    return false;
  }
  return true;
}

/// Prints a parse failure with the caret diagnostic the offset points at,
/// matching compiler convention; callers exit 2 (usage error: the program
/// text is an argument, and it is malformed).
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

// ---------------------------------------------------- files, no service --

int CmdGenerate(const Args& args) {
  const char* workload = args.Get("workload");
  const char* out = args.Get("out");
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

// ------------------------------------------------------------- channels --

/// The artifact a verb's requests address: --name on a server, and the
/// --in path for the artifact an offline verb loads into its own service.
std::string ArtifactName(const Args& args) {
  return args.Get(args.remote() ? "name" : "in");
}

/// The request remote-load sends, and the one that loads an offline verb's
/// in-process service: --in's polynomials and --forest's forest (named
/// --forest-name, default "default"), each when given.
Status BuildLoadRequest(const Args& args, LoadRequest* req) {
  req->artifact = ArtifactName(args);
  if (const char* in = args.Get("in")) {
    PROVABS_ASSIGN_OR_RETURN(req->polys_bytes, ReadFileToString(in));
  }
  if (const char* forest = args.Get("forest")) {
    PROVABS_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(forest));
    req->forests.emplace_back(args.Get("forest-name", "default"),
                              std::move(bytes));
  }
  return Status::OK();
}

/// Where a verb's requests are answered: a provabs_server through a
/// Client, or a ProvenanceService owned by this process. Either way a
/// request travels encoded and its reply is read through DecodeReply, so
/// offline verbs go through the same codec and service code a server runs.
class Channel {
 public:
  /// Remote: validates --port (usage error) and connects. Local: loads
  /// the --in/--forest files into a fresh service. Returns 0, or the exit
  /// code after reporting the failure.
  int Open(const Args& args) {
    if (!args.remote()) {
      LoadRequest load;
      Status read = BuildLoadRequest(args, &load);
      if (!read.ok()) return Fail(read);
      service_ =
          std::make_unique<ProvenanceService>(ServiceOptions::OneShot());
      StatusOr<Response> loaded = Send(EncodeLoadRequest(load));
      if (!loaded.ok()) return Fail(loaded.status());
      return loaded->ok() ? 0 : Fail(loaded->ToStatus());
    }
    uint64_t port = 0;
    if (!ParseUint64(args.Get("port"), &port) || port < 1 || port > 65535) {
      std::fprintf(stderr, "%s: bad --port '%s' (want 1-65535)\n", args.cmd,
                   args.Get("port"));
      return 2;
    }
    // --timeout-ms bounds both the connect and every RPC on the
    // connection; expiry surfaces as DeadlineExceeded, not a hang.
    ClientOptions options;
    if (const char* timeout = args.Get("timeout-ms")) {
      uint64_t ms = 0;
      if (!ParseUint64(timeout, &ms) || ms < 1 || ms > uint64_t{1} << 40) {
        return Fail(Status::InvalidArgument(
            std::string("bad --timeout-ms '") + timeout +
            "' (want a positive millisecond count)"));
      }
      options.connect_timeout_ms = static_cast<int64_t>(ms);
      options.rpc_timeout_ms = static_cast<int64_t>(ms);
    }
    StatusOr<Client> client = Client::Connect(
        args.Get("host", "127.0.0.1"), static_cast<uint16_t>(port), options);
    if (!client.ok()) return Fail(client.status());
    client_.emplace(std::move(*client));
    return 0;
  }

  /// Sends one encoded request. Returns 0 with `*resp` filled, or the exit
  /// code after reporting the failure: 1 for a transport failure or a
  /// server's error reply. In-process, an error reply judges this
  /// invocation's own arguments against the files it loaded, so an
  /// argument the service rejects (kInvalidArgument, kNotFound: an unknown
  /// variable, an ill-typed program) is a usage error, 2, and anything
  /// else (an infeasible bound) a runtime error, 1.
  int Call(const std::string& payload, Response* resp) {
    Timer timer;
    StatusOr<Response> reply = Send(payload);
    seconds_ = timer.ElapsedSeconds();
    if (!reply.ok()) return Fail(reply.status());
    *resp = std::move(*reply);
    if (resp->ok()) return 0;
    if (client_) {
      std::fprintf(stderr, "server error: %s\n",
                   resp->ToStatus().ToString().c_str());
      return 1;
    }
    Fail(resp->ToStatus());
    return resp->code == StatusCode::kInvalidArgument ||
                   resp->code == StatusCode::kNotFound
               ? 2
               : 1;
  }

  /// Wall time of the last Call, for the verbs' timing lines.
  double seconds() const { return seconds_; }

  /// The in-process service, whose store holds what it computed, for the
  /// file outputs only an offline verb writes; nullptr when remote.
  ProvenanceService* service() { return service_.get(); }

 private:
  StatusOr<Response> Send(const std::string& payload) {
    if (client_) return client_->Call(payload);
    return DecodeReply(payload, service_->HandleFrame(payload, nullptr));
  }

  std::optional<Client> client_;
  std::unique_ptr<ProvenanceService> service_;
  double seconds_ = 0;
};

/// Opens the verb's channel and sends it one request; see Channel::Call.
int OpenAndCall(const Args& args, Channel* channel, const std::string& payload,
                Response* resp) {
  if (int rc = channel->Open(args)) return rc;
  return channel->Call(payload, resp);
}

// ----------------------------------- verbs shared by both channels --

bool ParseBound(const Args& args, uint64_t* bound) {
  if (ParseUint64(args.Get("bound"), bound)) return true;
  std::fprintf(stderr, "%s: bad --bound '%s' (want a non-negative integer)\n",
               args.cmd, args.Get("bound"));
  return false;
}

/// The compression a request names: --bound, --algo (default opt) and
/// --forest-name (default "default"). False after a usage error.
template <class Req>
bool ParseCompression(const Args& args, Req* req) {
  req->forest = args.Get("forest-name", "default");
  req->algo = args.Get("algo", "opt");
  return ValidateAlgo(req->algo, args.cmd) && ParseBound(args, &req->bound);
}

/// With --bound, a what-if runs over the compressed view instead of the
/// artifact. False after a usage error.
template <class Req>
bool ParseCompressedTarget(const Args& args, Req* req) {
  if (args.Get("bound") != nullptr) {
    req->compressed = true;
    return ParseCompression(args, req);
  }
  if (args.Get("algo") != nullptr || args.Get("forest-name") != nullptr) {
    // Without --bound these flags would be silently dropped; refuse.
    std::fprintf(stderr, "%s: --algo/--forest-name require --bound\n",
                 args.cmd);
    return false;
  }
  return true;
}

/// ", compressed, cache: hit|dedup|miss" for a what-if over the
/// compressed view; "" over the artifact itself.
const char* CompressedTag(bool compressed, const Response& resp) {
  return !compressed      ? ""
         : resp.cache_hit ? ", compressed, cache: hit"
         : resp.dedup_hit ? ", compressed, cache: dedup"
                          : ", compressed, cache: miss";
}

// compress / remote-compress

int BuildCompressRequest(const Args& args, CompressRequest* req) {
  req->artifact = ArtifactName(args);
  if (!ParseCompression(args, req)) return 2;
  if (args.Get("vvs-out") != nullptr &&
      !CompressorRegistry::Default().Find(req->algo)->info().produces_cut) {
    std::fprintf(stderr,
                 "%s: --vvs-out requires a cut-based algorithm "
                 "('%s' produces a variable grouping)\n",
                 args.cmd, req->algo.c_str());
    return 2;
  }
  return 0;
}

void PrintCompressResponse(const CompressRequest& req, const Response& resp,
                           double elapsed) {
  std::printf("%s: ML=%llu VL=%llu%s in %.3fs\n", req.algo.c_str(),
              static_cast<unsigned long long>(resp.monomial_loss),
              static_cast<unsigned long long>(resp.variable_loss),
              resp.adequate ? "" : " (bound not reached)", elapsed);
  std::printf("VVS: %s\n", resp.vvs.c_str());
  std::printf("compressed size: %llu monomials\n",
              static_cast<unsigned long long>(resp.compressed_monomials));
  std::printf("cache: %s (%llu hits, %llu misses)\n",
              resp.cache_hit ? "hit" : "miss",
              static_cast<unsigned long long>(resp.stats.result_hits),
              static_cast<unsigned long long>(resp.stats.result_misses));
  // Four disjoint outcomes: answered from cache, waited on an identical
  // request's in-flight run (dedup), patched a cached predecessor
  // generation's DP state, or ran the full DP on the service's thread.
  std::printf("single-flight: %s (%llu dedup hits total)\n",
              resp.cache_hit     ? "cache hit, no DP involved"
              : resp.dedup_hit   ? "waited on an in-flight DP"
              : resp.delta_patched
                  ? "patched a predecessor generation (full DP skipped)"
                  : "ran the DP",
              static_cast<unsigned long long>(resp.stats.dedup_hits));
}

/// compress's file outputs, which only an offline run writes: they read
/// the result the in-process service computed for `req` from its store.
int WriteCompressFiles(const Args& args, ProvenanceService& service,
                       const CompressRequest& req) {
  const char* vvs_out = args.Get("vvs-out");
  const char* out = args.Get("out");
  if (vvs_out == nullptr && out == nullptr) return 0;
  std::shared_ptr<const Artifact> artifact = service.store().Get(req.artifact);
  std::shared_ptr<const ArtifactStore::CompressedResult> cached =
      artifact == nullptr
          ? nullptr
          : service.store().PeekResult({req.artifact, artifact->generation,
                                        req.forest, req.bound, req.algo});
  if (cached == nullptr) {
    return Fail(Status::Internal("the compressed result left the store"));
  }
  const AbstractionForest& forest = *artifact->FindForest(req.forest);
  if (vvs_out != nullptr) {
    Status w = WriteFile(vvs_out, SerializeVvs(cached->algo_result.vvs,
                                               forest, *artifact->vars));
    if (!w.ok()) return Fail(w);
  }
  if (out != nullptr) {
    // Grouping results synthesize group representatives outside the
    // variable table; intern them into a copy so the compressed set
    // serializes.
    VariableTable vars;
    for (VariableId id = 0; id < artifact->vars->size(); ++id) {
      vars.Intern(artifact->vars->NameOf(id));
    }
    CompressionResult result = cached->algo_result;
    result.InternGrouping(vars);
    PolynomialSet compressed = result.Apply(forest, artifact->polys);
    Status w = WriteFile(out, SerializePolynomialSet(compressed, vars));
    if (!w.ok()) return Fail(w);
    std::printf("wrote %s: %zu monomials\n", out, compressed.SizeM());
  }
  return 0;
}

int CmdCompress(const Args& args) {
  CompressRequest req;
  if (int rc = BuildCompressRequest(args, &req)) return rc;
  Channel channel;
  Response resp;
  if (int rc = OpenAndCall(args, &channel, EncodeCompressRequest(req), &resp)) {
    return rc;
  }
  PrintCompressResponse(req, resp, channel.seconds());
  if (channel.service() == nullptr) return 0;
  return WriteCompressFiles(args, *channel.service(), req);
}

// append / remote-append

/// The extra polynomials: remote-append's --in, or append's --add (append's
/// --in is the artifact it grows).
int BuildAppendRequest(const Args& args, AppendRequest* req) {
  req->artifact = ArtifactName(args);
  auto data = ReadFileToString(args.Get(args.remote() ? "in" : "add"));
  if (!data.ok()) return Fail(data.status());
  req->polys_bytes = std::move(*data);
  return 0;
}

void PrintAppendResponse(const AppendRequest& req, const Response& resp) {
  std::printf("appended to '%s' (generation %llu): now %llu polynomials, "
              "%llu monomials, %llu variables\n",
              req.artifact.c_str(),
              static_cast<unsigned long long>(resp.generation),
              static_cast<unsigned long long>(resp.poly_count),
              static_cast<unsigned long long>(resp.monomial_count),
              static_cast<unsigned long long>(resp.variable_count));
}

/// Offline, with --forest and --bound, the artifact is compressed before
/// the append (so the service caches the DP state) and again after it:
/// the second compression patches that state unless a patch gate
/// declines, and its single-flight line says which happened.
int CmdAppend(const Args& args) {
  const bool recompress = args.Get("bound") != nullptr;
  if (recompress != (args.Get("forest") != nullptr)) {
    std::fprintf(stderr, "append: --forest and --bound go together\n");
    return 2;
  }
  CompressRequest compress;
  if (recompress) {
    if (int rc = BuildCompressRequest(args, &compress)) return rc;
  }
  Channel channel;
  if (int rc = channel.Open(args)) return rc;
  // Read the extra polynomials before any DP runs, so a bad path fails
  // fast; the port was validated first, as in remote-load.
  AppendRequest req;
  if (int rc = BuildAppendRequest(args, &req)) return rc;
  Response resp;
  if (recompress) {
    if (int rc = channel.Call(EncodeCompressRequest(compress), &resp)) {
      return rc;
    }
  }
  if (int rc = channel.Call(EncodeAppendRequest(req), &resp)) return rc;
  PrintAppendResponse(req, resp);
  if (recompress) {
    if (int rc = channel.Call(EncodeCompressRequest(compress), &resp)) {
      return rc;
    }
    PrintCompressResponse(compress, resp, channel.seconds());
  }
  if (const char* out = args.Get("out")) {
    std::shared_ptr<const Artifact> merged =
        channel.service()->store().Get(req.artifact);
    if (merged == nullptr) {
      return Fail(Status::Internal("the appended artifact left the store"));
    }
    Status w = WriteFile(out, SerializePolynomialSet(merged->polys,
                                                     *merged->vars));
    if (!w.ok()) return Fail(w);
    std::printf("wrote %s: %zu monomials\n", out, merged->polys.SizeM());
  }
  return 0;
}

// tradeoff / remote-tradeoff

TradeoffRequest BuildTradeoffRequest(const Args& args) {
  return {ArtifactName(args), args.Get("forest-name", "default")};
}

void PrintTradeoffResponse(const Response& resp) {
  std::printf("%12s %14s\n", "size |P'|_M", "variable loss");
  for (const TradeoffPoint& p : resp.points) {
    std::printf("%12zu %14zu\n", p.size_m, p.variable_loss);
  }
}

int CmdTradeoff(const Args& args) {
  Channel channel;
  Response resp;
  if (int rc = OpenAndCall(args, &channel,
                           EncodeTradeoffRequest(BuildTradeoffRequest(args)),
                           &resp)) {
    return rc;
  }
  PrintTradeoffResponse(resp);
  return 0;
}

// evaluate / remote-evaluate

int BuildEvaluateRequest(const Args& args, EvaluateRequest* req) {
  req->artifact = ArtifactName(args);
  req->eval_backend = args.Get("eval-backend", "");
  if (!ValidateEvalBackend(req->eval_backend, args.cmd)) return 2;
  for (const std::string& assignment : args.sets) {
    size_t eq = assignment.find('=');
    double value = 0;
    if (eq == std::string::npos ||
        !ParseDouble(assignment.substr(eq + 1).c_str(), &value)) {
      std::fprintf(stderr, "%s: bad --set '%s' (want var=number)\n",
                   args.cmd, assignment.c_str());
      return 2;
    }
    req->assignments.emplace_back(assignment.substr(0, eq), value);
  }
  return ParseCompressedTarget(args, req) ? 0 : 2;
}

void PrintEvaluateResponse(const EvaluateRequest& req, const Response& resp,
                           double elapsed) {
  for (size_t i = 0; i < resp.values.size(); ++i) {
    std::printf("polynomial %zu: %.6f\n", i, resp.values[i]);
  }
  std::printf("(%zu polynomials in %.4fs%s, backend: %s)\n",
              resp.values.size(), elapsed,
              CompressedTag(req.compressed, resp), resp.eval_backend.c_str());
}

int CmdEvaluate(const Args& args) {
  EvaluateRequest req;
  if (int rc = BuildEvaluateRequest(args, &req)) return rc;
  Channel channel;
  Response resp;
  if (int rc = OpenAndCall(args, &channel, EncodeEvaluateRequest(req), &resp)) {
    return rc;
  }
  PrintEvaluateResponse(req, resp, channel.seconds());
  return 0;
}

// scenario / remote-scenario

/// Also fills `params`, the program's scenario space: the program is
/// parsed here, so a syntax or domain error gets its caret diagnostic and
/// exit 2 without a round trip, and a shaped reply's winners can be
/// printed with the parameter assignments that produced them.
int BuildScenarioRequest(const Args& args,
                         EvaluateScenarioProgramRequest* req,
                         scenario::ParamSpace* params) {
  req->artifact = ArtifactName(args);
  req->eval_backend = args.Get("eval-backend", "");
  if (!ValidateEvalBackend(req->eval_backend, args.cmd)) return 2;
  if (!ParseShapeArgs(args, &req->shape, &req->top_k)) return 2;
  if (int rc = ReadProgramSource(args, &req->program)) return rc;
  size_t error_offset = 0;
  StatusOr<scenario::ProgramAst> ast =
      scenario::Parse(req->program, &error_offset);
  StatusOr<scenario::ParamSpace> space =
      ast.ok() ? scenario::ParamSpace::Build(*ast, &error_offset)
               : StatusOr<scenario::ParamSpace>(ast.status());
  if (!space.ok()) {
    PrintScenarioError(args.cmd, space.status(), req->program, error_offset);
    return 2;
  }
  *params = std::move(*space);
  return ParseCompressedTarget(args, req) ? 0 : 2;
}

void PrintScenarioResponse(const EvaluateScenarioProgramRequest& req,
                           const scenario::ParamSpace& params,
                           const Response& resp, double elapsed) {
  const bool shaped = req.shape != ScenarioShape::kValues;
  const size_t rows =
      shaped ? resp.scenario_indices.size()
             : static_cast<size_t>(resp.scenario_count);
  const size_t poly_count = rows == 0 ? 0 : resp.values.size() / rows;
  std::vector<double> assignment(params.names().size());
  for (size_t i = 0; i < rows; ++i) {
    const double* values = resp.values.data() + i * poly_count;
    if (!shaped) {
      std::printf("scenario %zu: ", i);
      PrintValueRow(values, poly_count);
      continue;
    }
    std::printf("scenario %llu: objective %.6f\n",
                static_cast<unsigned long long>(resp.scenario_indices[i]),
                resp.objectives[i]);
    // The parameter assignment that produced this scenario — the answer
    // an analyst actually wants from argmin/argmax.
    params.Decode(resp.scenario_indices[i], assignment.data());
    for (size_t p = 0; p < assignment.size(); ++p) {
      std::printf("  %s = %.6f\n", params.names()[p].c_str(), assignment[p]);
    }
    std::printf("  values: ");
    PrintValueRow(values, poly_count);
  }
  std::printf("(%llu scenarios in %.4fs, program cache: %s%s, backend: %s)\n",
              static_cast<unsigned long long>(resp.scenario_count), elapsed,
              resp.program_cache_hit ? "hit" : "miss",
              CompressedTag(req.compressed, resp), resp.eval_backend.c_str());
}

int CmdScenario(const Args& args) {
  EvaluateScenarioProgramRequest req;
  scenario::ParamSpace params;
  if (int rc = BuildScenarioRequest(args, &req, &params)) return rc;
  Channel channel;
  Response resp;
  if (int rc = OpenAndCall(args, &channel,
                           EncodeEvaluateScenarioProgramRequest(req), &resp)) {
    return rc;
  }
  PrintScenarioResponse(req, params, resp, channel.seconds());
  return 0;
}

// ------------------------------------------------------ remote-only verbs --

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
  if (args.Get("in") == nullptr && args.Get("forest") == nullptr) {
    std::fprintf(stderr, "remote-load requires --in and/or --forest\n");
    return 2;
  }
  if (args.Get("forest") == nullptr && args.Get("forest-name") != nullptr) {
    // Without --forest the name would be silently dropped; refuse.
    std::fprintf(stderr, "remote-load: --forest-name requires --forest\n");
    return 2;
  }
  // The port is validated before the (possibly large) files are read, so
  // usage errors surface as usage errors.
  Channel channel;
  if (int rc = channel.Open(args)) return rc;
  LoadRequest req;
  Status read = BuildLoadRequest(args, &req);
  if (!read.ok()) return Fail(read);
  Response resp;
  if (int rc = channel.Call(EncodeLoadRequest(req), &resp)) return rc;
  std::printf("loaded '%s' (generation %llu): %llu polynomials, %llu "
              "monomials, %llu variables\n",
              req.artifact.c_str(),
              static_cast<unsigned long long>(resp.generation),
              static_cast<unsigned long long>(resp.poly_count),
              static_cast<unsigned long long>(resp.monomial_count),
              static_cast<unsigned long long>(resp.variable_count));
  return 0;
}

int CmdRemoteInfo(const Args& args) {
  InfoRequest req;
  req.artifact = args.Get("name", "");
  Channel channel;
  Response resp;
  if (int rc = OpenAndCall(args, &channel, EncodeInfoRequest(req), &resp)) {
    return rc;
  }
  if (!req.artifact.empty()) {
    std::printf("artifact '%s' (generation %llu):\n", req.artifact.c_str(),
                static_cast<unsigned long long>(resp.generation));
    std::printf("  polynomials : %llu\n",
                static_cast<unsigned long long>(resp.poly_count));
    std::printf("  monomials   : %llu (|P|_M)\n",
                static_cast<unsigned long long>(resp.monomial_count));
    std::printf("  variables   : %llu (|P|_V)\n",
                static_cast<unsigned long long>(resp.variable_count));
  }
  PrintServerStats(resp.stats);
  // The server's algorithm registry, so analysts discover what --algo
  // accepts without consulting the server's build.
  if (int rc = channel.Call(EncodeListAlgosRequest({}), &resp)) return rc;
  std::printf("algorithms:\n");
  for (const AlgoCapability& a : resp.algos) {
    PrintAlgoLine(stdout, a.name, a.summary, a.deterministic,
                  a.supports_tradeoff, a.exact, a.produces_cut,
                  a.supports_time_budget);
  }
  // Likewise the evaluation-backend registry, for --eval-backend.
  if (int rc = channel.Call(EncodeListBackendsRequest({}), &resp)) return rc;
  std::printf("evaluation backends:\n");
  for (const EvalBackendCapability& b : resp.backends) {
    PrintBackendLine(stdout, b.name, b.summary, b.vectorized,
                     b.deterministic, b.preferred_batch);
  }
  return 0;
}

int CmdRemoteShutdown(const Args& args) {
  Channel channel;
  Response resp;
  if (int rc = OpenAndCall(args, &channel, EncodeShutdownRequest({}), &resp)) {
    return rc;
  }
  std::printf("server shutting down\n");
  return 0;
}

// ------------------------------------------------------------ dispatch ---

struct Command {
  const char* name;
  int (*fn)(const Args&);
  std::initializer_list<const char*> flags;
  /// Flags the command cannot run without; checked before anything else.
  std::initializer_list<const char*> required;
};

const Command kCommands[] = {
    {"generate", CmdGenerate,
     {"workload", "scale", "fanouts", "out", "forest-out"},
     {"workload", "out"}},
    {"info", CmdInfo, {"in"}, {"in"}},
    {"compress", CmdCompress,
     {"in", "forest", "bound", "algo", "vvs-out", "out"},
     {"in", "forest", "bound"}},
    {"append", CmdAppend, {"in", "add", "out", "forest", "bound"},
     {"in", "add"}},
    {"tradeoff", CmdTradeoff, {"in", "forest"}, {"in", "forest"}},
    {"evaluate", CmdEvaluate, {"in", "set", "eval-backend"}, {"in"}},
    {"scenario", CmdScenario,
     {"in", "expr", "expr-file", "shape", "top-k", "eval-backend"},
     {"in"}},
    {"remote-load", CmdRemoteLoad,
     {"host", "port", "name", "in", "forest", "forest-name", "timeout-ms"},
     {"port", "name"}},
    {"remote-append", CmdAppend,
     {"host", "port", "name", "in", "timeout-ms"},
     {"port", "name", "in"}},
    {"remote-info", CmdRemoteInfo, {"host", "port", "name", "timeout-ms"},
     {"port"}},
    {"remote-compress", CmdCompress,
     {"host", "port", "name", "bound", "algo", "forest-name", "timeout-ms"},
     {"port", "name", "bound"}},
    {"remote-evaluate", CmdEvaluate,
     {"host", "port", "name", "set", "bound", "algo", "forest-name",
      "eval-backend", "timeout-ms"},
     {"port", "name"}},
    {"remote-scenario", CmdScenario,
     {"host", "port", "name", "expr", "expr-file", "shape", "top-k", "bound",
      "algo", "forest-name", "eval-backend", "timeout-ms"},
     {"port", "name"}},
    {"remote-tradeoff", CmdTradeoff,
     {"host", "port", "name", "forest-name", "timeout-ms"},
     {"port", "name"}},
    {"remote-shutdown", CmdRemoteShutdown, {"host", "port", "timeout-ms"},
     {"port"}},
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
    for (const char* flag : command.required) {
      if (args.Get(flag) == nullptr) {
        std::fprintf(stderr, "%s requires --%s\n", command.name, flag);
        return 2;
      }
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
