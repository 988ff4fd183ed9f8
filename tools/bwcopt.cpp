// bwcopt — command-line driver for the bandwidth optimizer.
//
// Runs the pass pipeline over a workload, measures original vs optimized
// on a machine model, and reports: the pass log, before/after traffic +
// predicted time, scaling curves (--cores), the tuning report, and a
// semantics check. `bwcopt --help` documents every flag.
//
// Exit status: 0 on success, 1 when the traffic-bound or semantics check
// fails (a bug), 2 on bad usage or any error.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/parser.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/model/prediction.h"
#include "bwc/pass/passes.h"
#include "bwc/server/client.h"
#include "bwc/server/protocol.h"
#include "bwc/server/record_log.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/support/table.h"
#include "bwc/verify/verify.h"
#include "bwc/tune/autotune.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace {

using namespace bwc;

struct Options {
  std::string program = "fig7";
  std::string file;
  std::int64_t n = 100000;
  std::string machine = "o2k";
  int cores = 1;
  std::uint64_t scale = 16;
  std::string engine = "compiled";
  bool fast_forward = true;
  std::string codegen_cache_dir;
  std::string passes = core::kDefaultPipeline;
  std::uint64_t seed = 1;
  bool print = false;
  bool print_after_all = false;
  /// "json": print the structured pass reports as the only stdout output.
  std::string remarks;
  /// Print the traffic-bound report and assert bound <= measured traffic.
  bool verify_report = false;
  /// Run the independent verifier after every optimizer pass.
  bool verify_pipeline = true;
  /// Static-prover-first checking policy: on|off|only.
  std::string static_verify = "on";
  /// Run the bwc-lint diagnostics pass over the input program instead of
  /// optimizing; exit 1 on any error-severity finding.
  bool lint = false;
  /// Serve repeated analysis queries from the AnalysisManager cache.
  bool cache_analyses = true;
  /// Fingerprint cache entries and fail on undeclared invalidations.
  bool audit_analyses = false;
  /// Search the pipeline space instead of running one pipeline.
  bool tune = false;
  std::string tune_strategy = "beam";
  double tune_gap = 5.0;
  std::string tune_budget = "medium";
  std::uint64_t tune_seed = 0;
  /// bwcd record log whose pipeline-spec records seed the population.
  std::string tune_seed_log;
};

/// One entry of the flag table: every flag bwcopt accepts, its value
/// placeholder (empty for boolean flags; starting with '[' for an
/// optional inline value, e.g. "--tune" or "--tune=genetic"), one-line
/// help, and its effect.
struct Flag {
  const char* name;
  const char* value;  // e.g. "<int>"; "" for flags taking no value
  const char* help;
  void (*apply)(Options&, const std::string&);
};

const Flag kFlags[] = {
    // Workload selection.
    {"--program", "<fig6|fig7|sec21|jacobi|adi|blur|cascade|stride|random>",
     "workload to optimize (default fig7)",
     [](Options& o, const std::string& v) { o.program = v; }},
    {"--file", "<path>",
     "parse the program from a text file (printer format) instead",
     [](Options& o, const std::string& v) { o.file = v; }},
    {"--n", "<int>",
     "problem size (default 100000; fig6 uses a 2-D n x n, capped at 2000)",
     [](Options& o, const std::string& v) { o.n = std::stoll(v); }},
    {"--seed", "<int>", "PRNG seed for --program random (default 1)",
     [](Options& o, const std::string& v) { o.seed = std::stoull(v); }},
    // Machine model and measurement.
    {"--machine", "<o2k|exemplar|modern>", "machine model (default o2k)",
     [](Options& o, const std::string& v) { o.machine = v; }},
    {"--cores", "<int>",
     "core count for the multicore shared-bandwidth model (default 1); "
     "runs the parallel compiled engine and prints the scaling curve with "
     "the bus-saturation point",
     [](Options& o, const std::string& v) { o.cores = std::stoi(v); }},
    {"--scale", "<int>", "cache scale divisor (default 16)",
     [](Options& o, const std::string& v) { o.scale = std::stoull(v); }},
    {"--engine", "<compiled|reference|native>",
     "replay engine for measurement (default compiled; all are "
     "bit-identical; native compiles each lowered workload to host "
     "machine code via the system C compiler and falls back to the "
     "compiled VM with a warning when none is available)",
     [](Options& o, const std::string& v) { o.engine = v; }},
    {"--codegen-cache-dir", "<path>",
     "on-disk cache for --engine native objects (default "
     "$BWC_CODEGEN_CACHE_DIR or ./.bwc-codegen-cache)",
     [](Options& o, const std::string& v) { o.codegen_cache_dir = v; }},
    {"--fast-forward", "",
     "steady-state fast-forward in the compiled replay (default on; exact "
     "macrosimulation, all observables bit-identical)",
     [](Options& o, const std::string&) { o.fast_forward = true; }},
    {"--no-fast-forward", "",
     "disable fast-forward (for timing comparisons and debugging)",
     [](Options& o, const std::string&) { o.fast_forward = false; }},
    // Pipeline selection.
    {"--passes", "<spec>",
     "pass pipeline to run, exactly as given (grammar in docs/PIPELINE.md; "
     "default \"fuse(solver=best),reduce-storage,eliminate-stores\"; "
     "\"\" runs no pass). Edits of the default that replace the removed "
     "per-pass flags: --solver X: fuse(solver=X); --solver none: drop "
     "fuse(...); --no-storage: drop reduce-storage; --no-stores: drop "
     "eliminate-stores; --shift: fuse(solver=best,shift=1); --interchange: "
     "prepend interchange; --scalar-replace: append scalar-replace; "
     "--regroup: append regroup-arrays",
     [](Options& o, const std::string& v) { o.passes = v; }},
    // Verification and reporting.
    {"--verify", "",
     "print the static traffic lower-bound report and assert bound <= "
     "measured traffic",
     [](Options& o, const std::string&) { o.verify_report = true; }},
    {"--no-verify", "",
     "skip the in-pipeline verifier (translation validation and "
     "observability certification run after every pass by default)",
     [](Options& o, const std::string&) { o.verify_pipeline = false; }},
    {"--static-verify", "<on|off|only>",
     "static-prover-first checking (default on): the symbolic legality "
     "provers run before any trace replay and a proof skips the replay; "
     "off is trace-only; only never replays (a static refutation fails, "
     "an undecided check is reported as skipped)",
     [](Options& o, const std::string& v) { o.static_verify = v; }},
    {"--lint", "",
     "run the bwc-lint diagnostics pass over the input program instead of "
     "optimizing: dead stores, unreachable guard arms, analysis-opaque "
     "contexts, loops already at the traffic lower bound; exit 1 on any "
     "error-severity finding (combine with --remarks=json for the "
     "machine-readable report)",
     [](Options& o, const std::string&) { o.lint = true; }},
    {"--no-cache-analyses", "",
     "recompute every analysis query instead of serving it from the "
     "pass-manager cache (the pre-pass-manager behavior; results are "
     "identical either way)",
     [](Options& o, const std::string&) { o.cache_analyses = false; }},
    {"--audit-analyses", "",
     "fingerprint analysis-cache entries against the IR they were "
     "computed from and fail on a stale hit -- catches passes that "
     "mutate the program without declaring the invalidation",
     [](Options& o, const std::string&) { o.audit_analyses = true; }},
    // Autotuning.
    {"--tune", "[=beam|genetic]",
     "search the pipeline space for this workload instead of running one "
     "pipeline: seeded parallel beam (default) or genetic search over "
     "PipelineSpec strings, scored by the static traffic bound with full "
     "per-pass verification, top candidates validated in the machine "
     "model; prints the winner, the default-pipeline comparison and the "
     "lower-bound optimality certificate when one is earned "
     "(docs/AUTOTUNE.md; the scoring pool uses --cores threads)",
     [](Options& o, const std::string& v) {
       o.tune = true;
       if (!v.empty()) o.tune_strategy = v;
     }},
    {"--tune-gap", "<percent>",
     "certificate tolerance: stop the search early and certify the winner "
     "when its traffic is within this percentage of the data-movement "
     "floor (default 5)",
     [](Options& o, const std::string& v) { o.tune_gap = std::stod(v); }},
    {"--tune-budget", "<small|medium|large|int>",
     "maximum candidates scored: small=16, medium=48, large=128, or an "
     "explicit count (default medium)",
     [](Options& o, const std::string& v) { o.tune_budget = v; }},
    {"--tune-seed", "<int>",
     "search PRNG seed (default 0); a fixed seed replays the identical "
     "search and winner at any --cores value",
     [](Options& o, const std::string& v) {
       o.tune_seed = std::stoull(v);
     }},
    {"--tune-seed-log", "<path>",
     "seed the starting population with the pipeline-spec records of a "
     "bwcd record log (docs/SERVER.md); missing file seeds nothing",
     [](Options& o, const std::string& v) { o.tune_seed_log = v; }},
    {"--remarks", "<json>",
     "print the structured per-pass reports (remarks, timing, predicted "
     "traffic deltas) in the given format as the only output; skips "
     "measurement (schema bwc-remarks-v1, docs/PIPELINE.md)",
     [](Options& o, const std::string& v) { o.remarks = v; }},
    {"--print", "", "print the original and optimized programs",
     [](Options& o, const std::string&) { o.print = true; }},
    {"--print-after-all", "", "print the program after every pass",
     [](Options& o, const std::string&) { o.print_after_all = true; }},
};

void print_help(std::ostream& os) {
  os << "bwcopt -- drive the bandwidth optimizer over a workload and "
        "measure it\n\n"
        "usage: bwcopt [options]\n\n"
        "Output: the pass log, before/after memory traffic and predicted "
        "time on the\nchosen machine model, scaling curves (--cores > 1), "
        "the tuning report, and a\nsemantics check. Exit 0 on success, 1 "
        "when a bound or the semantics check is\nviolated, 2 on bad usage "
        "or any error.\n\noptions:\n";
  for (const Flag& flag : kFlags) {
    std::string head = "  " + std::string(flag.name);
    if (flag.value[0] == '[')
      head += std::string(flag.value);  // optional inline value
    else if (flag.value[0] != '\0')
      head += " " + std::string(flag.value);
    os << head << "\n";
    // Wrap the help text at 70 columns under an 8-column indent.
    std::istringstream words(flag.help);
    std::string word;
    std::string line;
    while (words >> word) {
      if (!line.empty() && line.size() + 1 + word.size() > 70) {
        os << "        " << line << "\n";
        line.clear();
      }
      if (!line.empty()) line += " ";
      line += word;
    }
    if (!line.empty()) os << "        " << line << "\n";
  }
  os << "  --help\n        print this help and exit\n";
}

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "bwcopt: " << why << "\n"
            << "usage: bwcopt [options]; run bwcopt --help for the flag "
               "list\n";
  std::exit(2);
}

model::ExecEngine make_engine(const std::string& name) {
  if (name == "compiled") return model::ExecEngine::kCompiled;
  if (name == "reference") return model::ExecEngine::kReference;
  if (name == "native") return model::ExecEngine::kNative;
  throw Error("unknown engine: " + name);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(std::cout);
      std::exit(0);
    }
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    const Flag* found = nullptr;
    for (const Flag& flag : kFlags) {
      if (arg == flag.name) {
        found = &flag;
        break;
      }
    }
    if (found == nullptr) usage_error("unknown flag: " + arg);
    const bool optional_value = found->value[0] == '[';
    const bool takes_value = !optional_value && found->value[0] != '\0';
    std::string value;
    if (optional_value) {
      // "--tune" and "--tune=genetic" are both valid; a following
      // argument is never consumed.
      if (has_inline) value = inline_value;
    } else if (takes_value) {
      if (has_inline) {
        value = inline_value;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        usage_error("flag " + arg + " requires a value " + found->value);
      }
    } else if (has_inline) {
      usage_error("flag " + arg + " takes no value");
    }
    try {
      found->apply(o, value);
    } catch (const std::exception&) {
      usage_error("bad value \"" + value + "\" for flag " + arg);
    }
  }
  if (!o.remarks.empty() && o.remarks != "json")
    usage_error("unknown remarks format: " + o.remarks + " (supported: json)");
  if (o.static_verify != "on" && o.static_verify != "off" &&
      o.static_verify != "only")
    usage_error("unknown static-verify mode: " + o.static_verify +
                " (supported: on, off, only)");
  if (o.cores < 1) usage_error("--cores must be >= 1");
  // Every value is checked here, before any work, whether or not the
  // mode that reads it is on.
  try {
    make_engine(o.engine);
    pass::build_pipeline(pass::parse_pipeline_spec(o.passes));
    tune::parse_strategy(o.tune_strategy);
    tune::parse_budget(o.tune_budget);
  } catch (const Error& e) {
    usage_error(e.what());
  }
  if (!(o.tune_gap >= 0.0 && o.tune_gap <= 1000.0))
    usage_error("--tune-gap must be in [0, 1000]");
  if (o.tune && o.lint) usage_error("--tune and --lint are mutually exclusive");
  return o;
}

ir::Program make_program(const Options& o) {
  if (!o.file.empty()) {
    std::ifstream in(o.file);
    if (!in.good()) throw Error("cannot open program file: " + o.file);
    std::ostringstream text;
    text << in.rdbuf();
    return ir::parse_program(text.str());
  }
  if (o.program == "fig6")
    return workloads::fig6_original(std::min<std::int64_t>(o.n, 2000));
  if (o.program == "fig7") return workloads::fig7_original(o.n);
  if (o.program == "sec21") return workloads::sec21_both_loops(o.n);
  if (o.program == "jacobi")
    return workloads::jacobi_chain(std::min<std::int64_t>(o.n, 100000), 4);
  if (o.program == "adi")
    return workloads::adi_like(std::min<std::int64_t>(o.n, 2000));
  if (o.program == "blur")
    return workloads::blur_sharpen(std::min<std::int64_t>(o.n, 100000));
  if (o.program == "cascade")
    return workloads::reduction_cascade(std::min<std::int64_t>(o.n, 100000),
                                        3);
  if (o.program == "stride")
    return workloads::transposed_sweep(std::min<std::int64_t>(o.n, 2000));
  if (o.program == "random") {
    Prng rng(o.seed);
    workloads::RandomProgramParams params;
    params.n = std::min<std::int64_t>(o.n, 4096);
    return workloads::random_program(rng, params);
  }
  throw Error("unknown program: " + o.program);
}

machine::MachineModel make_machine(const Options& o) {
  machine::MachineModel m;
  if (o.machine == "o2k") {
    m = machine::origin2000_r10k();
  } else if (o.machine == "exemplar") {
    m = machine::exemplar_pa8000();
  } else if (o.machine == "modern") {
    m = machine::generic_modern();
  } else {
    throw Error("unknown machine: " + o.machine);
  }
  return m.scaled(o.scale).with_cores(o.cores);
}

// ---- autotune mode: search the pipeline space for the workload ----

int run_tune(const Options& o, const ir::Program& original) {
  tune::TuneOptions topts;
  topts.strategy = tune::parse_strategy(o.tune_strategy);
  topts.gap_percent = o.tune_gap;
  topts.budget = tune::parse_budget(o.tune_budget);
  topts.seed = o.tune_seed;
  topts.threads = o.cores;
  topts.machine = make_machine(o);
  topts.engine = make_engine(o.engine);
  if (!o.tune_seed_log.empty())
    topts.seed_specs = server::read_pipeline_specs(o.tune_seed_log);
  const tune::TuneResult result = tune::tune(original, topts);

  if (!o.remarks.empty()) {
    // Winner's per-pass reports plus the synthetic tune record carrying
    // the certificate, as one schema-valid bwc-remarks-v1 document.
    pass::PipelineReport report = result.winner_pipeline;
    report.passes.push_back(result.report());
    const std::string name = o.file.empty() ? o.program : o.file;
    std::cout << report.to_json(name, result.winner_spec) << "\n";
    return 0;
  }

  std::cout << "autotune: " << tune::strategy_name(topts.strategy)
            << " search, budget " << topts.budget << ", gap "
            << o.tune_gap << "%, seed " << o.tune_seed << ", "
            << topts.threads
            << (topts.threads == 1 ? " thread\n" : " threads\n");
  std::cout << "evaluated " << result.evaluated << " candidates ("
            << result.infeasible << " infeasible)"
            << (result.early_stop ? "; stopped early within the gap"
                                  : "")
            << "\n\n";

  TextTable t("validated on " + topts.machine.name);
  t.set_header({"", "pipeline", "predicted", "measured"});
  for (const tune::Validated& v : result.validated) {
    const char* mark = v.spec == result.winner_spec    ? "winner"
                       : v.spec == result.default_spec ? "default"
                                                       : "";
    t.add_row({mark, v.spec.empty() ? "(no passes)" : v.spec,
               fmt_bytes(static_cast<double>(v.predicted_bytes)),
               fmt_bytes(static_cast<double>(v.measured_bytes))});
  }
  std::cout << t.render() << "\n";

  std::cout << "data-movement floor: " << result.floor.floor_bytes
            << " bytes\n";
  for (const verify::FloorRegion& region : result.floor.arrays)
    std::cout << "  " << region.name << ": " << region.bytes
              << " bytes\n";
  const tune::Certificate& cert = result.certificate;
  if (cert.within_gap) {
    std::cout << "certificate: winner is OPTIMAL within " << o.tune_gap
              << "% -- measured " << cert.measured_bytes << " bytes is "
              << fmt_fixed(cert.gap_percent, 2) << "% above the floor\n";
  } else if (cert.gap_percent < 0) {
    std::cout << "certificate: none (zero floor: the program moves no "
                 "mandatory data)\n";
  } else {
    std::cout << "certificate: none -- measured " << cert.measured_bytes
              << " bytes is " << fmt_fixed(cert.gap_percent, 2)
              << "% above the floor (tolerance " << o.tune_gap << "%)\n";
  }

  // The default pipeline is always in the validated set, so this can
  // only fire on an autotuner bug.
  const bool ok = result.winner_measured_bytes <= result.default_measured_bytes;
  if (!ok)
    std::cout << "winner vs default: WORSE -- please report a bug\n";
  return ok ? 0 : 1;
}

// ---- bwcd-client: speak the bwcd-v1 protocol to a running daemon ----

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string op = "optimize";
  /// Workload selection reuses the top-level table (--program/--file/...).
  Options workload;
  std::string pipeline;
  bool measure = true;
  std::int64_t timeout_ms = 0;
  /// Tune-op knobs (--op tune).
  std::string strategy = "beam";
  double gap = 5.0;
  std::string budget = "small";
  std::uint64_t tune_seed = 0;
  /// Print the raw response payload instead of the human summary.
  bool json = false;
};

const Flag kClientFlags[] = {
    {"--host", "<addr>", "daemon address (default 127.0.0.1)",
     [](Options&, const std::string&) {}},
    {"--port", "<int>", "daemon port (required)",
     [](Options&, const std::string&) {}},
    {"--op", "<optimize|tune|stats|ping>", "request kind (default optimize)",
     [](Options&, const std::string&) {}},
    {"--program", "<fig6|fig7|sec21|jacobi|adi|blur|cascade|stride|random>",
     "workload to submit (default fig7)",
     [](Options& o, const std::string& v) { o.program = v; }},
    {"--file", "<path>", "submit the program from a text file instead",
     [](Options& o, const std::string& v) { o.file = v; }},
    {"--n", "<int>", "problem size (default 100000)",
     [](Options& o, const std::string& v) { o.n = std::stoll(v); }},
    {"--seed", "<int>", "PRNG seed for --program random (default 1)",
     [](Options& o, const std::string& v) { o.seed = std::stoull(v); }},
    {"--passes", "<spec>", "pipeline spec (default: the daemon default)",
     [](Options&, const std::string&) {}},
    {"--machine", "<o2k|exemplar|modern>", "machine model (default o2k)",
     [](Options& o, const std::string& v) { o.machine = v; }},
    {"--cores", "<int>", "core count (default 1)",
     [](Options& o, const std::string& v) { o.cores = std::stoi(v); }},
    {"--scale", "<int>", "cache scale divisor (default 16)",
     [](Options& o, const std::string& v) { o.scale = std::stoull(v); }},
    {"--engine", "<compiled|reference|native>",
     "replay engine for the measurement (default compiled)",
     [](Options& o, const std::string& v) { o.engine = v; }},
    {"--no-measure", "", "skip the machine-model measurement",
     [](Options&, const std::string&) {}},
    {"--strategy", "<beam|genetic>",
     "tune-op search strategy (default beam)",
     [](Options&, const std::string&) {}},
    {"--gap", "<percent>", "tune-op certificate tolerance (default 5)",
     [](Options&, const std::string&) {}},
    {"--budget", "<small|medium|large|int>",
     "tune-op evaluation budget (default small; the daemon keeps tune "
     "requests comparable to optimize in service time)",
     [](Options&, const std::string&) {}},
    {"--tune-seed", "<int>", "tune-op search seed (default 0)",
     [](Options&, const std::string&) {}},
    {"--timeout-ms", "<int>",
     "queue-wait deadline for this request (default: daemon default)",
     [](Options&, const std::string&) {}},
    {"--json", "", "print the raw response payload",
     [](Options&, const std::string&) {}},
};

void print_client_help(std::ostream& os) {
  os << "bwcopt bwcd-client -- submit one request to a running bwcd\n\n"
        "usage: bwcopt bwcd-client --port <port> [options]\n\n"
        "Exit 0 when the response status is \"ok\" (or \"pong\"), 1 on any "
        "error\nstatus, 2 on bad usage or a transport failure.\n\noptions:\n";
  for (const Flag& flag : kClientFlags) {
    std::string head = "  " + std::string(flag.name);
    if (flag.value[0] != '\0') head += " " + std::string(flag.value);
    os << head << "\n        " << flag.help << "\n";
  }
  os << "  --help\n        print this help and exit\n";
}

[[noreturn]] void client_usage_error(const std::string& why) {
  std::cerr << "bwcopt bwcd-client: " << why << "\n"
            << "usage: bwcopt bwcd-client --port <port> [options]; run "
               "bwcopt bwcd-client --help for the flag list\n";
  std::exit(2);
}

ClientOptions parse_client(int argc, char** argv) {
  ClientOptions c;
  // argv[1] is the subcommand name; flags start at argv[2].
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_client_help(std::cout);
      std::exit(0);
    }
    std::string value;
    bool has_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const Flag* found = nullptr;
    for (const Flag& flag : kClientFlags) {
      if (arg == flag.name) {
        found = &flag;
        break;
      }
    }
    if (found == nullptr) client_usage_error("unknown flag: " + arg);
    const bool takes_value = found->value[0] != '\0';
    if (takes_value && !has_value) {
      if (i + 1 >= argc)
        client_usage_error("flag " + arg + " requires a value " +
                           found->value);
      value = argv[++i];
      has_value = true;
    } else if (!takes_value && has_value) {
      client_usage_error("flag " + arg + " takes no value");
    }
    try {
      // Flags shared with the top-level table route through workload;
      // client-only flags are handled here.
      if (arg == "--host") {
        c.host = value;
      } else if (arg == "--port") {
        c.port = std::stoi(value);
      } else if (arg == "--op") {
        c.op = value;
      } else if (arg == "--passes") {
        c.pipeline = value;
      } else if (arg == "--no-measure") {
        c.measure = false;
      } else if (arg == "--timeout-ms") {
        c.timeout_ms = std::stoll(value);
      } else if (arg == "--strategy") {
        c.strategy = value;
      } else if (arg == "--gap") {
        c.gap = std::stod(value);
      } else if (arg == "--budget") {
        c.budget = value;
      } else if (arg == "--tune-seed") {
        c.tune_seed = std::stoull(value);
      } else if (arg == "--json") {
        c.json = true;
      } else {
        found->apply(c.workload, value);
      }
    } catch (const std::exception&) {
      client_usage_error("bad value \"" + value + "\" for flag " + arg);
    }
  }
  if (c.port < 1 || c.port > 65535)
    client_usage_error("--port is required (1..65535)");
  if (c.op != "optimize" && c.op != "tune" && c.op != "stats" &&
      c.op != "ping")
    client_usage_error("unknown op: " + c.op +
                       " (supported: optimize, tune, stats, ping)");
  return c;
}

int bwcd_client_main(int argc, char** argv) {
  const ClientOptions c = parse_client(argc, argv);
  try {
    server::Request request;
    if (c.op == "stats") {
      request.op = server::Request::Op::kStats;
    } else if (c.op == "ping") {
      request.op = server::Request::Op::kPing;
    } else {
      const bool is_tune = c.op == "tune";
      request.op = is_tune ? server::Request::Op::kTune
                           : server::Request::Op::kOptimize;
      request.program = ir::to_string(make_program(c.workload));
      request.machine = c.workload.machine;
      request.cores = c.workload.cores;
      request.scale = c.workload.scale;
      request.engine = c.workload.engine;
      request.timeout_ms = c.timeout_ms;
      if (is_tune) {
        request.strategy = c.strategy;
        request.gap = c.gap;
        request.budget = c.budget;
        request.tune_seed = c.tune_seed;
      } else {
        request.pipeline = c.pipeline;
        request.measure = c.measure;
      }
    }
    server::Client client(c.host, c.port);
    const server::Response response = client.call(request);
    if (c.json) {
      std::cout << server::render_response(response) << "\n";
    } else if (response.status == "ok") {
      std::cout << "status: ok"
                << (response.cache_hit ? " (cache hit)" : "") << " in "
                << response.elapsed_us << " us\n";
      if (!response.result_json.empty())
        std::cout << response.result_json << "\n";
    } else {
      std::cout << "status: " << response.status << "\n";
      if (!response.error.empty())
        std::cout << "error: " << response.error << "\n";
    }
    return response.status == "ok" ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bwcopt bwcd-client: error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "bwcd-client")
    return bwcd_client_main(argc, argv);
  const Options o = parse(argc, argv);
  try {
    const ir::Program original = make_program(o);
    if (o.tune) return run_tune(o, original);

    core::OptimizerOptions opts;
    opts.verify = o.verify_pipeline;
    opts.static_verify = o.static_verify == "off"
                             ? pass::StaticVerifyMode::kOff
                             : o.static_verify == "only"
                                   ? pass::StaticVerifyMode::kOnly
                                   : pass::StaticVerifyMode::kOn;
    opts.cache_analyses = o.cache_analyses;
    opts.audit_analyses = o.audit_analyses;
    opts.cores = o.cores;
    opts.passes = o.lint ? "lint" : o.passes;
    if (o.print_after_all) {
      opts.print_after = [](const pass::Pass& pass,
                            const ir::Program& program) {
        std::cout << "---- after " << pass.name() << " ----\n"
                  << ir::to_string(program) << "\n";
      };
    }
    const core::OptimizeResult result = core::optimize(original, opts);

    if (o.lint) {
      // Diagnostics mode: findings are the only product; exit 1 when any
      // error-severity finding was emitted.
      const int errors = result.pipeline.error_findings();
      if (!o.remarks.empty()) {
        const std::string name = o.file.empty() ? o.program : o.file;
        std::cout << result.pipeline.to_json(name, opts.passes) << "\n";
      } else {
        for (const auto& pass_report : result.pipeline.passes) {
          for (const auto& remark : pass_report.remarks) {
            std::cout << "lint: [" << pass::remark_severity_name(
                             remark.severity)
                      << "] " << remark.code << ": " << remark.message
                      << "\n";
          }
        }
      }
      return errors > 0 ? 1 : 0;
    }

    if (!o.remarks.empty()) {
      // Machine-readable mode: the JSON document is the only stdout
      // output, so CI can pipe it straight into the schema validator.
      const std::string name = o.file.empty() ? o.program : o.file;
      std::cout << result.pipeline.to_json(name, opts.passes) << "\n";
      return 0;
    }

    const machine::MachineModel machine = make_machine(o);
    if (o.print) {
      std::cout << "---- original ----\n" << ir::to_string(original)
                << "\n---- optimized ----\n" << ir::to_string(result.program)
                << "\n";
    }
    std::cout << "passes:\n" << core::render_log(result) << "\n";

    model::MeasureOptions measure_opts;
    measure_opts.engine = make_engine(o.engine);
    measure_opts.fast_forward = o.fast_forward;
    measure_opts.native.cache_dir = o.codegen_cache_dir;
    runtime::NativeReport native_report;
    if (measure_opts.engine == model::ExecEngine::kNative)
      measure_opts.native_report = &native_report;
    const auto before = model::measure(original, machine, measure_opts);
    if (!native_report.warning.empty()) {
      // Native fell back to the VM; say so once (results are identical).
      std::cerr << "warning: " << native_report.warning << "\n";
      measure_opts.native_report = nullptr;
    }
    const auto after = model::measure(result.program, machine, measure_opts);
    TextTable t("on " + machine.name);
    t.set_header({"", "mem traffic", "predicted ms", "binding"});
    t.add_row({"original",
               fmt_bytes(static_cast<double>(before.profile.memory_bytes())),
               fmt_fixed(before.time.total_s * 1e3, 3),
               before.time.binding_resource});
    t.add_row({"optimized",
               fmt_bytes(static_cast<double>(after.profile.memory_bytes())),
               fmt_fixed(after.time.total_s * 1e3, 3),
               after.time.binding_resource});
    std::cout << t.render();
    std::cout << "speedup: "
              << fmt_fixed(before.time.total_s / after.time.total_s, 2)
              << "x\n";

    if (o.cores > 1) {
      // Scaling curves up to the requested core count: optimization lowers
      // shared-bus traffic, so the optimized program should saturate the
      // bus at strictly more cores (or plateau higher).
      std::cout << "\n"
                << model::render_scaling_curve(model::scaling_curve(
                       "original", before.profile, machine, o.cores))
                << model::render_scaling_curve(model::scaling_curve(
                       "optimized", after.profile, machine, o.cores));
    }

    bool bounds_ok = true;
    if (o.verify_report) {
      const struct {
        const char* label;
        const ir::Program& program;
        std::uint64_t measured;
      } sides[] = {
          {"original", original, before.profile.memory_bytes()},
          {"optimized", result.program, after.profile.memory_bytes()},
      };
      for (const auto& side : sides) {
        const verify::TrafficBound bound =
            verify::compute_traffic_bound(side.program);
        std::cout << "\n[" << side.label << "] " << bound.render();
        const bool holds =
            static_cast<std::uint64_t>(bound.lower_bound_bytes) <=
            side.measured;
        std::cout << "  bound <= measured " << side.measured << " bytes: "
                  << (holds ? "holds" : "VIOLATED -- please report a bug")
                  << "\n";
        bounds_ok = bounds_ok && holds;
      }
      std::cout << "\n";
    }

    const double drift =
        std::abs(before.exec.checksum - after.exec.checksum);
    const bool ok = bounds_ok &&
        drift <= 1e-9 * (std::abs(before.exec.checksum) + 1.0);
    std::cout << "semantics: "
              << (ok ? "preserved" : "MISMATCH -- please report a bug")
              << " (checksum " << before.exec.checksum << ")\n\n";
    std::cout << model::render_tuning_report(
        model::tuning_report(after.profile, machine));
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
