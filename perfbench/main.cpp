// bwcbench: run one benchmark workload and print its metrics.
//
//   bwcbench --workload compile|replay|bwcd --seed N --seconds S --trace 0|1
//            [--scratch-dir DIR] [--trace-dir DIR]
//
// The last line of stdout is the JSON result. --trace 0 measures the
// end-to-end metrics. --trace 1 traces every other op, prints the
// per-layer metrics and writes the spans (Chrome trace-event JSON) and the
// per-layer self-time table into --trace-dir; on `compile` it also runs a
// short `bwcd` session for the server.* metrics. Exit status: 0 when every
// check passed, 1 when an op failed or the run could not finish, 2 on a
// bad command line (before any work).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "metrics.h"

namespace {

using namespace perfbench;

/// Requests per client of the daemon session a traced `compile` run adds
/// for the server layer's per-layer metrics (README.md, "Server layer").
constexpr std::int64_t kServerSessionRequests = 1500;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bwcbench: %s\nusage: bwcbench --workload compile|replay|bwcd "
               "--seed N --seconds S --trace 0|1 [--scratch-dir DIR] "
               "[--trace-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

/// Whole decimal number in [lo, hi]; usage error otherwise.
std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    usage(flag + " wants a whole number, got '" + text + "'");
  std::uint64_t v = 0;
  try {
    v = std::stoull(text);
  } catch (const std::exception&) {
    usage(flag + " is out of range: '" + text + "'");
  }
  if (v < lo || v > hi)
    usage(flag + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got " + text);
  return v;
}

struct Cli {
  Config config;
  std::string trace_dir = ".bench_build/trace";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(value, &cli.config.workload))
        usage("unknown workload '" + value + "'");
      have_workload = true;
    } else if (flag == "--seed") {
      cli.config.seed = parse_uint(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      cli.config.seconds = static_cast<double>(parse_uint(flag, value, 1, 60));
    } else if (flag == "--trace") {
      cli.config.traced = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--scratch-dir") {
      cli.config.scratch_root = value;
    } else if (flag == "--trace-dir") {
      cli.trace_dir = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return cli;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run(const Cli& cli) {
  const Config& config = cli.config;
  const RunResult run = run_workload(config);
  const bool correct = run.failed == 0;
  if (!config.traced) {
    std::cout << result_json(correct, run.ops.size(), run.failed,
                             end_to_end_metrics(run))
              << std::endl;
    return correct ? 0 : 1;
  }

  std::uint64_t attempted = run.ops.size();
  std::uint64_t failed = run.failed;
  std::vector<Metric> metrics = per_layer_metrics(run);
  if (config.workload == Workload::kCompile) {
    // The server layer, off the compile window: a short `bwcd` session
    // whose server.* metrics replace the compile run's zeros.
    Config session = config;
    session.workload = Workload::kBwcd;
    session.setup_reps = 1;
    session.max_ops = kServerSessionRequests;
    const RunResult server = run_workload(session);
    attempted += server.ops.size();
    failed += server.failed;
    const std::vector<Metric> from_server = per_layer_metrics(server);
    for (Metric& m : metrics) {
      if (m.name.rfind("server.", 0) != 0) continue;
      m.value = std::find_if(from_server.begin(), from_server.end(),
                             [&](const Metric& x) { return x.name == m.name; })
                    ->value;
    }
  }

  std::vector<const SpanLog*> logs;
  for (const auto& log : run.logs) logs.push_back(log.get());
  const std::string title = std::string(workload_name(config.workload)) +
                            "-seed" + std::to_string(config.seed);
  const std::string stem = cli.trace_dir + "/" + title;
  const std::string table = self_time_table(summarize(logs), title);
  std::filesystem::create_directories(cli.trace_dir);
  write_file(stem + ".trace.json", chrome_trace_json(logs));
  write_file(stem + ".layers.txt", table);
  std::cout << table << "trace: " << stem << ".trace.json\n";
  std::cout << result_json(failed == 0, attempted, failed, metrics)
            << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bwcbench: error: %s\n", e.what());
    return 1;
  }
}
