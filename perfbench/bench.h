// The bwc benchmark: three closed-loop workloads driven from a seed.
//
// Each workload runs set-up (repeated, the median is setup_s), then a timed
// window of ops, then the off-the-clock correctness checks. Everything the
// metrics need is returned in a RunResult; metrics.cpp turns it into the
// named end-to-end and per-layer numbers. README.md in this directory
// describes the workloads and every metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

enum class Workload { kCompile, kReplay, kBwcd };

/// "compile" | "replay" | "bwcd"; false on anything else.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload workload);

struct Config {
  Workload workload = Workload::kCompile;
  std::uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 15.0;
  /// When > 0 the window ends after this many ops (per client on bwcd)
  /// instead of after `seconds`; used by the self-test.
  std::int64_t max_ops = 0;
  /// Trace every other op (every other round on `replay`); the untraced
  /// ops in between are the base of the tracing overhead.
  bool traced = false;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 7;
  /// Small program sizes for the self-test.
  bool tiny = false;
  /// Private temporary directories are created under this directory.
  std::string scratch_root = ".";
};

/// One op as the caller saw it.
struct OpRecord {
  std::string_view kind;  ///< optimize | tune | replay | hit | miss
  double ms = 0.0;        ///< wall time of the op
  double end_s = 0.0;     ///< the run clock when the op ended (see busy_s)
  bool traced = false;    ///< spans were recorded for this op
  /// The verifier refused the pipeline: the caller got no optimized
  /// program, so the op misses every latency limit and is no throughput.
  bool refused = false;
  /// Which input the op ran when the run repeats the same inputs (`replay`:
  /// the program's index); -1 when every op has an input of its own.
  std::int64_t input = -1;
};

struct RunResult {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<OpRecord> ops;
  std::uint64_t failed = 0;
  /// The run clock: seconds the system was busy with ops. For a single
  /// serial caller it advances only while an op runs (the sum of op wall
  /// times); for concurrent clients it is wall time since the window
  /// opened.
  double busy_s = 0.0;
  /// Optimized / original memory bytes, one entry per program in the
  /// deterministic prefix the geomean is taken over.
  std::vector<double> traffic_ratios;
  /// Per-op values that must repeat exactly for a given seed (checksums,
  /// byte counts); compared by the self-test.
  std::vector<double> fingerprint;
  /// Counts summed over the run ("memsim.accesses", "tune.evaluated", ...).
  std::map<std::string, double> counters;
  /// The same counts over the traced ops only, for rates against span
  /// times.
  std::map<std::string, double> traced_counters;
  /// Timings taken outside the span logs (bwcd response fields, the
  /// in-process service replay), summed, in ms.
  std::map<std::string, double> timers;
  /// Span logs, one per caller thread (empty logs when not traced).
  std::vector<std::unique_ptr<SpanLog>> logs;
  /// The drawn program texts of the first ops (self-test: seed changes
  /// the draw).
  std::vector<std::string> drawn;
};

RunResult run_compile(const Config& config);
RunResult run_replay(const Config& config);
RunResult run_bwcd(const Config& config);
RunResult run_workload(const Config& config);

}  // namespace perfbench
