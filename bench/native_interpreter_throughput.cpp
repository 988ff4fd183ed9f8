// Replay-engine throughput: accesses/sec of the tree-walking reference
// interpreter vs the compiled engine (slot-resolved bytecode, fused
// stride-1 stream loops, coalesced cache access), on fig3-scale stride-1
// kernels and a 2-D pipeline.
//
// Every figure and ablation in this repo is produced by replaying access
// streams, so engine throughput bounds the whole evaluation's turnaround.
// Reported both without a hierarchy (pure interpretation overhead) and
// with the scaled Origin2000 hierarchy attached (the measurement
// configuration, where coalescing batches stride-1 runs into line-granular
// simulator accesses).
//
//   native_interpreter_throughput [--smoke] [--json]
//
// --smoke shrinks the problem size, and exits non-zero if the two engines
// disagree on any observable or the compiled engine's speedup falls below
// the regression floor -- CI runs this mode so perf regressions fail
// loudly. --json emits one JSON object of metrics for
// tools/check_bench_regression.py. Numbers are recorded in EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/ir/dsl.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/workloads/paper_programs.h"

namespace {

using namespace bwc;

// Regression floors for --smoke, per configuration. Measured speedups are
// ~5-9x (semantics) and ~2-2.9x (o2k hierarchy, where per-element cache
// simulation is a large shared cost and the interleaved 1w2r stream defeats
// coalescing); the floors leave headroom for timer noise on loaded hosts.
constexpr double kSemanticsSpeedupFloor = 3.5;
constexpr double kHierarchySpeedupFloor = 1.5;

/// Fig3-style steady-state kernels: `reps` stride-1 sweeps over the same
/// arrays. The outer repeat loop amortizes one-time array initialization
/// (identical in both engines) so the measurement isolates replay
/// throughput, matching how the paper times its traversal kernels.
ir::Program stride1_sweep(std::int64_t n, std::int64_t reps) {
  using namespace ir::dsl;  // NOLINT
  ir::Program p("stride1 sweep x" + std::to_string(reps));
  const ir::ArrayId a = p.add_array("A", {n});
  p.add_scalar("sum");
  p.mark_output_scalar("sum");
  p.append(assign("sum", lit(0.0)));
  p.append(loop("r", 1, reps,
                loop("i", 1, n,
                     assign(a, {v("i")}, at(a, v("i")) + lit(0.4))),
                loop("i", 1, n,
                     assign("sum", sref("sum") + at(a, v("i"))))));
  return p;
}

/// 1w2r-style kernel (Figure 3's family): two read streams, one written.
ir::Program stride1_1w2r(std::int64_t n, std::int64_t reps) {
  using namespace ir::dsl;  // NOLINT
  ir::Program p("stride1 1w2r x" + std::to_string(reps));
  const ir::ArrayId a = p.add_array("A", {n});
  const ir::ArrayId b = p.add_array("B", {n});
  p.mark_output_array(a);
  p.append(loop("r", 1, reps,
                loop("i", 1, n,
                     assign(a, {v("i")},
                            at(a, v("i")) + at(b, v("i"))))));
  return p;
}

double seconds_of(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct EngineRow {
  double ref_aps = 0.0;       // reference interpreter accesses/sec
  double compiled_aps = 0.0;  // compiled engine accesses/sec
  double speedup() const { return compiled_aps / ref_aps; }
};

bool results_match(const runtime::ExecResult& a, const runtime::ExecResult& b,
                   const char* label) {
  bool ok = a.checksum == b.checksum && a.flops == b.flops &&
            a.loads == b.loads && a.stores == b.stores &&
            a.profile.boundaries.size() == b.profile.boundaries.size();
  if (ok) {
    for (std::size_t i = 0; i < a.profile.boundaries.size(); ++i) {
      ok = ok &&
           a.profile.boundaries[i].bytes_toward_cpu ==
               b.profile.boundaries[i].bytes_toward_cpu &&
           a.profile.boundaries[i].bytes_from_cpu ==
               b.profile.boundaries[i].bytes_from_cpu;
    }
  }
  if (!ok) std::printf("!! engine mismatch on %s\n", label);
  return ok;
}

/// Time one program under both engines. `machine` may be null for the
/// no-simulation configuration.
EngineRow profile_engines(const ir::Program& p,
                          const machine::MachineModel* machine, int reps,
                          bool* exact) {
  const runtime::LoweredProgram lowered = runtime::lower(p);
  const auto run_ref = [&] {
    memsim::MemoryHierarchy h =
        machine != nullptr ? machine->make_hierarchy()
                           : memsim::MemoryHierarchy({});
    runtime::ExecOptions opts;
    opts.hierarchy = machine != nullptr ? &h : nullptr;
    return runtime::execute(p, opts);
  };
  const auto run_compiled = [&] {
    memsim::MemoryHierarchy h =
        machine != nullptr ? machine->make_hierarchy()
                           : memsim::MemoryHierarchy({});
    runtime::ExecOptions opts;
    opts.hierarchy = machine != nullptr ? &h : nullptr;
    return runtime::execute_lowered(lowered, opts);
  };

  const runtime::ExecResult ref = run_ref();
  const runtime::ExecResult fast = run_compiled();
  *exact = results_match(ref, fast, p.name().c_str()) && *exact;

  const double accesses = static_cast<double>(ref.loads + ref.stores);
  EngineRow row;
  row.ref_aps = accesses / seconds_of([&] { run_ref(); }, reps);
  row.compiled_aps = accesses / seconds_of([&] { run_compiled(); }, reps);
  return row;
}

void print_row(const std::string& name, const char* config,
               const EngineRow& row) {
  std::printf("%-28s %-14s %12.2e %12.2e %8.2fx\n", name.c_str(), config,
              row.ref_aps, row.compiled_aps, row.speedup());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, {"--smoke", "--json"});
  const bool smoke = flags.has("--smoke");
  const bool json = flags.has("--json");

  const std::int64_t n1 = smoke ? 100000 : 1000000;  // fig3-scale stride-1
  const std::int64_t sweeps = smoke ? 6 : 10;        // steady-state repeats
  const std::int64_t n2 = smoke ? 96 : 400;          // 2-D pipeline
  const int reps = smoke ? 2 : 3;
  const machine::MachineModel o2k = bench::o2k();

  if (!json) {
    bench::print_header(
        "Replay-engine throughput: reference interpreter vs compiled engine" +
        std::string(smoke ? " (smoke)" : ""));
    std::printf("%-28s %-14s %12s %12s %9s\n", "program", "config",
                "ref acc/s", "compiled", "speedup");
  }

  bool exact = true;
  double min_semantics = 1e300, min_hierarchy = 1e300;
  std::vector<std::pair<std::string, double>> metrics;
  // `gate`: steady-state stride-1 kernels enter the regression floors; the
  // cold single-pass programs (dominated by identical init cost in both
  // engines) are reported for context only.
  const auto bench_one = [&](const ir::Program& p, const char* key,
                             bool gate) {
    const EngineRow plain = profile_engines(p, nullptr, reps, &exact);
    const EngineRow sim = profile_engines(p, &o2k, reps, &exact);
    if (!json) {
      print_row(p.name(), "semantics", plain);
      print_row(p.name(), "o2k hierarchy", sim);
    }
    if (key != nullptr) {
      metrics.emplace_back(std::string("semantics_") + key, plain.speedup());
      metrics.emplace_back(std::string("hierarchy_") + key, sim.speedup());
    }
    if (gate) {
      min_semantics = std::min(min_semantics, plain.speedup());
      min_hierarchy = std::min(min_hierarchy, sim.speedup());
    }
  };

  bench_one(stride1_sweep(n1, sweeps), "sweep", /*gate=*/true);
  bench_one(stride1_1w2r(n1, sweeps), "1w2r", /*gate=*/true);
  bench_one(workloads::fig7_original(n1), nullptr, /*gate=*/false);
  bench_one(workloads::fig6_original(n2), nullptr, /*gate=*/false);

  if (json) {
    std::printf("{\"bench\": \"native_interpreter_throughput\"");
    for (const auto& [key, value] : metrics)
      std::printf(", \"%s\": %.3f", key.c_str(), value);
    std::printf("}\n");
  } else {
    std::printf(
        "\nexactness: %s, min steady-state speedup: %.2fx semantics, "
        "%.2fx hierarchy\n",
        exact ? "byte-identical" : "MISMATCH", min_semantics, min_hierarchy);
  }
  if (!exact) return 1;
  if (smoke && (min_semantics < kSemanticsSpeedupFloor ||
                min_hierarchy < kHierarchySpeedupFloor)) {
    std::printf("FAIL: speedup below regression floors %.1fx/%.1fx\n",
                kSemanticsSpeedupFloor, kHierarchySpeedupFloor);
    return 1;
  }
  return 0;
}
