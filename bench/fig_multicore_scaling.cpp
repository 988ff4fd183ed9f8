// Multicore extension: speedup vs core count under the shared-bandwidth
// machine model (docs/MODEL.md section 7), original vs optimized.
//
// The paper's single-core claim is that memory bandwidth, not CPU speed,
// bounds performance; on a multicore the imbalance compounds -- P cores
// share one memory bus, so a bandwidth-bound program stops scaling at the
// bus-saturation core count P_sat = ceil(T_private(1) / T_shared). The
// compiler's traffic reductions lower T_shared, which both raises the
// speedup plateau and delays the knee: the fusion / store-elimination
// wins *grow* with core count.
//
// This binary is CI-gated: it exits nonzero unless, for every workload,
// the optimized variant saturates at strictly more cores than the
// original or plateaus at a strictly lower shared-bus time. Row values
// come from bench/fig_data.h and are regression-locked by
// tests/bench_golden_test.cpp against tests/golden/fig_multicore_scaling.csv.
// --json emits per-workload saturation points and plateau speedups for
// tools/check_bench_regression.py.
#include "fig_data.h"

#include <cstdio>
#include <iostream>
#include <map>

#include "bwc/support/csv.h"
#include "bwc/support/table.h"

int main(int argc, char** argv) {
  using namespace bwc;
  if (bench::parse_flags(argc, argv, {"--json"}).has("--json")) {
    // Last row of each (workload, variant) group = largest core count.
    std::map<std::string, bench::ScalingRow> last;
    for (const auto& r : bench::multicore_scaling_rows())
      last[r.workload + "_" + r.variant] = r;
    std::printf("{\"bench\": \"fig_multicore_scaling\"");
    // `_ms` keys are lower-is-better; the checker keys direction off the
    // suffix.
    for (const auto& [key, r] : last)
      std::printf(", \"%s_sat_cores\": %d, \"%s_plateau_ms\": %.4f",
                  key.c_str(), r.saturation_cores, key.c_str(),
                  r.predicted_ms);
    std::printf("}\n");
    return 0;
  }
  bench::print_header(
      "Multicore scaling: shared memory bus, original vs optimized");

  const std::vector<bench::ScalingRow> rows =
      bench::multicore_scaling_rows();

  // One table per (workload, variant) group, in row order.
  std::string group;
  TextTable* table = nullptr;
  std::vector<TextTable> tables;
  for (const auto& r : rows) {
    const std::string key = r.workload + "/" + r.variant;
    if (key != group) {
      group = key;
      tables.emplace_back(key + " (bus saturates at " +
                          std::to_string(r.saturation_cores) + " cores)");
      tables.back().set_header({"cores", "predicted ms", "speedup",
                                "binding"});
      table = &tables.back();
    }
    table->add_row({std::to_string(r.cores), fmt_fixed(r.predicted_ms, 3),
                    fmt_fixed(r.speedup, 2), r.binding});
  }
  for (const auto& t : tables) std::cout << t.render();

  bench::multicore_scaling_csv(rows).write_file("fig_multicore_scaling.csv");
  std::cout << "series written to fig_multicore_scaling.csv\n";

  // CI gate: optimization must delay the saturation knee or lower the
  // plateau time (= raise the plateau throughput) on every workload.
  struct Group {
    int saturation_cores = 0;
    double max_cores_ms = 0.0;  // time at the largest measured core count
  };
  std::map<std::string, std::map<std::string, Group>> groups;
  for (const auto& r : rows) {
    Group& g = groups[r.workload][r.variant];
    g.saturation_cores = r.saturation_cores;
    g.max_cores_ms = r.predicted_ms;  // rows are cores-ascending
  }
  bool ok = true;
  for (const auto& [workload, variants] : groups) {
    const Group& orig = variants.at("original");
    const Group& opt = variants.at("optimized");
    const bool later_knee = opt.saturation_cores > orig.saturation_cores;
    const bool higher_plateau = opt.max_cores_ms < orig.max_cores_ms;
    std::cout << workload << ": saturation " << orig.saturation_cores
              << " -> " << opt.saturation_cores << " cores, time at "
              << bench::kScalingMaxCores << " cores "
              << fmt_fixed(orig.max_cores_ms, 3) << " -> "
              << fmt_fixed(opt.max_cores_ms, 3) << " ms: "
              << (later_knee || higher_plateau ? "ok"
                                               : "REGRESSION -- gate failed")
              << "\n";
    ok = ok && (later_knee || higher_plateau);
  }
  return ok ? 0 : 1;
}
