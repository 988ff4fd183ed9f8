// Figure 3: Effective memory bandwidth of the 13 stride-1 read/write
// kernels on both machines.
//
// Paper: on the Origin2000 (R10K) all kernels land within 20% of each
// other near the ~300 MB/s machine limit; on the Exemplar (PA-8000) they
// range 417-551 MB/s with 3w6r as a conflict-driven outlier on the
// direct-mapped cache.
//
// Row values come from bench/fig_data.h and are regression-locked by
// tests/bench_golden_test.cpp against tests/golden/fig3_kernel_bandwidth.csv.
// --json emits per-machine median bandwidths for
// tools/check_bench_regression.py.
#include "fig_data.h"

#include <cstdio>
#include <iostream>

#include "bwc/support/csv.h"
#include "bwc/support/stats.h"
#include "bwc/support/table.h"

int main(int argc, char** argv) {
  using namespace bwc;
  if (bench::parse_flags(argc, argv, {"--json"}).has("--json")) {
    std::vector<double> o2k_series, ex_series;
    for (const auto& r : bench::fig3_rows()) {
      o2k_series.push_back(r.o2k_mbps);
      ex_series.push_back(r.exemplar_mbps);
    }
    std::printf(
        "{\"bench\": \"fig3_kernel_bandwidth\", "
        "\"o2k_median_mbps\": %.3f, \"exemplar_median_mbps\": %.3f}\n",
        median(o2k_series), median(ex_series));
    return 0;
  }
  bench::print_header(
      "Figure 3: effective memory bandwidth of stride-1 kernels");

  const std::vector<bench::Fig3Row> rows = bench::fig3_rows();

  TextTable t("Effective bandwidth (MB/s), steady state");
  t.set_header({"kernel", "Origin2000 (R10K)", "Exemplar (PA-8000)"});
  std::vector<double> o2k_series, ex_series;
  for (const auto& r : rows) {
    t.add_row({r.kernel, fmt_fixed(r.o2k_mbps, 1),
               fmt_fixed(r.exemplar_mbps, 1)});
    o2k_series.push_back(r.o2k_mbps);
    ex_series.push_back(r.exemplar_mbps);
  }
  std::cout << t.render();

  std::cout << "\nOrigin2000 spread (max-min)/min: "
            << fmt_fixed(relative_spread(o2k_series) * 100, 1)
            << "% (paper: within 20%)\n";
  std::cout << "Exemplar range: " << fmt_fixed(summarize(ex_series).min, 1)
            << " - " << fmt_fixed(summarize(ex_series).max, 1)
            << " MB/s (paper: 417-551 MB/s, 3w6r low outlier)\n";

  bench::fig3_csv(rows).write_file("fig3_kernel_bandwidth.csv");
  std::cout << "series written to fig3_kernel_bandwidth.csv\n";
  return 0;
}
