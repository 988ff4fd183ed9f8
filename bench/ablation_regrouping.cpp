// Ablation: inter-array data regrouping on a direct-mapped cache.
//
// The Figure 3 footnote blames the Exemplar's 3w6r dip on "excessive cache
// conflicts because it accesses 6 large arrays on a direct-mapped cache".
// Regrouping (paper Section 4 / Ding's dissertation) interleaves arrays
// accessed together, collapsing six conflicting streams into two: the
// conflicts -- and the bandwidth they waste -- disappear. The regroup-arrays
// transform does it as a pure layout change (no packing copy, no rewritten
// statement), so the checksum must come out bit-identical; exit 1 if not.
#include "bench_common.h"

#include <iostream>

#include "bwc/ir/dsl.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/transform/layout.h"

namespace {

using namespace bwc;
using namespace bwc::ir::dsl;

/// The 3w6r kernel as an IR program: six arrays, three also written,
/// swept `passes` times, as in a real iterative application.
ir::Program three_w_six_r(std::int64_t n, std::int64_t passes) {
  ir::Program p("3w6r");
  std::vector<ir::ArrayId> arrays;
  for (char k = '0'; k < '6'; ++k)
    arrays.push_back(p.add_array(std::string{'a', k}, {n}));
  p.add_scalar("acc");
  p.mark_output_scalar("acc");

  // acc-feeding read of the three read-only arrays, update of the rest.
  ir::StmtList body;
  ir::ExprPtr sum = at(arrays[3], v("i"));
  sum = std::move(sum) + at(arrays[4], v("i"));
  sum = std::move(sum) + at(arrays[5], v("i"));
  body.push_back(assign("acc", sref("acc") + sum->clone()));
  for (int k = 0; k < 3; ++k) {
    body.push_back(assign(arrays[static_cast<std::size_t>(k)], {v("i")},
                          at(arrays[static_cast<std::size_t>(k)], v("i")) *
                                  lit(0.5) +
                              sum->clone()));
  }
  ir::StmtList sweep;
  sweep.push_back(loop_b("i", 1, n, std::move(body)));
  p.append(loop_b("t", 1, passes, std::move(sweep)));
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {});
  bench::print_header(
      "Ablation: inter-array regrouping vs direct-mapped conflicts "
      "(3w6r as a program)");

  const ir::Program original = three_w_six_r(100000, /*passes=*/4);
  const transform::LayoutResult regrouped =
      transform::regroup_layouts(original);
  for (const auto& a : regrouped.actions) std::cout << "  - " << a << "\n";

  bool identical = true;
  for (const machine::MachineModel& machine :
       {bench::exemplar(), bench::o2k()}) {
    const auto before = model::measure(original, machine);
    const auto after = model::measure(regrouped.program, machine);
    TextTable t("Simulated " + machine.name);
    t.set_header({"version", "mem bytes", "predicted ms", "checksum"});
    t.add_row({"six separate arrays",
               std::to_string(before.profile.memory_bytes()),
               fmt_fixed(before.time.total_s * 1e3, 2),
               fmt_fixed(before.exec.checksum, 3)});
    t.add_row({"regroup-arrays (interleaved)",
               std::to_string(after.profile.memory_bytes()),
               fmt_fixed(after.time.total_s * 1e3, 2),
               fmt_fixed(after.exec.checksum, 3)});
    std::cout << "\n" << t.render();
    const double bytes_ratio =
        static_cast<double>(before.profile.memory_bytes()) /
        static_cast<double>(after.profile.memory_bytes());
    std::cout << "original / regrouped: memory bytes "
              << fmt_fixed(bytes_ratio, 2) << "x, predicted time "
              << fmt_fixed(before.time.total_s / after.time.total_s, 2)
              << "x\n";
    identical = identical && before.exec.checksum == after.exec.checksum;
  }

  std::cout << "\nOn the direct-mapped Exemplar, regrouping collapses six "
               "page-aligned streams into\ntwo and removes the page "
               "collisions -- the fix for the Figure 3 footnote's 3w6r\n"
               "pathology. On the 2-way Origin2000 memory traffic stays about "
               "even; the time\ngain comes from the scaled 2 KB L1, whose "
               "aligned-stream conflicts regrouping\nremoves too.\n";
  if (!identical) {
    std::cout << "FAIL: regrouping changed the checksum\n";
    return 1;
  }
  return 0;
}
