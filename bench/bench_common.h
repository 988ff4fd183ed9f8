// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table or figure of the paper's evaluation.
// The substrate is the simulated memory hierarchy plus the bandwidth-bound
// timing model; absolute numbers differ from the 1999 hardware, but the
// shapes (who wins, by what factor, where crossovers fall) are the claims
// under reproduction. See EXPERIMENTS.md for paper-vs-measured records.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/machine/machine_model.h"
#include "bwc/machine/timing.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/recorder.h"

namespace bwc::bench {

/// Cache scale divisor used throughout: paper-scale working-set/cache
/// ratios at tractable simulation sizes (balance is scale-invariant).
inline constexpr std::uint64_t kCacheScale = 16;

inline machine::MachineModel o2k() {
  return machine::origin2000_r10k().scaled(kCacheScale);
}
inline machine::MachineModel exemplar() {
  return machine::exemplar_pa8000().scaled(kCacheScale);
}

/// Run `workload(rec)` to steady state on the machine's hierarchy: one
/// warm-up pass, then one measured pass. Returns the measured profile.
///
/// The warm-up pass only has to leave the hierarchy in the exact state a
/// full pass would, so it runs with the online steady-state fast-forward
/// detector attached (memsim/fastforward.h): periodic spans of the access
/// stream are absorbed and folded in analytically, which cuts warm-up
/// simulation cost without changing the warmed state or the measured pass
/// by a byte. Machines whose hierarchies are not translation-invariant
/// (page randomization) warm up by full simulation automatically.
///
/// Counter hygiene (regression-tested in tests/runtime_test.cpp): the
/// warm-up pass uses its own Recorder whose scope ends -- settling the
/// detector and flushing any coalesced run into the hierarchy -- before
/// reset_stats() clears the boundary counters; the measured pass then
/// starts from a *fresh* Recorder, so warm-up flops and access counts
/// never leak into the profile while the cache contents stay warm.
template <typename Fn>
machine::ExecutionProfile steady_state_profile(
    const machine::MachineModel& machine, Fn&& workload) {
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  {
    runtime::Recorder warmup(&h, /*coalesce=*/true,
                             /*warmup_fast_forward=*/true);
    workload(warmup);
  }
  h.reset_stats();
  runtime::Recorder rec(&h, /*coalesce=*/true);
  workload(rec);
  return rec.profile();
}

/// Single cold pass (for programs that run once, like the paper examples).
/// Coalescing is byte-exact (see recorder.h), so the fast path is on.
template <typename Fn>
machine::ExecutionProfile cold_profile(const machine::MachineModel& machine,
                                       Fn&& workload) {
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  runtime::Recorder rec(&h, /*coalesce=*/true);
  workload(rec);
  return rec.profile();
}

/// Cold-cache profile of an IR program, replayed by the compiled engine
/// (slot-resolved bytecode + coalesced cache access; see docs/runtime.md).
inline machine::ExecutionProfile program_cold_profile(
    const machine::MachineModel& machine, const ir::Program& program) {
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  runtime::ExecOptions opts;
  opts.hierarchy = &h;
  return runtime::execute_compiled(program, opts).profile;
}

/// Steady-state profile of an IR program: lower once, warm the hierarchy
/// with one pass, measure the second.
inline machine::ExecutionProfile program_steady_profile(
    const machine::MachineModel& machine, const ir::Program& program) {
  const runtime::LoweredProgram lowered = runtime::lower(program);
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  runtime::ExecOptions opts;
  opts.hierarchy = &h;
  runtime::execute_lowered(lowered, opts);
  h.reset_stats();
  return runtime::execute_lowered(lowered, opts).profile;
}

/// The boolean flags a bench binary was run with (see parse_flags).
struct Flags {
  std::vector<std::string> given;
  bool has(const std::string& flag) const {
    return std::find(given.begin(), given.end(), flag) != given.end();
  }
};

/// Parse a bench binary's command line: every argument must be one of
/// `known`. Anything else prints a usage line to stderr and exits with
/// status 2, so a mistyped flag (`--smok`) fails instead of silently
/// running the full-size bench.
inline Flags parse_flags(int argc, char** argv,
                         std::initializer_list<const char*> known) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    bool ok = false;
    for (const char* k : known) ok = ok || argv[i] == std::string(k);
    if (!ok) {
      std::string usage;
      for (const char* k : known) usage += std::string(" [") + k + "]";
      std::fprintf(stderr, "%s: unknown flag '%s'\nusage: %s%s\n", argv[0],
                   argv[i], argv[0], usage.c_str());
      std::exit(2);
    }
    flags.given.emplace_back(argv[i]);
  }
  return flags;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bwc::bench
