// Determinism self-test of the benchmark: every workload run twice, tiny,
// with the same seed (once untraced, once traced) must repeat its op
// kinds, checksums and byte counts, traffic ratios and deterministic
// counters exactly, pass every check, and a different seed must change
// the program draw. Exit 0 when all hold.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

Config tiny(Workload workload, std::uint64_t seed, bool traced) {
  Config c;
  c.workload = workload;
  c.seed = seed;
  c.traced = traced;
  c.tiny = true;
  c.setup_reps = 1;
  c.max_ops = workload == Workload::kReplay ? 5 : 24;
  c.scratch_root = "selftest-scratch";
  return c;
}

std::vector<std::string> kinds(const RunResult& r) {
  std::vector<std::string> out;
  for (const OpRecord& op : r.ops) out.emplace_back(op.kind);
  return out;
}

double counter(const RunResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : it->second;
}

}  // namespace

int main() {
  const char* deterministic[] = {
      "optimize.ops",     "pass.changed",    "verify.instances_checked",
      "runtime.replays",  "memsim.accesses", "runtime.ff_iterations",
      "codegen.accesses", "tune.ops",        "tune.evaluated",
      "tune.infeasible",  "server.requests", "server.hits",
      "server.pipeline_runs"};
  for (Workload w : {Workload::kCompile, Workload::kReplay, Workload::kBwcd}) {
    const std::string name = workload_name(w);
    const RunResult a = run_workload(tiny(w, 7, false));
    const RunResult b = run_workload(tiny(w, 7, true));
    expect(a.failed == 0 && b.failed == 0, name + ": every check passes");
    expect(!a.ops.empty(), name + ": ops ran");
    expect(kinds(a) == kinds(b), name + ": same op kinds");
    expect(a.fingerprint == b.fingerprint,
           name + ": same checksums and byte counts");
    expect(!a.traffic_ratios.empty() && a.traffic_ratios == b.traffic_ratios,
           name + ": same traffic ratios");
    expect(geomean(a.traffic_ratios) == geomean(b.traffic_ratios),
           name + ": same traffic_ratio_geomean");
    for (const char* c : deterministic)
      expect(counter(a, c) == counter(b, c), name + ": same " + c);
    expect(a.drawn == b.drawn, name + ": same program draw");
    if (w != Workload::kReplay) {
      const RunResult other = run_workload(tiny(w, 8, false));
      expect(other.drawn != a.drawn, name + ": another seed changes the draw");
    }
    std::printf("%s: %zu ops, %s\n", name.c_str(), a.ops.size(),
                failures == 0 ? "deterministic" : "FAILED");
  }
  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
