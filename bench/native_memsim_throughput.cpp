// Memory-hierarchy simulation throughput: accesses/sec of the simulator
// under the access patterns replay actually issues.
//
// Every replayed access funnels through MemoryHierarchy: L1 hits finish
// on the inline CacheLevel::try_hit path, everything else takes the
// out-of-line miss path (tag probe, LRU update, fills and writebacks into
// the next level), so these costs bound all non-fast-forwarded
// simulation. Six configurations:
//   - o2k elementwise: modulo-indexed set lookup, stride-1 doubles
//     (three of four accesses hit L1)
//   - o2k coalesced: line-granular load_run/store_run (the recorder's
//     coalesced fast path -- fewer, wider accesses for the same bytes)
//   - o2k interleaved runs: three interleaved stride-1 streams, every
//     access a one-element load_run/store_run -- what the recorder emits
//     when streams interleave and no run can grow
//   - o2k column walk: stride-3200 B column sweeps of two matrices, every
//     access an L1 miss (the miss path: fill, eviction, writeback)
//   - exemplar elementwise: page-randomized indexing (hashed page frames,
//     memoized per page)
//   - o2k random: uniform random addresses, the set-conflict-heavy worst
//     case for the LRU update
//
//   native_memsim_throughput [--smoke] [--json]
//
// --smoke shrinks the access count and exits non-zero if elementwise
// throughput falls below an absolute floor -- CI runs this mode; the
// finer-grained 20%-regression gate runs against BENCH_baseline.json via
// tools/check_bench_regression.py. --json emits one JSON object of
// metrics. An unknown flag exits 2. Numbers are recorded in EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/support/prng.h"

namespace {

using namespace bwc;

// Absolute floor for --smoke, in accesses/sec on the gated (elementwise)
// configurations. Measured throughput is an order of magnitude above this
// on commodity hosts; the floor only catches catastrophic regressions in
// the hot loop (an accidental allocation or O(assoc^2) scan), not noise.
constexpr double kAccessesPerSecFloor = 5e6;

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

/// Elementwise 1w2r stride-1 stream: two loaded arrays, one written back,
/// the access mix the compiled engine issues without coalescing.
std::uint64_t stream_elementwise(memsim::MemoryHierarchy& h,
                                 std::uint64_t n) {
  const std::uint64_t a = 1u << 24;
  const std::uint64_t b = 2u << 24;
  for (std::uint64_t i = 0; i < n; ++i) {
    h.load(a + 8 * i, 8);
    h.load(b + 8 * i, 8);
    h.store(a + 8 * i, 8);
  }
  return 3 * n;
}

/// The same stream as line-granular runs (what Recorder::flush issues
/// after coalescing): one call per array per line's worth of elements.
std::uint64_t stream_runs(memsim::MemoryHierarchy& h, std::uint64_t n) {
  const std::uint64_t a = 1u << 24;
  const std::uint64_t b = 2u << 24;
  const std::uint64_t per_run = 512;  // elements per flushed run
  for (std::uint64_t i = 0; i < n; i += per_run) {
    const std::uint64_t len = std::min(per_run, n - i);
    h.load_run(a + 8 * i, 8, len);
    h.load_run(b + 8 * i, 8, len);
    h.store_run(a + 8 * i, 8, len);
  }
  return 3 * n;
}

/// Three interleaved stride-1 streams (c[i] = a[i] + b[i]) issued as the
/// recorder flushes them when the streams interleave: each access breaks
/// the previous run, so every run holds one element. The arrays start
/// 352 B apart modulo the cache sizes, as separately allocated arrays
/// usually do, so the three streams use different sets (three streams in
/// one set of the 2-way L1 would miss on every access).
std::uint64_t stream_interleaved_runs(memsim::MemoryHierarchy& h,
                                      std::uint64_t n) {
  const std::uint64_t a = 1u << 24;
  const std::uint64_t b = (2u << 24) + 352;
  const std::uint64_t c = (3u << 24) + 704;
  for (std::uint64_t i = 0; i < n; ++i) {
    h.load_run(a + 8 * i, 8, 1);
    h.load_run(b + 8 * i, 8, 1);
    h.store_run(c + 8 * i, 8, 1);
  }
  return 3 * n;
}

/// Column sweeps of two 400 x 400 row-major double matrices (rows of
/// 3200 B), b[i][j] = a[i][j]: consecutive accesses are 3200 B apart, so
/// each one misses the scaled L1 and exercises the fill, eviction and
/// writeback path.
std::uint64_t stream_column_walk(memsim::MemoryHierarchy& h,
                                 std::uint64_t n) {
  const std::uint64_t a = 1u << 24;
  const std::uint64_t b = 2u << 24;
  const std::uint64_t rows = 400;
  const std::uint64_t row_bytes = 3200;
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t col = (k / rows) % rows;
    const std::uint64_t offset = (k % rows) * row_bytes + 8 * col;
    h.load(a + offset, 8);
    h.store(b + offset, 8);
  }
  return 2 * n;
}

/// Uniform random doubles over a span several times the largest cache:
/// near-100% miss, maximal LRU churn.
std::uint64_t stream_random(memsim::MemoryHierarchy& h, std::uint64_t n) {
  Prng rng(42);
  // Element span whose byte footprint is 8x the total cache capacity.
  const std::uint64_t span_elems = h.total_capacity_bytes();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t addr = (1u << 24) + 8 * rng.uniform(span_elems);
    if ((i & 3) == 0) {
      h.store(addr, 8);
    } else {
      h.load(addr, 8);
    }
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, {"--smoke", "--json"});
  const bool smoke = flags.has("--smoke");
  const bool json = flags.has("--json");

  const std::uint64_t n = smoke ? 2000000 : 8000000;  // iterations
  const int reps = smoke ? 2 : 3;

  if (!json) {
    bench::print_header("Memory-hierarchy simulation throughput" +
                        std::string(smoke ? " (smoke)" : ""));
    std::printf("%-26s %14s %14s\n", "config", "accesses/s", "sim calls/s");
  }

  bool ok = true;
  std::vector<std::pair<std::string, double>> metrics;
  const auto bench_one = [&](const char* name, const char* key,
                             const machine::MachineModel& machine,
                             std::uint64_t (*stream)(memsim::MemoryHierarchy&,
                                                     std::uint64_t),
                             bool gate) {
    // One warm pass outside the timer: measure steady-state probe cost,
    // not first-touch allocation of the tag arrays.
    memsim::MemoryHierarchy h = machine.make_hierarchy();
    const double accesses = static_cast<double>(stream(h, n));
    const double secs = seconds_of([&] { stream(h, n); }, reps);
    // For the runs config the simulator-call count is per line, not per
    // element; report accesses/sec in element terms either way so the
    // configurations are comparable byte-for-byte.
    const double aps = accesses / secs;
    if (!json) std::printf("%-26s %14.3e %14.3e\n", name, aps, aps);
    metrics.emplace_back(key, aps);
    if (gate && aps < kAccessesPerSecFloor) ok = false;
  };

  bench_one("o2k elementwise", "o2k_elementwise_aps", bench::o2k(),
            stream_elementwise, /*gate=*/true);
  bench_one("o2k coalesced runs", "o2k_runs_aps", bench::o2k(), stream_runs,
            /*gate=*/false);
  bench_one("o2k interleaved runs", "o2k_interleaved_runs_aps", bench::o2k(),
            stream_interleaved_runs, /*gate=*/false);
  bench_one("o2k column walk", "o2k_column_walk_aps", bench::o2k(),
            stream_column_walk, /*gate=*/false);
  bench_one("exemplar elementwise", "exemplar_elementwise_aps",
            bench::exemplar(), stream_elementwise, /*gate=*/true);
  bench_one("o2k random", "o2k_random_aps", bench::o2k(), stream_random,
            /*gate=*/false);

  if (json) {
    std::printf("{\"bench\": \"native_memsim_throughput\"");
    for (const auto& [key, value] : metrics)
      std::printf(", \"%s\": %.3e", key.c_str(), value);
    std::printf("}\n");
  } else if (!ok) {
    std::printf("\nFAIL: gated throughput below floor %.1e accesses/s\n",
                kAccessesPerSecFloor);
  }
  return ok ? 0 : 1;
}
