// bwcd serving throughput over loopback: cold requests (every one a
// distinct program, full pipeline + measurement each) vs cache hits
// (one request repeated, served from the content-addressed compile
// cache without re-running the pipeline).
//
// The gap between the two rates is what the compile cache buys an
// interactive client; the smoke floors pin that the daemon keeps
// serving at sane rates and that the cache actually short-circuits the
// pipeline (hit rate strictly above cold rate, hit responses
// bit-identical to their cold originals).
//
//   server_throughput [--smoke] [--json]
//
// --smoke uses smaller counts and exits non-zero when a floor is
// violated -- CI runs this mode. --json emits one metrics object for
// tools/check_bench_regression.py. Numbers are recorded in
// EXPERIMENTS.md.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/ir/printer.h"
#include "bwc/server/client.h"
#include "bwc/server/daemon.h"
#include "bwc/server/protocol.h"
#include "bwc/workloads/paper_programs.h"

namespace {

using namespace bwc;

// Floors for --smoke, far under measured rates (hits serve in ~0.2 ms,
// cold in ~2 ms on an idle host) so only a real serving regression --
// not scheduler noise -- trips them.
constexpr double kHitRpsFloor = 300.0;
constexpr double kColdRpsFloor = 40.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

server::Request optimize_request(std::int64_t n) {
  server::Request r;
  r.op = server::Request::Op::kOptimize;
  r.program = ir::to_string(workloads::fig7_original(n));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, {"--smoke", "--json"});
  const bool smoke = flags.has("--smoke");
  const bool json = flags.has("--json");

  const int cold_requests = smoke ? 40 : 200;
  const int hit_requests = smoke ? 200 : 1000;

  char cache_dir[128];
  std::snprintf(cache_dir, sizeof cache_dir,
                "/tmp/bwc-server-bench-cache-%d", static_cast<int>(::getpid()));
  std::system((std::string("rm -rf ") + cache_dir).c_str());

  server::DaemonOptions options;
  options.threads = 4;
  options.queue_max = 256;
  options.service.cache_dir = cache_dir;
  server::Daemon daemon(options);
  daemon.start();
  server::Client client("127.0.0.1", daemon.port());

  // ---- cold: every request a distinct program, full pipeline each ----
  std::vector<server::Request> cold_pool;
  cold_pool.reserve(cold_requests);
  for (int i = 0; i < cold_requests; ++i)
    cold_pool.push_back(optimize_request(1000 + i));

  int failures = 0;
  const double cold_t0 = now_s();
  for (const server::Request& request : cold_pool) {
    const server::Response response = client.call(request);
    if (response.status != "ok" || response.cache_hit) ++failures;
  }
  const double cold_s = now_s() - cold_t0;
  const double rps_cold = cold_requests / cold_s;

  // ---- hit: one request repeated, served from the compile cache ----
  const server::Request repeated = cold_pool.front();
  const server::Response reference = client.call(repeated);
  if (reference.status != "ok" || !reference.cache_hit) ++failures;
  const double hit_t0 = now_s();
  for (int i = 0; i < hit_requests; ++i) {
    const server::Response response = client.call(repeated);
    if (response.status != "ok" || !response.cache_hit ||
        response.result_json != reference.result_json)
      ++failures;
  }
  const double hit_s = now_s() - hit_t0;
  const double rps_hit = hit_requests / hit_s;

  const server::Service::Stats stats = daemon.service().stats();
  const double hit_over_cold = rps_hit / rps_cold;
  daemon.stop();
  std::system((std::string("rm -rf ") + cache_dir).c_str());

  if (json) {
    std::printf(
        "{\"bench\": \"server_throughput\", \"rps_cold\": %.1f, "
        "\"rps_hit\": %.1f, \"hit_over_cold\": %.3f}\n",
        rps_cold, rps_hit, hit_over_cold);
  } else {
    bench::print_header("bwcd serving throughput over loopback" +
                        std::string(smoke ? " (smoke)" : ""));
    std::printf("%-22s %10s %12s\n", "phase", "requests", "req/s");
    std::printf("%-22s %10d %12.1f\n", "cold (unique programs)",
                cold_requests, rps_cold);
    std::printf("%-22s %10d %12.1f\n", "cache hit (repeated)", hit_requests,
                rps_hit);
    std::printf("\ncache: %llu hits / %llu misses, pipeline runs %llu; "
                "hit/cold rate ratio %.1fx\n",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(stats.pipeline_runs),
                hit_over_cold);
  }

  if (failures > 0) {
    std::printf("FAIL: %d responses wrong (status/cache/bit-identity)\n",
                failures);
    return 1;
  }
  // The cache must short-circuit the pipeline: exactly one run per
  // distinct program, none for the repeats.
  if (stats.pipeline_runs != static_cast<std::uint64_t>(cold_requests)) {
    std::printf("FAIL: pipeline ran %llu times for %d distinct programs\n",
                static_cast<unsigned long long>(stats.pipeline_runs),
                cold_requests);
    return 1;
  }
  if (smoke && (rps_hit < kHitRpsFloor || rps_cold < kColdRpsFloor)) {
    std::printf("FAIL: throughput under regression floor "
                "(hit %.1f < %.1f or cold %.1f < %.1f req/s)\n",
                rps_hit, kHitRpsFloor, rps_cold, kColdRpsFloor);
    return 1;
  }
  if (smoke && rps_hit <= rps_cold) {
    std::printf("FAIL: cache hits no faster than cold serving\n");
    return 1;
  }
  return 0;
}
