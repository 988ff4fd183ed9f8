#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "common.h"

namespace perfbench {

namespace {

double counter(const RunResult& run, const std::string& name) {
  const auto it = run.counters.find(name);
  return it == run.counters.end() ? 0.0 : it->second;
}

double timer(const RunResult& run, const std::string& name) {
  const auto it = run.timers.find(name);
  return it == run.timers.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

enum class Which { kAll, kUntraced, kTraced };

/// Wall times of the ops of `kind` ("" for every kind).
std::vector<double> op_ms(const RunResult& run, const std::string& kind,
                          Which which = Which::kAll) {
  std::vector<double> out;
  for (const OpRecord& r : run.ops) {
    if (!kind.empty() && r.kind != kind) continue;
    if (which != Which::kAll && r.traced != (which == Which::kTraced))
      continue;
    out.push_back(r.ms);
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

std::vector<const SpanLog*> logs_of(const RunResult& run) {
  std::vector<const SpanLog*> logs;
  for (const auto& log : run.logs) logs.push_back(log.get());
  return logs;
}

/// Per-op wall time of the native leg (codegen.load + codegen.replay).
std::vector<double> native_op_ms(const RunResult& run) {
  std::map<std::int64_t, double> by_op;
  for (const auto& log : run.logs) {
    for (const Span& s : log->spans()) {
      const std::string name = s.name;
      if (s.op >= 0 && (name == "codegen.load" || name == "codegen.replay"))
        by_op[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::vector<double> out;
  for (const auto& [op, ms] : by_op) out.push_back(ms);
  return out;
}

/// The wall time each op stands for in the timing metrics, in run order.
/// Other tenants of the host's shared cores and caches only ever add time
/// to an op, and they slow the same op on the same code by up to 2x for
/// seconds to minutes (README.md, "Host noise"). So where a run repeats
/// the same deterministic op (`replay`: the same five programs every
/// round), the fastest of its repeats stands for each of them: the
/// estimate that noise which only adds time disturbs least (Chen and
/// Revels, "Robust benchmarking in noisy environments", 2016). An op with
/// an input of its own stands for its own wall time.
std::vector<double> op_cost_ms(const RunResult& run) {
  std::map<std::int64_t, double> fastest;
  for (const OpRecord& r : run.ops) {
    if (r.input < 0) continue;
    const auto [it, added] = fastest.emplace(r.input, r.ms);
    if (!added) it->second = std::min(it->second, r.ms);
  }
  std::vector<double> cost;
  for (const OpRecord& r : run.ops)
    cost.push_back(r.input >= 0 ? fastest[r.input] : r.ms);
  return cost;
}

/// Ops per second of the run clock, not counting refused ops: the median
/// over kSlices consecutive groups of equally many ops (in end order), so
/// a host stall that slows one part of the window does not move it. A
/// repeated op advances the (serial) run clock by its cost.
double ops_per_s(const RunResult& run) {
  constexpr std::size_t kSlices = 7;
  const std::vector<double> cost = op_cost_ms(run);
  std::vector<std::pair<double, bool>> ends;  // end_s, served
  double clock = 0.0;
  for (std::size_t i = 0; i < run.ops.size(); ++i) {
    const OpRecord& r = run.ops[i];
    clock = r.input < 0 ? r.end_s : clock + cost[i] / 1e3;
    ends.emplace_back(clock, !r.refused);
  }
  std::sort(ends.begin(), ends.end());
  const std::size_t n = ends.size() < kSlices ? 1 : kSlices;
  std::vector<double> rates;
  double start = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto at = [&](std::size_t i) {
      return ends.begin() + static_cast<std::ptrdiff_t>(ends.size() * i / n);
    };
    const auto first = at(k);
    const auto last = at(k + 1);
    if (first == last) continue;
    const auto served =
        std::count_if(first, last, [](const auto& e) { return e.second; });
    rates.push_back(
        ratio(static_cast<double>(served), (last - 1)->first - start));
    start = (last - 1)->first;
  }
  return median(rates);
}

/// 90th percentile of op cost over the window. A refused op misses every
/// latency limit: it counts as taking the whole window.
double op_ms_p90(const RunResult& run) {
  const std::vector<double> cost = op_cost_ms(run);
  std::vector<double> ms;
  for (std::size_t i = 0; i < run.ops.size(); ++i)
    ms.push_back(run.ops[i].refused ? run.busy_s * 1e3 : cost[i]);
  return percentile(ms, 0.9);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const RunResult& run) {
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"ops_per_s", ops_per_s(run), "1/s"},
      {"op_ms_p90", op_ms_p90(run), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"traffic_ratio_geomean", geomean(run.traffic_ratios), "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const RunResult& run) {
  const TraceSummary t = summarize(logs_of(run));
  const auto op_spans = t.in_ops.find("op");
  const double traced_ops = op_spans == t.in_ops.end()
                                ? 0.0
                                : static_cast<double>(op_spans->second.count);
  const auto count = [&](const char* name) { return counter(run, name); };
  const auto traced_count = [&](const char* name) {
    const auto it = run.traced_counters.find(name);
    return it == run.traced_counters.end() ? 0.0 : it->second;
  };
  const auto per_op = [&](const char* name) {
    return ratio(t.total_ms(name), traced_ops);
  };
  const auto per_call = [&](const char* name) {
    return ratio(t.total_ms(name), static_cast<double>(t.count(name)));
  };
  const auto untraced_p = [&](const char* kind, double q) {
    return percentile(op_ms(run, kind, Which::kUntraced), q);
  };
  const double opt_ops = count("optimize.ops");
  const double tune_ops = count("tune.ops");

  // Wall time of the ops that replay (optimize on compile, every op on
  // replay), for the simulated-access rate.
  double replay_op_s = 0.0;
  for (const OpRecord& r : run.ops)
    if (r.kind == "optimize" || r.kind == "replay") replay_op_s += r.ms / 1e3;
  const double replay_ms = per_op("runtime.replay");
  const double values_ms = per_op("probe.values");
  const double memsim_s =
      (t.total_ms("runtime.replay") - t.total_ms("probe.values")) / 1e3;
  const double requests = count("server.requests");
  const double rtt_ms = mean(op_ms(run, "", Which::kTraced));
  const double elapsed_ms = ratio(timer(run, "server.elapsed"),
                                  static_cast<double>(
                                      op_ms(run, "", Which::kTraced).size()));
  const bool bwcd = requests > 0.0;

  return {
      {"ir.print_ms", per_op("ir.print"), "ms"},
      {"ir.parse_ms", per_op("ir.parse"), "ms"},
      {"pass.optimize_ms", per_op("pass.optimize"), "ms"},
      {"pass.changed", ratio(count("pass.changed"), opt_ops), "count"},
      {"pass.analysis_hit_ratio",
       ratio(count("pass.analysis_hits"),
             count("pass.analysis_hits") + count("pass.analysis_misses")),
       "ratio"},
      {"verify.ms",
       ratio(t.total_ms("pass.optimize") -
                 t.total_ms("probe.optimize_noverify"),
             traced_ops),
       "ms"},
      {"verify.instances_checked",
       ratio(count("verify.instances_checked"), opt_ops), "count"},
      {"verify.bound_ms", per_op("verify.bound"), "ms"},
      {"verify.refusal_ratio",
       ratio(count("verify.refusals"), count("pass.optimize_calls")),
       "ratio"},
      {"runtime.lower_ms", per_op("runtime.lower"), "ms"},
      {"runtime.replay_ms", replay_ms, "ms"},
      {"runtime.values_ms", values_ms, "ms"},
      {"runtime.replays", ratio(count("runtime.replays"), opt_ops), "count"},
      {"runtime.ff_iterations", ratio(count("runtime.ff_iterations"), opt_ops),
       "count"},
      {"runtime.sim_maccesses_per_s",
       ratio((count("memsim.accesses") + count("codegen.accesses")) / 1e6,
             replay_op_s),
       "Macc/s"},
      {"memsim.ms", replay_ms - values_ms, "ms"},
      {"memsim.accesses", ratio(count("memsim.accesses"), opt_ops), "count"},
      {"memsim.maccesses_per_s",
       ratio(traced_count("memsim.accesses") / 1e6, memsim_s), "Macc/s"},
      {"machine.timing_ms", per_op("machine.timing"), "ms"},
      {"codegen.emit_ms", per_call("codegen.emit"), "ms"},
      {"codegen.compile_ms", per_call("codegen.compile"), "ms"},
      {"codegen.load_ms", per_op("codegen.load"), "ms"},
      {"codegen.replay_ms", per_op("codegen.replay"), "ms"},
      {"codegen.fallbacks", count("codegen.fallbacks"), "count"},
      {"codegen.native_op_ms_p50", percentile(native_op_ms(run), 0.5), "ms"},
      {"tune.ms", per_call("tune.tune"), "ms"},
      {"tune.evaluated", ratio(count("tune.evaluated"), tune_ops), "count"},
      {"tune.infeasible_ratio",
       ratio(count("tune.infeasible"), count("tune.evaluated")), "ratio"},
      {"tune.ms_per_candidate",
       ratio(t.total_ms("tune.tune"), traced_count("tune.evaluated")), "ms"},
      {"tune.op_ms_p50", untraced_p("tune", 0.5), "ms"},
      {"op_ms_p50", untraced_p("", 0.5), "ms"},
      {"server.rtt_ms", bwcd ? rtt_ms : 0.0, "ms"},
      {"server.elapsed_ms", elapsed_ms, "ms"},
      {"server.transport_ms", bwcd ? rtt_ms - elapsed_ms : 0.0, "ms"},
      {"server.handle_hit_ms",
       ratio(timer(run, "server.handle_hit"), count("server.handle_hit")),
       "ms"},
      {"server.handle_miss_ms",
       ratio(timer(run, "server.handle_miss"), count("server.handle_miss")),
       "ms"},
      {"server.cache_get_ms",
       ratio(timer(run, "server.cache_get"), count("server.cache_gets")),
       "ms"},
      {"server.cache_put_ms",
       ratio(timer(run, "server.cache_put"), count("server.cache_puts")),
       "ms"},
      {"server.protocol_ms",
       ratio(timer(run, "server.protocol"), count("server.protocol_calls")),
       "ms"},
      {"server.hit_ratio", ratio(count("server.hits"), requests), "ratio"},
      {"server.pipeline_runs", count("server.pipeline_runs"), "count"},
      {"server.jobs_per_batch",
       ratio(count("server.batched_jobs"), count("server.batches")), "count"},
      {"server.hit_ms_p50", untraced_p("hit", 0.5), "ms"},
      {"server.hit_ms_p90", untraced_p("hit", 0.9), "ms"},
      {"server.miss_ms_p50", untraced_p("miss", 0.5), "ms"},
      {"server.miss_ms_p90", untraced_p("miss", 0.9), "ms"},
      {"trace.coverage", t.coverage, "ratio"},
      {"trace.overhead_ratio",
       ratio(mean(op_ms(run, "", Which::kTraced)),
             mean(op_ms(run, "", Which::kUntraced))) - 1.0,
       "ratio"},
  };
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
