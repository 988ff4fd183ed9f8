// The `compile` and `replay` workloads: one serial caller, closed loop.
//
// An op is print -> parse -> core::optimize (default pipeline, verifier
// on) -> lower -> replay original and optimized on the VM against the
// o2k/16 hierarchy -> timing model -> static traffic bound, and on
// `replay` also both sides on the native engine. The checks run after
// the op's clock stops.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "common.h"

#include "bwc/core/optimizer.h"
#include "bwc/ir/parser.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/timing.h"
#include "bwc/runtime/codegen.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/lowering.h"
#include "bwc/support/error.h"
#include "bwc/tune/autotune.h"
#include "bwc/verify/traffic_bound.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"

namespace perfbench {

using namespace bwc;

namespace {

constexpr std::uint64_t kCompileStream = 1;
constexpr std::uint64_t kTuneStream = 2;
constexpr std::uint64_t kReplayStream = 3;
constexpr std::uint64_t kWarmStream = 4;
/// The traffic-ratio geomean of `compile` is the geomean over categories
/// of each category's geomean over its first this-many optimize ops: it
/// neither depends on the category mix nor on how many ops fit the window.
constexpr std::size_t kRatiosPerCategory = 200;
/// Warm-up ops per set-up repetition of `compile` (every category ten
/// times, five of them tune ops): enough work that setup_s is not at the
/// mercy of one slow op.
constexpr int kWarmOps = 100;
constexpr std::size_t kDrawnKept = 16;

/// The native leg of a `replay` op: both sides' compiled workloads were
/// built in set-up, so the op's compile_workload() is a warm cache load.
struct NativeLeg {
  runtime::NativeOptions options;
  bool available = true;
};

/// core::optimize raises this when the inter-pass verifier rejects a
/// pass's output instead of returning an unverified program.
bool is_verifier_refusal(const std::string& what) {
  return what.rfind("verification failed", 0) == 0;
}

/// Wall time of a call, traced or not.
template <class F>
double timed_ms(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// What an op reports to its caller.
struct Outcome {
  std::string failure;  ///< "" when every check passed
  double wall_ms = 0.0;
  /// Optimized / original memory bytes of an optimize op (1 when
  /// refused); 0 when not measured.
  double traffic_ratio = 0.0;
  bool refused = false;  ///< the verifier refused the pipeline
};

class Runner {
 public:
  Runner(RunResult& out, SpanLog& log)
      : out_(out), log_(log), machine_(bench_machine()) {}

  /// One optimize-and-measure op. `reference` is the reference
  /// interpreter's checksum of `drawn`.
  Outcome optimize_op(std::int64_t op, const ir::Program& drawn,
                      double reference, const NativeLeg* native);

  /// One tune op: budget small, 2 threads, search seed 0 (the bwcopt and
  /// bwcd default). A fixed search seed keeps the tuner's peak memory a
  /// function of the program, not of a random search path.
  Outcome tune_op(std::int64_t op, const ir::Program& drawn,
                  double reference);

 private:
  /// Lower and replay on the VM against the benchmark machine's
  /// hierarchy: the benchmark's own measurement, off the clock.
  runtime::ExecResult measure_vm(const ir::Program& program) const {
    memsim::MemoryHierarchy h = machine_.make_hierarchy();
    runtime::ExecOptions opts;
    opts.hierarchy = &h;
    return runtime::execute_lowered(runtime::lower(program), opts);
  }

  void count(const char* name, double v) {
    out_.counters[name] += v;
    if (log_.enabled()) out_.traced_counters[name] += v;
  }

  RunResult& out_;
  SpanLog& log_;
  const machine::MachineModel machine_;
};

Outcome Runner::optimize_op(std::int64_t op, const ir::Program& drawn,
                            double reference, const NativeLeg* native) {
  SpanLog& log = log_;
  std::optional<ir::Program> program;
  std::optional<core::OptimizeResult> result;
  runtime::LoweredProgram lowered[2];
  runtime::ExecResult vm[2];
  runtime::ExecResult nat[2];
  verify::TrafficBound bound[2];
  std::uint64_t fallbacks = 0;

  Outcome o;
  bool& refused = o.refused;
  const std::int64_t t0 = now_ns();
  [&] {
    Scope root(log, native != nullptr ? "op.replay" : "op.optimize", op);
    const std::string text =
        layer(log, "ir.print", op, [&] { return ir::to_string(drawn); });
    layer(log, "ir.parse", op,
          [&] { program.emplace(ir::parse_program(text)); });
    layer(log, "pass.optimize", op, [&] {
      try {
        result.emplace(core::optimize(*program));
      } catch (const Error& e) {
        if (!is_verifier_refusal(e.what())) throw;
        refused = true;
      }
    });
    // A refused pipeline leaves the caller with the original program: the
    // op goes on and measures that as the served side, so a refusal costs
    // a full op and counts as a traffic ratio of 1.
    const ir::Program* sides[2] = {&*program,
                                   refused ? &*program : &result->program};
    layer(log, "runtime.lower", op, [&] {
      for (int s = 0; s < 2; ++s) lowered[s] = runtime::lower(*sides[s]);
    });
    layer(log, "runtime.replay", op, [&] {
      for (int s = 0; s < 2; ++s) {
        memsim::MemoryHierarchy h = machine_.make_hierarchy();
        runtime::ExecOptions opts;
        opts.hierarchy = &h;
        vm[s] = runtime::execute_lowered(lowered[s], opts);
      }
    });
    layer(log, "machine.timing", op, [&] {
      for (int s = 0; s < 2; ++s) machine::predict_time(vm[s].profile, machine_);
    });
    layer(log, "verify.bound", op, [&] {
      for (int s = 0; s < 2; ++s)
        bound[s] = verify::compute_traffic_bound(*sides[s]);
    });
    if (native != nullptr) {
      std::optional<runtime::CompiledWorkload> compiled[2];
      layer(log, "codegen.load", op, [&] {
        if (!native->available) return;
        for (int s = 0; s < 2; ++s)
          compiled[s].emplace(
              runtime::compile_workload(lowered[s], native->options));
      });
      layer(log, "codegen.replay", op, [&] {
        for (int s = 0; s < 2; ++s) {
          memsim::MemoryHierarchy h = machine_.make_hierarchy();
          runtime::ExecOptions opts;
          opts.hierarchy = &h;
          if (compiled[s]) {
            nat[s] = runtime::execute_lowered_native(lowered[s], opts,
                                                     *compiled[s]);
          } else {
            ++fallbacks;
            nat[s] = runtime::execute_lowered(lowered[s], opts);
          }
        }
      });
    }
  }();
  o.wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
  count("pass.optimize_calls", 1);
  if (refused) {
    // The verifier rejected a pass's output and core::optimize raised it,
    // as the pipeline contract says.
    count("verify.refusals", 1);
    out_.fingerprint.push_back(-1.0);
  }

  if (log.enabled()) {
    // Off-the-clock probes: the same optimize with the verifier off
    // (verify.ms is the difference) and a values-only replay without a
    // hierarchy (memsim.ms is runtime.replay minus this).
    layer(log, "probe.optimize_noverify", op, [&] {
      core::OptimizerOptions opts;
      opts.verify = false;
      core::optimize(*program, opts);
    });
    layer(log, "probe.values", op, [&] {
      for (int s = 0; s < 2; ++s) runtime::execute_lowered(lowered[s], {});
    });
  }

  if (result) {
    for (const pass::PassReport& p : result->pipeline.passes) {
      if (p.changed) count("pass.changed", 1);
      count("verify.instances_checked",
            static_cast<double>(p.verify.instances_checked));
    }
    count("pass.analysis_hits",
          static_cast<double>(result->pipeline.analysis.hits));
    count("pass.analysis_misses",
          static_cast<double>(result->pipeline.analysis.misses));
  }
  count("optimize.ops", 1);
  for (int s = 0; s < 2; ++s) {
    count("runtime.replays", 1);
    count("runtime.ff_iterations",
          static_cast<double>(vm[s].fast_forwarded_iterations));
    count("memsim.accesses", static_cast<double>(vm[s].loads + vm[s].stores));
    if (native != nullptr) {
      count("codegen.replays", 1);
      count("codegen.accesses",
            static_cast<double>(nat[s].loads + nat[s].stores));
    }
  }
  count("codegen.fallbacks", static_cast<double>(fallbacks));

  const std::uint64_t before = vm[0].profile.memory_bytes();
  const std::uint64_t after = vm[1].profile.memory_bytes();
  out_.fingerprint.push_back(vm[1].checksum);
  out_.fingerprint.push_back(static_cast<double>(before));
  out_.fingerprint.push_back(static_cast<double>(after));
  o.traffic_ratio =
      before > 0 && after > 0
          ? static_cast<double>(after) / static_cast<double>(before)
          : 0.0;

  // The oracle: the reference interpreter's checksum of the drawn
  // program, which no pass under test touched.
  const char* side_name[2] = {"original", refused ? "served" : "optimized"};
  o.failure = [&]() -> std::string {
    for (int s = 0; s < 2; ++s) {
      if (!matches_reference(vm[s].checksum, reference))
        return std::string(side_name[s]) + " VM checksum differs from the " +
               "reference interpreter";
      if (bound[s].lower_bound_bytes < 0 ||
          static_cast<std::uint64_t>(bound[s].lower_bound_bytes) >
              vm[s].profile.memory_bytes())
        return std::string(side_name[s]) +
               " static traffic bound exceeds measured bytes";
      if (native != nullptr) {
        const std::string diff = bitwise_difference(vm[s], nat[s]);
        if (!diff.empty())
          return std::string(side_name[s]) + " native differs from VM: " +
                 diff;
      }
    }
    return "";
  }();
  return o;
}

Outcome Runner::tune_op(std::int64_t op, const ir::Program& drawn,
                        double reference) {
  SpanLog& log = log_;
  Outcome o;
  std::optional<tune::TuneResult> result;
  const std::int64_t t0 = now_ns();
  {
    Scope root(log, "op.tune", op);
    const std::string text =
        layer(log, "ir.print", op, [&] { return ir::to_string(drawn); });
    std::optional<ir::Program> program;
    layer(log, "ir.parse", op,
          [&] { program.emplace(ir::parse_program(text)); });
    layer(log, "tune.tune", op, [&] {
      tune::TuneOptions opts;
      opts.budget = tune::parse_budget("small");
      opts.threads = 2;
      opts.machine = machine_;
      try {
        result.emplace(tune::tune(*program, opts));
      } catch (const Error& e) {
        // The tuner measures the default pipeline, which raises the
        // verifier's refusal the same way core::optimize does.
        if (!is_verifier_refusal(e.what())) throw;
      }
    });
  }
  o.wall_ms = static_cast<double>(now_ns() - t0) / 1e6;

  count("tune.ops", 1);
  count("pass.optimize_calls", 1);
  if (!result) {
    count("verify.refusals", 1);
    out_.fingerprint.push_back(-1.0);
    o.refused = true;
    return o;
  }
  count("tune.evaluated", result->evaluated);
  count("tune.infeasible", result->infeasible);
  out_.fingerprint.push_back(static_cast<double>(result->winner_measured_bytes));
  out_.fingerprint.push_back(
      static_cast<double>(result->default_measured_bytes));

  // The oracle, off the clock: rebuild the winner and the default
  // pipeline's output from the drawn program and measure both here, not
  // with the tuner's numbers.
  core::OptimizerOptions winner_opts;
  winner_opts.passes = result->winner_spec;
  std::optional<core::OptimizeResult> rebuilt;
  if (!result->winner_spec.empty())
    rebuilt.emplace(core::optimize(drawn, winner_opts));
  const runtime::ExecResult winner =
      measure_vm(rebuilt ? rebuilt->program : drawn);
  const runtime::ExecResult by_default =
      measure_vm(core::optimize(drawn).program);
  if (!matches_reference(winner.checksum, reference))
    o.failure = "tune winner's VM checksum differs from the reference";
  else if (static_cast<std::int64_t>(winner.profile.memory_bytes()) !=
           result->winner_measured_bytes)
    o.failure = "tune winner's reported bytes differ from its VM measurement";
  else if (winner.profile.memory_bytes() > by_default.profile.memory_bytes())
    o.failure = "tune winner measures more bytes than the default pipeline";
  return o;
}

void record(RunResult& out, std::string_view kind, const Outcome& o,
            bool traced, std::int64_t input = -1) {
  out.busy_s += o.wall_ms / 1e3;
  out.ops.push_back({kind, o.wall_ms, out.busy_s, traced, o.refused, input});
  if (!o.failure.empty()) {
    ++out.failed;
    std::fprintf(stderr, "bwcbench: op %zu (%s) failed: %s\n",
                 out.ops.size() - 1, std::string(kind).c_str(),
                 o.failure.c_str());
  }
}

bool window_done(const Config& config, std::size_t ops, std::int64_t t0) {
  if (config.max_ops > 0)
    return static_cast<std::int64_t>(ops) >= config.max_ops;
  return static_cast<double>(now_ns() - t0) / 1e9 >= config.seconds;
}

// ---- compile -------------------------------------------------------------

/// Op i of `compile`: which category, and whether it is a tune op (one
/// at a seeded position in every kTunePeriod ops). The share, 1 in 20, is
/// an assumption: no measured or published usage of bwcopt gives the mix
/// of tune and optimize requests (README.md, "Assumed traffic mix").
constexpr int kTunePeriod = 20;

struct CompilePlan {
  int category = 0;
  bool tune = false;
};

CompilePlan compile_plan(std::uint64_t seed, std::int64_t op) {
  const std::int64_t block = op / kSmallCategories;
  const int slot = static_cast<int>(op % kSmallCategories);
  CompilePlan plan;
  plan.category = block_categories(seed, kCompileStream, block)[slot];
  const std::int64_t period = op / kTunePeriod;
  Prng rng = stream(seed, kTuneStream, static_cast<std::uint64_t>(period));
  plan.tune = static_cast<std::int64_t>(rng.uniform(kTunePeriod)) ==
              op % kTunePeriod;
  return plan;
}

/// Runs op `op` of the stream `stream_id`. `ratios[category]` collects
/// the optimize ops' traffic ratios.
Outcome compile_op(Runner& runner, const Config& config,
                   std::uint64_t stream_id, std::int64_t op, RunResult& out,
                   std::vector<std::vector<double>>& ratios) {
  const CompilePlan plan = compile_plan(config.seed ^ stream_id, op);
  Prng rng = stream(config.seed, stream_id, static_cast<std::uint64_t>(op));
  const ir::Program drawn = draw_small(rng, plan.category);
  if (out.drawn.size() < kDrawnKept) out.drawn.push_back(ir::to_string(drawn));
  Outcome o;
  try {
    const double reference = runtime::execute(drawn).checksum;
    if (plan.tune) return runner.tune_op(op, drawn, reference);
    o = runner.optimize_op(op, drawn, reference, nullptr);
  } catch (const std::exception& e) {
    o.failure = std::string("raised: ") + e.what();
  }
  std::vector<double>& mine = ratios[static_cast<std::size_t>(plan.category)];
  if (o.traffic_ratio > 0.0 && mine.size() < kRatiosPerCategory)
    mine.push_back(o.traffic_ratio);
  return o;
}

// ---- replay --------------------------------------------------------------

struct ReplayProgram {
  ir::Program program;
  double reference = 0.0;
};

/// The `replay` set. Sizes are chosen so that every program's op costs
/// about the same (~100-150 ms on a 4-core Xeon VM): one cluster of op
/// times keeps op_ms_p50 from jumping between programs when some ops are
/// slowed by the host.
std::vector<ReplayProgram> replay_programs(bool tiny) {
  const std::int64_t d = tiny ? 10 : 1;
  std::vector<ReplayProgram> set;
  const auto add = [&set](ir::Program p) {
    set.push_back({std::move(p), 0.0});
  };
  add(workloads::transposed_sweep(400 / d));
  add(workloads::adi_like(300 / d));
  add(workloads::fig6_original(400 / d));
  add(workloads::fig7_original(400'000 / (d * d)));
  add(workloads::conflict_streams(98304 / (d * d), 4));
  return set;
}

}  // namespace

RunResult run_compile(const Config& config) {
  RunResult out;
  out.logs.push_back(std::make_unique<SpanLog>(config.traced, 0));
  Runner runner(out, *out.logs[0]);

  // Set-up: the first ops of a process pay one-time costs (allocator
  // growth, lazily built tables); warm-up ops of every category, tune ops
  // included, absorb them before the window.
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    RunResult scratch;
    SpanLog quiet(false, 0);
    Runner warm(scratch, quiet);
    std::vector<std::vector<double>> unused(kSmallCategories);
    std::string failure;
    const double ms = timed_ms([&] {
      for (std::int64_t op = 0; op < kWarmOps; ++op) {
        const Outcome o = compile_op(
            warm, config, kWarmStream + static_cast<std::uint64_t>(rep), op,
            scratch, unused);
        if (failure.empty()) failure = o.failure;
      }
    });
    if (!failure.empty())
      throw std::runtime_error("compile set-up op failed: " + failure);
    out.setup_s.push_back(ms / 1e3);
  }

  std::vector<std::vector<double>> ratios(kSmallCategories);
  SpanLog& log = *out.logs[0];
  const std::int64_t t0 = now_ns();
  for (std::int64_t op = 0; !window_done(config, out.ops.size(), t0); ++op) {
    const bool tune = compile_plan(config.seed ^ kCompileStream, op).tune;
    log.set_enabled(config.traced && op % 2 == 1);
    const Outcome o =
        compile_op(runner, config, kCompileStream, op, out, ratios);
    record(out, tune ? "tune" : "optimize", o, log.enabled());
  }
  for (const std::vector<double>& r : ratios)
    if (!r.empty()) out.traffic_ratios.push_back(geomean(r));
  return out;
}

RunResult run_replay(const Config& config) {
  RunResult out;
  out.logs.push_back(std::make_unique<SpanLog>(config.traced, 0));
  SpanLog& log = *out.logs[0];
  Runner runner(out, log);

  // The oracle's reference checksums, off every clock.
  std::vector<ReplayProgram> set = replay_programs(config.tiny);
  for (ReplayProgram& p : set) p.reference = runtime::execute(p.program).checksum;
  for (std::size_t i = 0; i < kDrawnKept && i < set.size(); ++i)
    out.drawn.push_back(ir::to_string(set[i].program));

  // Set-up: optimize and lower every program and compile both sides
  // natively into a private, cold codegen cache. The last repetition's
  // cache serves the window.
  std::unique_ptr<TempDir> cache;
  NativeLeg native;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    cache = std::make_unique<TempDir>(config.scratch_root, "codegen");
    native.options.cache_dir = cache->path();
    native.available = true;
    const double ms = timed_ms([&] {
      Scope root(log, "setup.replay", -1);
      for (const ReplayProgram& p : set) {
        const core::OptimizeResult opt = core::optimize(p.program);
        const runtime::LoweredProgram lowered[2] = {
            runtime::lower(p.program), runtime::lower(opt.program)};
        for (const runtime::LoweredProgram& lo : lowered) {
          if (log.enabled())
            layer(log, "codegen.emit", -1,
                  [&] { return runtime::emit_c_source(lo); });
          layer(log, "codegen.compile", -1, [&] {
            try {
              runtime::compile_workload(lo, native.options);
            } catch (const std::exception& e) {
              // No usable host compiler: the native leg replays on the VM
              // and every such replay counts as a fallback.
              std::fprintf(stderr, "bwcbench: native engine unavailable: %s\n",
                           e.what());
              native.available = false;
            }
          });
        }
      }
    });
    out.setup_s.push_back(ms / 1e3);
  }

  const std::int64_t t0 = now_ns();
  std::int64_t op = 0;
  for (std::int64_t round = 0;
       config.max_ops > 0 ? op < config.max_ops : !window_done(config, 0, t0);
       ++round) {
    // Whole rounds over a seeded order keep every program's share of the
    // ops equal, so the percentiles do not depend on where the window
    // ends.
    Prng rng = stream(config.seed, kReplayStream,
                      static_cast<std::uint64_t>(round));
    log.set_enabled(config.traced && round % 2 == 1);
    for (int index : permutation(static_cast<int>(set.size()), rng)) {
      if (config.max_ops > 0 && op >= config.max_ops) break;
      const ReplayProgram& p = set[static_cast<std::size_t>(index)];
      Outcome o;
      try {
        o = runner.optimize_op(op, p.program, p.reference, &native);
      } catch (const std::exception& e) {
        o.failure = std::string("raised: ") + e.what();
      }
      if (round == 0 && o.traffic_ratio > 0.0)
        out.traffic_ratios.push_back(o.traffic_ratio);
      record(out, "replay", o, log.enabled(), index);
      ++op;
    }
  }
  return out;
}

RunResult run_workload(const Config& config) {
  switch (config.workload) {
    case Workload::kCompile: return run_compile(config);
    case Workload::kReplay: return run_replay(config);
    case Workload::kBwcd: return run_bwcd(config);
  }
  throw std::logic_error("unknown workload");
}

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "compile") *out = Workload::kCompile;
  else if (name == "replay") *out = Workload::kReplay;
  else if (name == "bwcd") *out = Workload::kBwcd;
  else return false;
  return true;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCompile: return "compile";
    case Workload::kReplay: return "replay";
    case Workload::kBwcd: return "bwcd";
  }
  return "?";
}

}  // namespace perfbench
