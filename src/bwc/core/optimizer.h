// core::optimize -- the paper's compiler strategy as one entry point, a
// thin wrapper over the bwc::pass pipeline machinery.
//
// The pipeline is data: OptimizerOptions::passes is a PipelineSpec string
// and the only way to choose passes. It defaults to kDefaultPipeline --
// bandwidth-minimal loop fusion organizes the global computation to
// minimize total memory transfer (paper Section 3), storage reduction
// shrinks localized arrays, store elimination removes writebacks to
// arrays whose uses complete inside the fused loop. Interchange, shifted
// fusion, scalar replacement and the layout passes are opt-in by naming
// them ("interchange,fuse(solver=exact,shift=1),reduce-storage"); the
// empty string is the empty pipeline. See docs/PIPELINE.md for the
// grammar, the pass catalogue, and the PassReport/remark schema. Per-pass
// facts (timing, IR deltas, predicted traffic deltas, verifier outcomes,
// machine-readable remarks) live in OptimizeResult::pipeline; the
// human-readable log lines are derived from it by log_lines()/render_log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bwc/fusion/fusion_graph.h"
#include "bwc/ir/program.h"
#include "bwc/pass/pass.h"
#include "bwc/pass/pipeline_spec.h"
#include "bwc/pass/report.h"

namespace bwc::core {

/// The paper's pipeline: what optimize() runs unless told otherwise.
inline constexpr const char* kDefaultPipeline =
    "fuse(solver=best),reduce-storage,eliminate-stores";

struct OptimizerOptions {
  /// The pipeline spec to run ("fuse(solver=exact),reduce-storage", see
  /// docs/PIPELINE.md), exactly as given: "" is the empty pipeline.
  std::string passes = kDefaultPipeline;
  /// Re-check every pass's output with the independent verifier
  /// (bwc::verify): structural validation throughout, translation
  /// validation for the scheduling passes (interchange, fusion),
  /// observability certification for the storage passes. A violation
  /// raises bwc::Error carrying the verifier's diagnostics.
  bool verify = true;
  /// Per-program event budget for the instance-level checks; programs
  /// whose traces would exceed it degrade to structural validation only.
  std::uint64_t verify_max_events = 2'000'000;
  /// Static-prover-first checking (pass::StaticVerifyMode): kOn consults
  /// the input-independent legality provers before replaying traces and
  /// skips the replay on a proof; kOff is trace-only; kOnly never replays
  /// (a static refutation fails, an unknown is reported as skipped).
  pass::StaticVerifyMode static_verify = pass::StaticVerifyMode::kOn;
  /// Serve repeated analysis queries (statement summaries, liveness,
  /// fusion graph, traffic bounds) from the pass::AnalysisManager cache.
  /// Off recomputes every query; results are identical either way.
  bool cache_analyses = true;
  /// Fingerprint every cache entry against the IR it was computed from
  /// and raise bwc::Error on a hit whose program has since changed -- a
  /// pass mutated the IR without declaring the invalidation. Debugging
  /// aid (bwcopt --audit-analyses); costs one ir::to_string per query.
  bool audit_analyses = false;
  /// When set, called with each pass and the program state after it ran
  /// (bwcopt --print-after-all).
  std::function<void(const pass::Pass&, const ir::Program&)> print_after;
  /// Core count the optimized program is intended to run at. The passes
  /// themselves are core-count independent (they minimize total shared
  /// traffic, which is what binds at scale -- docs/MODEL.md section 7);
  /// the value is recorded in the log and threaded to measurement by
  /// callers such as bwcopt --cores.
  int cores = 1;
};

struct OptimizeResult {
  ir::Program program;
  /// Plan actually applied (empty assignment when fusion was skipped).
  fusion::FusionPlan plan;
  /// Structured per-pass reports: remarks, timing, IR and predicted
  /// memory-traffic deltas, verifier outcomes, analysis-cache counters.
  pass::PipelineReport pipeline;
  /// Core count the run targeted (OptimizerOptions::cores).
  int cores = 1;

  /// The human-readable log: the multicore prelude line (cores > 1)
  /// followed by each pass's legacy lines, byte-identical to the old
  /// free-form `log` vector.
  std::vector<std::string> log_lines() const;
};

/// Run the bandwidth-reduction pipeline on a program.
OptimizeResult optimize(const ir::Program& program,
                        const OptimizerOptions& options = {});

/// Render the log as a bulleted block.
std::string render_log(const OptimizeResult& result);

}  // namespace bwc::core
