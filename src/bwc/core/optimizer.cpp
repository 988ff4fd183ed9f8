#include "bwc/core/optimizer.h"

#include <sstream>
#include <utility>

#include "bwc/pass/pass_manager.h"
#include "bwc/pass/passes.h"
#include "bwc/support/error.h"

namespace bwc::core {

OptimizeResult optimize(const ir::Program& program,
                        const OptimizerOptions& options) {
  BWC_CHECK(options.cores >= 1, "optimizer target core count must be >= 1");

  const pass::PipelineSpec spec = pass::parse_pipeline_spec(options.passes);

  pass::PipelineOptions pipeline_options;
  pipeline_options.verify = options.verify;
  pipeline_options.verify_max_events = options.verify_max_events;
  pipeline_options.static_verify = options.static_verify;
  pipeline_options.cache_analyses = options.cache_analyses;
  pipeline_options.audit_analyses = options.audit_analyses;
  pipeline_options.print_after = options.print_after;

  pass::PassManager manager(std::move(pipeline_options));
  manager.add(pass::build_pipeline(spec));

  OptimizeResult result;
  result.program = program.clone();
  result.cores = options.cores;
  result.pipeline = manager.run(result.program);

  // The applied fusion plan, for callers inspecting partition structure.
  for (const auto& pass : manager.passes()) {
    if (const auto* fuse = dynamic_cast<const pass::FusePass*>(pass.get()))
      result.plan = fuse->plan();
  }
  return result;
}

std::vector<std::string> OptimizeResult::log_lines() const {
  std::vector<std::string> lines;
  if (cores > 1) {
    lines.push_back("target: " + std::to_string(cores) +
                    " cores (minimizing shared-bus traffic)");
  }
  for (auto& line : pipeline.legacy_lines()) lines.push_back(std::move(line));
  return lines;
}

std::string render_log(const OptimizeResult& result) {
  std::ostringstream os;
  for (const auto& line : result.log_lines()) os << "  - " << line << "\n";
  return os.str();
}

}  // namespace bwc::core
