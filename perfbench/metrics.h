// Named metrics from a run. README.md in this directory gives every
// metric's unit, direction and the end-to-end metric each layer metric
// should move.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics of an untraced run (the same names on every
/// workload).
std::vector<Metric> end_to_end_metrics(const RunResult& run);

/// The per-layer metrics of a traced run: layer times from the traced
/// ops, latency percentiles from the untraced ops between them, which are
/// also the base of the tracing overhead. A layer a workload does not
/// exercise reads 0.
std::vector<Metric> per_layer_metrics(const RunResult& run);

/// One-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
