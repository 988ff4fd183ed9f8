#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void add(SpanTotals& t, double total, double self) {
  ++t.count;
  t.total_ms += total;
  t.self_ms += self;
}

}  // namespace

double TraceSummary::total_ms(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.total_ms;
}

std::uint64_t TraceSummary::count(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.count;
}

TraceSummary summarize(const std::vector<const SpanLog*>& logs) {
  TraceSummary out;
  double op_wall = 0.0;
  double op_self = 0.0;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    // Parents precede their children, so one pass finds every root.
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<std::size_t> root(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto parent = static_cast<std::size_t>(s.parent);
      root[i] = s.parent < 0 ? i : root[parent];
      if (s.parent >= 0) child_ns[parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double total = ms(s.end_ns - s.start_ns);
      const double self = ms(s.end_ns - s.start_ns - child_ns[i]);
      add(out.by_name[s.name], total, self);
      const bool in_op = layer_of(spans[root[i]].name) == "op";
      add((in_op ? out.in_ops : out.outside_ops)[layer_of(s.name)], total,
          self);
      if (s.parent < 0 && in_op) {
        op_wall += total;
        op_self += self;
      }
    }
  }
  out.coverage = op_wall > 0.0 ? (op_wall - op_self) / op_wall : 0.0;
  return out;
}

std::string chrome_trace_json(const std::vector<const SpanLog*>& logs) {
  std::int64_t t0 = INT64_MAX;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans()) t0 = std::min(t0, s.start_ns);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (const Span& s : spans) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid();
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      os << buf << ",\"args\":{\"op\":" << s.op << ",\"parent\":\""
         << (s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name
                           : "")
         << "\"}}";
    }
  }
  os << "]}\n";
  return os.str();
}

std::string self_time_table(const TraceSummary& summary,
                            const std::string& title) {
  const auto op = summary.in_ops.find("op");
  const double op_wall =
      op == summary.in_ops.end() ? 0.0 : op->second.total_ms;
  std::ostringstream os;
  char line[160];
  const auto rows = [&](const std::map<std::string, SpanTotals>& layers,
                        bool share) {
    std::snprintf(line, sizeof(line), "%-10s %10s %14s %14s %12s\n", "layer",
                  "spans", "total_ms", "self_ms",
                  share ? "self/op_wall" : "");
    os << line;
    for (const auto& [layer, t] : layers) {
      std::snprintf(line, sizeof(line), "%-10s %10llu %14.3f %14.3f", layer.c_str(),
                    static_cast<unsigned long long>(t.count), t.total_ms,
                    t.self_ms);
      os << line;
      if (share) {
        std::snprintf(line, sizeof(line), " %12.4f",
                      op_wall > 0.0 ? t.self_ms / op_wall : 0.0);
        os << line;
      }
      os << "\n";
    }
  };
  os << "# " << title << ": layers inside ops\n";
  rows(summary.in_ops, true);
  std::snprintf(line, sizeof(line), "coverage %.4f\n", summary.coverage);
  os << line;
  if (!summary.outside_ops.empty()) {
    os << "# outside ops (set-up, off-the-clock probes)\n";
    rows(summary.outside_ops, false);
  }
  return os.str();
}

}  // namespace perfbench
