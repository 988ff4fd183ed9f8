// Spans recorded by the benchmark around its calls into each bwc layer.
//
// Every call the benchmark makes into a layer goes through layer(): with
// tracing off it is a plain call, with tracing on it appends one Span
// (name, start, end, parent, op id) to the calling thread's SpanLog. The
// logs stay in memory and are written out when the run ends, as Chrome
// trace-event JSON plus a per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `name` is "<layer>.<call>" (e.g. "ir.parse"); the
/// layer is the part before the first dot. Root spans of an op are named
/// "op.<kind>"; work done before the timed window is under "setup.*", and
/// off-the-clock probes under "probe.*".
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same log, -1 for roots
  std::int64_t op = -1;      ///< op id, -1 outside ops
};

/// The spans of one thread. Not thread-safe: each caller thread owns one.
/// While disabled, nothing is recorded.
class SpanLog {
 public:
  SpanLog(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Open a span nested in the innermost open one; returns its index.
  int open(const char* name, std::int64_t op) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Scoped span; does nothing when the log is disabled.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t op)
      : log_(log), index_(log.enabled() ? log.open(name, op) : -1) {}
  ~Scope() {
    if (index_ >= 0) log_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Call `f` inside a span named `name`.
template <class F>
decltype(auto) layer(SpanLog& log, const char* name, std::int64_t op, F&& f) {
  Scope scope(log, name, op);
  return f();
}

/// Per-name totals over a set of logs.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time its direct children cover
};

/// Totals by span name, and by layer (the name's prefix before the dot)
/// separately for spans inside ops and for set-up and probe spans.
struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  std::map<std::string, SpanTotals> in_ops;
  std::map<std::string, SpanTotals> outside_ops;
  /// Sum of layer self times inside op spans over the sum of op wall
  /// times; 0 when there are no op spans.
  double coverage = 0.0;

  double total_ms(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
};

TraceSummary summarize(const std::vector<const SpanLog*>& logs);

/// Chrome trace-event JSON ("X" complete events, microseconds), which
/// Perfetto and chrome://tracing open offline.
std::string chrome_trace_json(const std::vector<const SpanLog*>& logs);

/// Fixed-width table of the layers inside ops (spans, total ms, self ms,
/// self share of the op wall time), then the set-up and probe layers.
std::string self_time_table(const TraceSummary& summary,
                            const std::string& title);

}  // namespace perfbench
