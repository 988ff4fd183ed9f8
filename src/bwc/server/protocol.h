// The bwcd request/response protocol (schema "bwcd-v1").
//
// One frame (server/frame.h) carries one JSON document. Requests:
//
//   {"op": "optimize", "program": "<IR text>", "pipeline": "<spec>",
//    "machine": "o2k", "cores": 1, "scale": 16, "engine": "compiled",
//    "measure": true, "timeout_ms": 30000}
//   {"op": "tune", "program": "<IR text>", "strategy": "beam",
//    "gap": 5.0, "budget": "small", "tune_seed": 0, "machine": "o2k",
//    "cores": 1, "scale": 16, "engine": "compiled"}
//   {"op": "stats"}        -- service counters
//   {"op": "ping"}         -- liveness probe
//
// Only "op" (and "program" for optimize) is required; everything else
// defaults as shown. Responses:
//
//   {"schema": "bwcd-v1", "status": "ok", "cache_hit": false,
//    "result": {...}}                               -- optimize
//   {"schema": "bwcd-v1", "status": "error", "error": "<message>"}
//   {"schema": "bwcd-v1", "status": "overloaded" | "timeout", ...}
//
// The `result` object is DETERMINISTIC: it contains the canonical
// program and pipeline, the optimized IR, per-pass remarks stripped of
// wall-clock fields, traffic bounds, and the machine-model measurement
// (simulated, so exact). A cache hit replays the stored result object
// byte-for-byte -- the bit-identity contract the stress test pins.
// Timing and serving metadata (elapsed, cache_hit) live OUTSIDE
// `result` so they never perturb it. docs/SERVER.md documents every
// field; tests/golden/server_protocol.json freezes the schema.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bwc/server/json.h"

namespace bwc::server {

/// Wire-schema identifier stamped on every response.
inline constexpr char kSchemaName[] = "bwcd-v1";

/// Bumped whenever the deterministic `result` rendering changes shape;
/// part of the compile-cache key, so stale entries from an older daemon
/// are misses rather than wrong answers.
inline constexpr int kProtocolVersion = 1;

struct Request {
  enum class Op { kOptimize, kTune, kStats, kPing };
  Op op = Op::kOptimize;
  /// IR program in the printer's text format (ir/parser.h).
  std::string program;
  /// PipelineSpec string, run as given: "" or " " runs no pass. Absent
  /// (no field on the wire, or null) runs core::kDefaultPipeline.
  /// Rejected for op "tune" (tune searches pipelines instead of accepting
  /// one).
  std::optional<std::string> pipeline;
  /// Tune-only knobs (rejected on other ops): search strategy, the
  /// certificate gap tolerance in percent, the evaluation budget
  /// ("small" | "medium" | "large" | positive integer) and the search
  /// seed. The daemon defaults to the small budget so one tune request
  /// stays comparable to an optimize+measure in service time.
  std::string strategy = "beam";
  double gap = 5.0;
  std::string budget = "small";
  std::uint64_t tune_seed = 0;
  std::string machine = "o2k";  // o2k | exemplar | modern
  int cores = 1;
  std::uint64_t scale = 16;  // cache scale divisor for the machine model
  std::string engine = "compiled";  // compiled | reference | native
  /// Run the machine-model measurement of original vs optimized. Off
  /// returns the transform result only (faster; no machine section).
  bool measure = true;
  /// Queue-wait deadline in milliseconds; 0 uses the daemon default. A
  /// request still queued past its deadline gets status "timeout"
  /// without running (execution itself is never preempted).
  std::int64_t timeout_ms = 0;
};

/// Parse and validate one request document. Throws bwc::Error prefixed
/// "[bad-json]" (malformed JSON) or "[bad-request]" (well-formed JSON
/// violating the schema: unknown op, missing program, bad enum value,
/// out-of-range number).
Request parse_request(const std::string& payload);

/// Canonical JSON rendering of a request (client side).
std::string render_request(const Request& request);

struct Response {
  /// "ok" | "error" | "overloaded" | "timeout".
  std::string status = "ok";
  bool cache_hit = false;
  /// Machine-checkable error code ("[bad-json]", "[frame-too-large]",
  /// ...) plus human-readable detail; empty when status == "ok".
  std::string error;
  /// The deterministic result object, pre-rendered ("{...}"); empty for
  /// non-optimize ops and non-ok statuses.
  std::string result_json;
  /// Wall-clock serving time in microseconds (0 for error paths that
  /// never reached the service).
  std::int64_t elapsed_us = 0;
};

/// Render a response frame payload. `result_json` is embedded verbatim.
std::string render_response(const Response& response);

/// Parse a response (client side). Throws bwc::Error on malformed input
/// or a schema mismatch.
Response parse_response(const std::string& payload);

}  // namespace bwc::server
