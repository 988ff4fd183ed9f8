// The `bwcd` workload: an in-process daemon on loopback (2 worker
// threads) and 2 client connections, each a closed loop on its own
// thread.
//
// Each client sends, with probability 0.2, a new small program from the
// `compile` draw (a miss: the pipeline runs, the result is published to
// the disk cache and the record log) and otherwise repeats, by a seeded
// skewed pick, one of its own keys whose answer has already arrived (a
// hit: a disk cache read). Keys are per client and new programs carry the
// client in their name, so a request's expected outcome never depends on
// the other client's timing.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "common.h"

#include "bwc/ir/printer.h"
#include "bwc/server/cache.h"
#include "bwc/server/client.h"
#include "bwc/server/daemon.h"
#include "bwc/server/json.h"
#include "bwc/server/protocol.h"
#include "bwc/server/service.h"

namespace perfbench {

using namespace bwc;

namespace {

constexpr int kClients = 2;
/// Share of requests that send a new program (the workload is specified
/// as about 80% repeats and 20% new programs).
constexpr double kNewShare = 0.2;
constexpr std::uint64_t kMissStream = 11;
constexpr std::uint64_t kWarmStream = 13;
/// Warm-up requests per client in set-up (the window's mix of misses and
/// repeats).
constexpr int kWarmRequests = 100;
/// The traffic-ratio geomean is taken over each client's first keys,
/// by category as on `compile`.
constexpr std::int64_t kRatioKeys = 200;
/// New programs prepared per client and second of the window before it
/// opens (the window needs ~190); more are drawn on demand.
constexpr std::int64_t kPreparedPerSecond = 300;
/// Requests replayed through an in-process Service in the traced run.
constexpr std::size_t kServiceReplay = 400;

/// Strings appended to a file and read back by index, so the benchmark's
/// memory does not grow with the number of requests and peak_rss_mb stays
/// about the daemon.
class BlobFile {
 public:
  explicit BlobFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0600)) {
    if (fd_ < 0)
      throw std::runtime_error("cannot create " + path + ": " +
                               std::strerror(errno));
  }
  ~BlobFile() { ::close(fd_); }
  BlobFile(const BlobFile&) = delete;
  BlobFile& operator=(const BlobFile&) = delete;

  std::size_t size() const { return spans_.size(); }

  std::size_t append(const std::string& blob) {
    if (::pwrite(fd_, blob.data(), blob.size(), end_) !=
        static_cast<ssize_t>(blob.size()))
      throw std::runtime_error("cannot write a blob file");
    spans_.emplace_back(end_, blob.size());
    end_ += static_cast<off_t>(blob.size());
    return spans_.size() - 1;
  }

  std::string read(std::size_t index) const {
    const auto [offset, size] = spans_.at(index);
    std::string out(size, '\0');
    if (::pread(fd_, out.data(), size, offset) != static_cast<ssize_t>(size))
      throw std::runtime_error("cannot read a blob file");
    return out;
  }

 private:
  int fd_;
  off_t end_ = 0;
  std::vector<std::pair<off_t, std::size_t>> spans_;
};

/// Bodies are compared by std::hash (64 bits): an unequal pair passes
/// with probability 2^-64, and no body has to be kept.
std::size_t hash_of(const std::string& body) {
  return std::hash<std::string>{}(body);
}

struct Key {
  bool answered = false;      ///< an `ok` body arrived
  std::size_t body_hash = 0;  ///< hash_of the first `ok` body
  std::string refusal;  ///< the verifier's error, when the pipeline refused
};

struct Sent {
  std::int64_t key = 0;
  bool expect_hit = false;
  bool traced = false;
  double rtt_ms = 0.0;
  double elapsed_ms = 0.0;
  std::int64_t end_ns = 0;
  /// hash_of a hit's body, compared with the key's first body after the
  /// window.
  std::size_t body_hash = 0;
};

/// One client's requests. Key k is the client's k-th new program, drawn
/// from (seed, stream, client, k). Request texts are drawn and printed
/// before they are sent (prepare()) and kept in a file, and bodies are
/// kept as hashes, so between its requests the client only reads the
/// next request text and hashes the answer.
class ClientRun {
 public:
  ClientRun(const Config& config, std::uint64_t stream_id, int id,
            std::string prefix, const std::string& dir)
      : seed_(config.seed),
        stream_id_(stream_id + 100 * static_cast<std::uint64_t>(id)),
        id_(id),
        prefix_(std::move(prefix)),
        texts_(dir + "/requests-" + prefix_ + std::to_string(id) + ".bin"),
        pick_(stream(config.seed, stream_id_, 0x5eed)) {}

  int id() const { return id_; }

  /// Draw and print the request texts of keys up to `keys`.
  void prepare(std::int64_t keys) {
    for (auto k = static_cast<std::int64_t>(texts_.size()); k < keys; ++k) {
      Prng rng = stream(seed_, stream_id_, static_cast<std::uint64_t>(k));
      ir::Program program = draw_small(rng, category(k));
      program.set_name(prefix_ + std::to_string(id_) + "-" +
                       std::to_string(k));
      texts_.append(ir::to_string(program));
    }
  }

  /// The next request: a new program with probability kNewShare (always
  /// while no key is answered), else a repeat of an answered key picked
  /// with a skew toward the oldest: index = floor(m * u^3), an assumed
  /// skew under which half the repeats go to the oldest eighth of the
  /// keys (README.md, "Assumed traffic mix").
  std::int64_t next(bool* fresh) {
    *fresh = answered.empty() || pick_.uniform_double() < kNewShare;
    if (!*fresh) {
      const double u = pick_.uniform_double();
      return answered[static_cast<std::size_t>(
          static_cast<double>(answered.size()) * u * u * u)];
    }
    keys.emplace_back();
    const auto key = static_cast<std::int64_t>(keys.size()) - 1;
    prepare(key + 1);
    return key;
  }

  int category(std::int64_t key) const {
    return block_categories(seed_, stream_id_, key / kSmallCategories)
        [static_cast<std::size_t>(key % kSmallCategories)];
  }

  server::Request request(std::int64_t key) const {
    server::Request r;
    r.op = server::Request::Op::kOptimize;
    r.program = texts_.read(static_cast<std::size_t>(key));
    return r;
  }

  /// Record the first `ok` body of `key`; the bodies of the first
  /// kRatioKeys keys are kept for the traffic ratio.
  void store_body(std::int64_t key, std::string body) {
    Key& k = keys[static_cast<std::size_t>(key)];
    k.answered = true;
    k.body_hash = hash_of(body);
    if (key < kRatioKeys) {
      first_bodies.resize(static_cast<std::size_t>(key) + 1);
      first_bodies[static_cast<std::size_t>(key)] = std::move(body);
    }
    answered.push_back(key);
  }

  std::vector<Key> keys;
  std::vector<std::int64_t> answered;  ///< keys with an `ok` body
  std::vector<std::string> first_bodies;  ///< of keys < kRatioKeys
  std::vector<Sent> sent;
  std::vector<std::string> failures;

 private:
  std::uint64_t seed_;
  std::uint64_t stream_id_;
  int id_;
  std::string prefix_;
  BlobFile texts_;
  Prng pick_;
};

/// optimized / original memory bytes from an optimize result body.
double body_traffic_ratio(const std::string& body) {
  const server::JsonValue doc = server::parse_json(body);
  const server::JsonValue* m = doc.find("machine");
  if (m == nullptr) return 0.0;
  const double before =
      m->find("original")->find("memory_bytes")->as_number();
  const double after =
      m->find("optimized")->find("memory_bytes")->as_number();
  return before > 0.0 && after > 0.0 ? after / before : 0.0;
}

/// Send the client's next request and run the in-loop checks: status and
/// expected cache outcome. A hit's body is hashed and compared with the
/// key's first body after the window.
void send_next(server::Client& client, ClientRun& c, SpanLog& log,
               std::int64_t op) {
  Sent s;
  bool fresh = false;
  s.key = c.next(&fresh);
  s.expect_hit = !fresh;
  const server::Request request = c.request(s.key);
  server::Response response;
  const std::int64_t t0 = now_ns();
  {
    Scope root(log, fresh ? "op.miss" : "op.hit", op);
    layer(log, "server.call", op, [&] { response = client.call(request); });
  }
  s.end_ns = now_ns();
  s.traced = log.enabled();
  s.rtt_ms = static_cast<double>(s.end_ns - t0) / 1e6;
  s.elapsed_ms = static_cast<double>(response.elapsed_us) / 1e3;

  std::string failure;
  if (fresh && response.status == "error" &&
      response.error.rfind("verification failed", 0) == 0) {
    // The pipeline's verifier rejected a pass's output; the service
    // answers with that error and caches nothing. Checked against
    // compute_result_body after the window.
    c.keys[static_cast<std::size_t>(s.key)].refusal = response.error;
  } else if (response.status != "ok") {
    failure = "status " + response.status + ": " + response.error;
  } else if (response.cache_hit != s.expect_hit) {
    failure = s.expect_hit ? "repeat of an answered key missed the cache"
                           : "new program was served from the cache";
  } else if (fresh) {
    c.store_body(s.key, std::move(response.result_json));
  } else {
    s.body_hash = hash_of(response.result_json);
  }
  c.sent.push_back(s);
  if (!failure.empty())
    c.failures.push_back("client " + std::to_string(c.id()) + " request " +
                         std::to_string(c.sent.size() - 1) + ": " + failure);
}

/// Destroyed in reverse order: clients disconnect, the daemon drains and
/// stops, then its directories are removed.
struct Server {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<server::Daemon> daemon;
  std::vector<std::unique_ptr<server::Client>> clients;
};

/// Start a daemon over fresh private directories, connect the clients and
/// warm it with a few misses and hits per client.
Server start_server(const Config& config, int rep) {
  Server s;
  s.dir = std::make_unique<TempDir>(config.scratch_root, "bwcd");
  server::DaemonOptions opts;
  opts.threads = 2;
  opts.service.cache_dir = s.dir->path() + "/cache";
  opts.service.record_log_path = s.dir->path() + "/records.log";
  s.daemon = std::make_unique<server::Daemon>(opts);
  s.daemon->start();
  SpanLog quiet(false, 0);
  for (int c = 0; c < kClients; ++c) {
    s.clients.push_back(std::make_unique<server::Client>(
        "127.0.0.1", s.daemon->port()));
    ClientRun warm(config, kWarmStream + 1000 * static_cast<std::uint64_t>(rep),
                   c, "warm-", s.dir->path());
    for (int i = 0; i < kWarmRequests; ++i)
      send_next(*s.clients.back(), warm, quiet, -1);
    if (!warm.failures.empty())
      throw std::runtime_error("bwcd warm-up failed: " + warm.failures[0]);
  }
  return s;
}

/// Replay the first requests of the run, in send order, through an
/// in-process Service with its own cache, timing handle(), the cache
/// calls and the protocol encode/decode from outside.
void replay_in_process(const Config& config,
                       const std::vector<std::unique_ptr<ClientRun>>& clients,
                       RunResult& out) {
  TempDir dir(config.scratch_root, "service");
  server::ServiceOptions opts;
  opts.cache_dir = dir.path() + "/cache";
  opts.record_log_path = dir.path() + "/records.log";
  server::Service service(opts);
  server::CompileCache probe_cache(dir.path() + "/probe-cache");
  std::size_t replayed = 0;
  for (std::size_t i = 0; replayed < kServiceReplay; ++i) {
    bool any = false;
    for (const auto& c : clients) {
      if (i >= c->sent.size() || replayed >= kServiceReplay) continue;
      any = true;
      ++replayed;
      const server::Request request = c->request(c->sent[i].key);
      std::int64_t t0 = now_ns();
      const server::Response response = service.handle(request);
      const char* kind =
          response.cache_hit ? "server.handle_hit" : "server.handle_miss";
      out.timers[kind] += static_cast<double>(now_ns() - t0) / 1e6;
      out.counters[kind] += 1;

      const std::string key_text = service.cache_key_text(request);
      t0 = now_ns();
      if (!response.cache_hit) {
        probe_cache.put(key_text, response.result_json);
        out.timers["server.cache_put"] +=
            static_cast<double>(now_ns() - t0) / 1e6;
        out.counters["server.cache_puts"] += 1;
        t0 = now_ns();
      }
      const server::CompileCache::Lookup lookup = probe_cache.get(key_text);
      out.timers["server.cache_get"] +=
          static_cast<double>(now_ns() - t0) / 1e6;
      out.counters["server.cache_gets"] += 1;
      if (!lookup.hit || lookup.value != response.result_json)
        throw std::runtime_error("probe cache did not return what was put");

      t0 = now_ns();
      const server::Request parsed =
          server::parse_request(server::render_request(request));
      const server::Response decoded =
          server::parse_response(server::render_response(response));
      out.timers["server.protocol"] +=
          static_cast<double>(now_ns() - t0) / 1e6;
      out.counters["server.protocol_calls"] += 1;
      if (parsed.program != request.program ||
          decoded.result_json != response.result_json)
        throw std::runtime_error("protocol round trip changed the message");
    }
    if (!any) break;
  }
}

/// Every key's first answer must equal the service's deterministic
/// reference computation for the request: the same body, or the same
/// verifier refusal; and every hit's body must equal its key's first
/// body. Returns the mismatches.
std::vector<std::string> check_keys(const ClientRun& c) {
  std::vector<std::string> mismatches;
  const auto mismatch = [&](const std::string& what) {
    mismatches.push_back("client " + std::to_string(c.id()) + " " + what);
  };
  for (std::size_t k = 0; k < c.keys.size(); ++k) {
    const Key& key = c.keys[k];
    if (!key.answered && key.refusal.empty()) continue;  // failed
    const server::Request request = c.request(static_cast<std::int64_t>(k));
    std::string body;
    std::string error;
    try {
      body = server::Service::compute_result_body(request);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const bool same = key.answered
                          ? error.empty() && hash_of(body) == key.body_hash
                          : body.empty() && error == key.refusal;
    if (!same)
      mismatch("key " + std::to_string(k) +
               ": served answer differs from compute_result_body");
  }
  for (std::size_t i = 0; i < c.sent.size(); ++i) {
    const Sent& s = c.sent[i];
    if (s.expect_hit && s.body_hash != 0 &&
        s.body_hash != c.keys[static_cast<std::size_t>(s.key)].body_hash)
      mismatch("request " + std::to_string(i) +
               ": cache hit body differs from the key's first body");
  }
  return mismatches;
}

}  // namespace

RunResult run_bwcd(const Config& config) {
  RunResult out;
  std::optional<Server> server;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    server.reset();  // stops the previous repetition's daemon
    const std::int64_t t0 = now_ns();
    server.emplace(start_server(config, rep));
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::vector<std::unique_ptr<ClientRun>> clients;
  const std::int64_t prepared =
      config.max_ops > 0
          ? config.max_ops
          : static_cast<std::int64_t>(config.seconds) * kPreparedPerSecond;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ClientRun>(config, kMissStream, c, "c",
                                                  server->dir->path()));
    out.logs.push_back(std::make_unique<SpanLog>(config.traced, c));
  }
  // Runs `body(c)` on one thread per client and joins them.
  const auto on_clients = [&](const auto& body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        try {
          body(c, *clients[static_cast<std::size_t>(c)],
               *server->clients[static_cast<std::size_t>(c)]);
        } catch (const std::exception& e) {
          clients[static_cast<std::size_t>(c)]->failures.push_back(
              std::string("client error: ") + e.what());
        }
      });
    for (std::thread& t : threads) t.join();
  };

  // Off the clock: draw and print the requests the window will send.
  on_clients([&](int, ClientRun& run, server::Client&) {
    run.prepare(prepared);
  });
  const std::uint64_t warm_runs =
      server->daemon->service().stats().pipeline_runs;
  const server::Daemon::Counters warm_counters = server->daemon->counters();

  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(config.seconds * 1e9);
  on_clients([&](int c, ClientRun& run, server::Client& client) {
    SpanLog& log = *out.logs[static_cast<std::size_t>(c)];
    for (std::int64_t i = 0;
         config.max_ops > 0 ? i < config.max_ops : now_ns() < deadline; ++i) {
      log.set_enabled(config.traced && i % 2 == 1);
      send_next(client, run, log, i * kClients + c);
    }
  });
  out.busy_s = static_cast<double>(now_ns() - t0) / 1e9;
  const server::Service::Stats stats = server->daemon->service().stats();
  const server::Daemon::Counters counters = server->daemon->counters();
  out.counters["server.batches"] =
      static_cast<double>(counters.batches - warm_counters.batches);
  out.counters["server.batched_jobs"] =
      static_cast<double>(counters.batched_jobs - warm_counters.batched_jobs);
  server->clients.clear();
  server->daemon.reset();  // drained and stopped; its directory stays

  // Off the clock, one checker thread per client.
  std::vector<std::vector<std::string>> mismatches(kClients);
  {
    std::vector<std::thread> checkers;
    for (int c = 0; c < kClients; ++c)
      checkers.emplace_back([&, c] {
        auto& mine = mismatches[static_cast<std::size_t>(c)];
        try {
          mine = check_keys(*clients[static_cast<std::size_t>(c)]);
        } catch (const std::exception& e) {
          mine.push_back(std::string("checker error: ") + e.what());
        }
      });
    for (std::thread& t : checkers) t.join();
  }

  for (const auto& c : clients) {
    for (const Sent& s : c->sent) {
      const bool refused =
          !s.expect_hit &&
          !c->keys[static_cast<std::size_t>(s.key)].refusal.empty();
      out.ops.push_back({s.expect_hit ? "hit" : "miss", s.rtt_ms,
                         static_cast<double>(s.end_ns - t0) / 1e9, s.traced,
                         refused});
      if (s.traced) out.timers["server.elapsed"] += s.elapsed_ms;
      out.fingerprint.push_back(s.expect_hit ? 1.0 : 0.0);
    }
    for (std::int64_t k = 0; k < 8 && k < static_cast<std::int64_t>(c->keys.size()); ++k)
      out.drawn.push_back(c->request(k).program);
    for (const Key& k : c->keys) {
      out.counters["pass.optimize_calls"] += 1;
      if (!k.refusal.empty()) out.counters["verify.refusals"] += 1;
    }
    for (const std::string& f : c->failures)
      std::fprintf(stderr, "bwcbench: %s\n", f.c_str());
    out.failed += c->failures.size();
  }
  for (const auto& list : mismatches) {
    for (const std::string& m : list)
      std::fprintf(stderr, "bwcbench: bwcd body check: %s\n", m.c_str());
    out.failed += list.size();
  }
  std::vector<std::vector<double>> ratios(kSmallCategories);
  for (const auto& c : clients) {
    const std::int64_t keys = static_cast<std::int64_t>(c->keys.size());
    for (std::int64_t k = 0; k < keys && k < kRatioKeys; ++k) {
      // A refused request leaves the caller with its original program.
      const Key& key = c->keys[static_cast<std::size_t>(k)];
      if (!key.answered && key.refusal.empty()) continue;
      const double ratio =
          key.answered
              ? body_traffic_ratio(c->first_bodies[static_cast<std::size_t>(k)])
              : 1.0;
      if (ratio > 0.0)
        ratios[static_cast<std::size_t>(c->category(k))].push_back(ratio);
    }
  }
  for (const std::vector<double>& r : ratios)
    if (!r.empty()) out.traffic_ratios.push_back(geomean(r));
  out.counters["server.requests"] = static_cast<double>(out.ops.size());
  out.counters["server.hits"] = static_cast<double>(
      std::count_if(out.ops.begin(), out.ops.end(),
                    [](const OpRecord& r) { return r.kind == "hit"; }));
  out.counters["server.pipeline_runs"] =
      static_cast<double>(stats.pipeline_runs - warm_runs);

  if (config.traced) replay_in_process(config, clients, out);
  return out;
}

}  // namespace perfbench
