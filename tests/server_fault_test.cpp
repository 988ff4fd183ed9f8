// Fault-injection tests for bwcd: every abuse in the protocol's threat
// model gets a structured error or a clean eviction -- never a crash, a
// wedge, or a wrong answer. Test names match the 'Server' clause of the
// TSan CI regex so the failure paths run under TSan too.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bwc/ir/printer.h"
#include "bwc/server/cache.h"
#include "bwc/server/client.h"
#include "bwc/server/daemon.h"
#include "bwc/server/frame.h"
#include "bwc/server/protocol.h"
#include "bwc/server/service.h"
#include "bwc/support/error.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::server {
namespace {

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "/tmp/bwc-server-fault-%s-%d", tag,
                  static_cast<int>(::getpid()));
    path_ = buf;
    std::system(("rm -rf " + path_).c_str());
    std::system(("mkdir -p " + path_).c_str());
  }
  ~TempDir() {
    std::system(("chmod -R u+w " + path_ + " 2>/dev/null").c_str());
    std::system(("rm -rf " + path_).c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Request small_request() {
  Request r;
  r.op = Request::Op::kOptimize;
  r.program = ir::to_string(workloads::fig7_original(500));
  r.measure = false;
  return r;
}

TEST(ServerFault, GarbageJsonGetsErrorAndConnectionSurvives) {
  Daemon daemon(DaemonOptions{});
  daemon.start();
  Client client("127.0.0.1", daemon.port());

  // Garbage JSON in a well-formed frame: structured error, same
  // connection keeps working.
  const std::string raw = client.call_raw("{not json at all");
  const Response error = parse_response(raw);
  EXPECT_EQ(error.status, "error");
  EXPECT_NE(error.error.find("[bad-json]"), std::string::npos) << error.error;

  // Schema violations likewise.
  const Response bad = parse_response(client.call_raw(R"({"op":"nope"})"));
  EXPECT_EQ(bad.status, "error");
  EXPECT_NE(bad.error.find("[bad-request]"), std::string::npos) << bad.error;

  // And the connection is still synchronized: a real request succeeds.
  const Response ok = client.call(small_request());
  EXPECT_EQ(ok.status, "ok") << ok.error;

  EXPECT_GE(daemon.counters().malformed_frames, 2u);
  daemon.stop();
}

TEST(ServerFault, EmptyFrameIsIgnored) {
  Daemon daemon(DaemonOptions{});
  daemon.start();
  Client client("127.0.0.1", daemon.port());
  // A zero-length frame is legal no-op padding; the next real frame on
  // the same connection is answered normally.
  client.send_bytes(encode_frame(""));
  const Response ok = client.call(small_request());
  EXPECT_EQ(ok.status, "ok") << ok.error;
  daemon.stop();
}

TEST(ServerFault, OversizedLengthPrefixGetsErrorThenClose) {
  Daemon daemon(DaemonOptions{});
  daemon.start();
  Client client("127.0.0.1", daemon.port());
  client.send_bytes(std::string("\xff\xff\xff\xff", 4));
  const Response error = parse_response(client.read_frame());
  EXPECT_EQ(error.status, "error");
  EXPECT_NE(error.error.find("[frame-too-large]"), std::string::npos)
      << error.error;
  // The stream is unsynchronized, so the daemon closes: the next read
  // sees EOF (or a reset), never a hang.
  EXPECT_THROW(client.read_frame(), Error);
  // The daemon itself is fine.
  Client fresh("127.0.0.1", daemon.port());
  Request ping;
  ping.op = Request::Op::kPing;
  EXPECT_EQ(fresh.call(ping).status, "ok");
  daemon.stop();
}

TEST(ServerFault, TruncatedFrameOnDisconnectIsCounted) {
  Daemon daemon(DaemonOptions{});
  daemon.start();
  {
    Client client("127.0.0.1", daemon.port());
    // A length prefix promising 100 bytes, then only 3, then EOF.
    client.send_bytes(std::string("\x00\x00\x00\x64", 4) + "abc");
  }  // destructor closes mid-frame
  // The daemon notices on its next poll tick; spin briefly.
  for (int i = 0; i < 100 && daemon.counters().truncated_frames == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(daemon.counters().truncated_frames, 1u);
  // Still serving.
  Client fresh("127.0.0.1", daemon.port());
  EXPECT_EQ(fresh.call(small_request()).status, "ok");
  daemon.stop();
}

TEST(ServerFault, MidRequestDisconnectLosesOnlyThatResponse) {
  DaemonOptions options;
  options.service.debug_delay_ms = 50;
  Daemon daemon(options);
  daemon.start();
  {
    // Send a full optimize request, then vanish before the (delayed)
    // response can be written.
    Client client("127.0.0.1", daemon.port());
    client.send_bytes(encode_frame(render_request(small_request())));
  }
  // The daemon must finish the job, fail the write, and keep serving.
  Client fresh("127.0.0.1", daemon.port());
  const Response ok = fresh.call(small_request());
  EXPECT_EQ(ok.status, "ok") << ok.error;
  daemon.stop();
  // The abandoned request still ran (or was answered into the void);
  // either way it reached the service and nothing leaked or crashed.
  EXPECT_GE(daemon.service().stats().requests, 1u);
}

TEST(ServerFault, FullQueueAnswersOverloadedImmediately) {
  DaemonOptions options;
  options.threads = 1;
  options.batch_max = 1;
  options.queue_max = 1;
  options.service.debug_delay_ms = 150;
  Daemon daemon(options);
  daemon.start();

  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Client client("127.0.0.1", daemon.port(), /*timeout_ms=*/10'000);
      const Response response = client.call(small_request());
      if (response.status == "ok") {
        ++ok;
      } else if (response.status == "overloaded") {
        EXPECT_NE(response.error.find("[overloaded]"), std::string::npos);
        ++overloaded;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : clients) t.join();  // joining at all = no hang

  EXPECT_EQ(ok.load() + overloaded.load() + other.load(), kClients);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(overloaded.load(), 0) << "queue pressure never triggered";
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(daemon.counters().overloaded, 0u);
  daemon.stop();
}

TEST(ServerFault, StaleQueuedRequestTimesOutWithoutRunning) {
  DaemonOptions options;
  options.threads = 1;
  options.batch_max = 1;
  options.queue_max = 8;
  options.service.debug_delay_ms = 250;
  Daemon daemon(options);
  daemon.start();

  // Two requests pipelined on one connection: the first occupies the
  // only worker for 250ms; the second carries a 1ms deadline and must
  // be answered "timeout" at dispatch -- without running.
  Request slow = small_request();
  Request stale = small_request();
  stale.timeout_ms = 1;
  Client client("127.0.0.1", daemon.port(), /*timeout_ms=*/10'000);
  client.send_bytes(encode_frame(render_request(slow)) +
                    encode_frame(render_request(stale)));
  const Response first = parse_response(client.read_frame());
  const Response second = parse_response(client.read_frame());
  EXPECT_EQ(first.status, "ok") << first.error;
  EXPECT_EQ(second.status, "timeout");
  EXPECT_NE(second.error.find("[timeout]"), std::string::npos)
      << second.error;
  EXPECT_EQ(daemon.counters().timeouts, 1u);
  // The stale request never reached the pipeline.
  EXPECT_EQ(daemon.service().stats().pipeline_runs, 1u);
  daemon.stop();
}

TEST(ServerFault, CorruptedCacheEntryIsEvictedAndRecomputedIdentically) {
  TempDir cache_dir("corrupt");
  DaemonOptions options;
  options.service.cache_dir = cache_dir.path();
  Daemon daemon(options);
  daemon.start();
  Client client("127.0.0.1", daemon.port());

  const Request request = small_request();
  const Response cold = client.call(request);
  ASSERT_EQ(cold.status, "ok") << cold.error;

  // Flip bytes in every .val file in the cache directory.
  std::system(("for f in " + cache_dir.path() +
               "/*.val; do printf 'XXXX' | dd of=$f bs=1 seek=40 conv=notrunc "
               "2>/dev/null; done")
                  .c_str());

  const Response again = client.call(request);
  ASSERT_EQ(again.status, "ok") << again.error;
  EXPECT_FALSE(again.cache_hit) << "served a corrupted entry";
  EXPECT_EQ(again.result_json, cold.result_json)
      << "recomputed result diverged";
  EXPECT_GE(daemon.service().stats().cache_evictions, 1u);

  // The evicted entry was re-published: third time hits again.
  const Response warm = client.call(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result_json, cold.result_json);
  daemon.stop();
}

TEST(ServerFault, ReadOnlyCacheDirDegradesToUncached) {
  if (::geteuid() == 0)
    GTEST_SKIP() << "root ignores directory permissions";
  TempDir cache_dir("readonly");
  std::system(("chmod 0500 " + cache_dir.path()).c_str());
  DaemonOptions options;
  options.service.cache_dir = cache_dir.path();
  Daemon daemon(options);
  daemon.start();
  Client client("127.0.0.1", daemon.port());

  const Response first = client.call(small_request());
  EXPECT_EQ(first.status, "ok") << first.error;
  const Response second = client.call(small_request());
  EXPECT_EQ(second.status, "ok") << second.error;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_GE(daemon.service().stats().cache_store_failures, 1u);
  daemon.stop();
}

TEST(ServerFault, CacheDirBlockedByRegularFileDegradesToUncached) {
  // Variant of the read-only test that works under root too: the cache
  // path's parent is a regular file, so mkdir/rename can never succeed.
  TempDir dir("blocked");
  { std::ofstream out(dir.path() + "/occupied"); out << "x"; }
  DaemonOptions options;
  options.service.cache_dir = dir.path() + "/occupied/cache";
  Daemon daemon(options);
  daemon.start();
  Client client("127.0.0.1", daemon.port());

  const Response first = client.call(small_request());
  EXPECT_EQ(first.status, "ok") << first.error;
  const Response second = client.call(small_request());
  EXPECT_EQ(second.status, "ok") << second.error;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_GE(daemon.service().stats().cache_store_failures, 1u);
  daemon.stop();
}

TEST(ServerFault, ConnectionCapRejectsTheOverflowConnection) {
  DaemonOptions options;
  options.max_connections = 2;
  Daemon daemon(options);
  daemon.start();
  Client a("127.0.0.1", daemon.port());
  Client b("127.0.0.1", daemon.port());
  Request ping;
  ping.op = Request::Op::kPing;
  EXPECT_EQ(a.call(ping).status, "ok");
  EXPECT_EQ(b.call(ping).status, "ok");

  // The third connection gets a structured rejection frame, then EOF.
  Client c("127.0.0.1", daemon.port());
  const Response rejected = parse_response(c.read_frame());
  EXPECT_EQ(rejected.status, "overloaded");
  EXPECT_NE(rejected.error.find("[overloaded]"), std::string::npos)
      << rejected.error;
  EXPECT_GE(daemon.counters().connections_rejected, 1u);
  daemon.stop();
}

TEST(ServerFault, ConcurrentRepeatsRunThePipelineOnce) {
  // Four workers get the same request at once. The first to claim the
  // key computes it; the others wait and are served its cached body.
  TempDir cache_dir("single-flight");
  ServiceOptions options;
  options.cache_dir = cache_dir.path();
  Service service(options);
  const Request request = small_request();
  std::vector<Response> responses(4);
  std::vector<std::thread> workers;
  for (Response& r : responses)
    workers.emplace_back([&service, &request, &r] { r = service.handle(request); });
  for (std::thread& t : workers) t.join();
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, "ok") << r.error;
    EXPECT_EQ(r.result_json, responses[0].result_json);
  }
  EXPECT_EQ(service.stats().pipeline_runs, 1u);
  EXPECT_EQ(service.stats().cache_hits, 3u);
}

TEST(ServerFault, ClientKeepsFramesThatArriveInOneRead) {
  // A peer that writes two response frames with one send: the client's
  // first read takes in both, and the second frame must still be there
  // for the next read_frame() instead of being dropped.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<struct sockaddr*>(&addr), &len);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    const std::string both = encode_frame("first") + encode_frame("second");
    (void)::send(fd, both.data(), both.size(), 0);
    char byte;
    (void)::recv(fd, &byte, 1, 0);  // hold the connection until the end
    ::close(fd);
  });
  std::string first, second;
  try {
    Client client("127.0.0.1", ntohs(addr.sin_port), /*timeout_ms=*/5'000);
    first = client.read_frame();
    second = client.read_frame();
  } catch (const Error& e) {
    ADD_FAILURE() << e.what();
  }
  peer.join();  // the client's close ends the peer's wait
  ::close(listener);
  EXPECT_EQ(first, "first");
  EXPECT_EQ(second, "second");
}

}  // namespace
}  // namespace bwc::server
