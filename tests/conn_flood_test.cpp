// Connection-core stress tests for the event-driven (epoll) core the
// daemon and the fleet front tier share: an idle keep-alive flood that
// must be held with zero sheds while bursty traffic rides through (on a
// daemon, and on a fleet over two replicas), a slowloris swarm the 408
// reaper must cut loose, never-reading consumers the slow-consumer
// policy must disconnect, and fork/exec drills for fd exhaustion (EMFILE
// under a lowered RLIMIT_NOFILE — the reserve-fd parachute must keep
// shedding with clean 503s) and SIGKILL mid-flood (a restart on the same
// port must serve, bit-identical). The CI conn-chaos job runs this
// binary under AddressSanitizer.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "serving/daemon.h"
#include "serving/fleet.h"
#include "serving/journal.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "test_util.h"

// fork() drills and ThreadSanitizer do not mix; the in-process flood,
// slowloris, and slow-consumer tests still run under TSan and carry the
// concurrency coverage.
#if defined(__SANITIZE_THREAD__)
#define OCULAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OCULAR_TSAN 1
#endif
#endif

namespace ocular {
namespace {

using test::FreePort;
using test::RawClient;
using test::ServedProcess;
using test::WaitForServing;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A small trained model saved as a binary v2 artifact, with the
/// in-memory fit kept for oracle comparisons.
struct DaemonFixture {
  CsrMatrix train;
  OcularConfig config;
  OcularModel model;
  std::string model_path;

  static DaemonFixture Make(const std::string& file) {
    DaemonFixture f;
    f.train = test::RandomCsr(50, 30, 400, 11);
    f.config.k = 5;
    f.config.lambda = 0.5;
    f.config.max_sweeps = 6;
    f.config.seed = 11;
    OcularTrainer trainer(f.config);
    f.model = trainer.Fit(f.train).value().model;
    f.model_path = TempPath(file);
    std::remove(UpdateJournal::PathFor(f.model_path).c_str());
    EXPECT_TRUE(SaveModelBinary(f.model, f.config, f.model_path).ok());
    return f;
  }

  std::shared_ptr<const CsrMatrix> shared_train() const {
    return std::make_shared<const CsrMatrix>(train);
  }

  void Cleanup() const {
    std::remove(model_path.c_str());
    std::remove(UpdateJournal::PathFor(model_path).c_str());
  }
};

uint16_t WaitForPort(const RequestServer& server, std::thread* serve_thread) {
  for (int ms = 0; ms < 10000; ++ms) {
    const uint16_t port = server.bound_port();
    if (port != 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (serve_thread->joinable()) serve_thread->join();
  return 0;
}

/// One `stats` counter read over an already-established connection (the
/// EMFILE drill cannot open a new one).
double StatOver(RawClient* c, const std::string& key) {
  if (!c->Send(R"({"cmd":"stats"})")) return -1.0;
  std::string line;
  if (!c->ReadLine(&line)) return -1.0;
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return -1.0;
  const JsonValue* value = parsed->Find(key);
  return value == nullptr ? -1.0 : value->number();
}

TEST(ConnFloodTest, IdleFloodIsHeldWithZeroShedsWhileBurstsServe) {
  DaemonFixture f = DaemonFixture::Make("flood_idle.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 2;
  options.io_timeout_ms = 100;
  options.idle_timeout_ms = 0;  // idle keep-alive is the point, not abuse
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  // The exact-gauge check first, while the connection count is small and
  // fully controlled: 20 idle connections + the stats connection itself.
  {
    std::vector<RawClient> idle(20);
    for (RawClient& c : idle) ASSERT_TRUE(c.Connect(port));
    RawClient probe;
    ASSERT_TRUE(probe.Connect(port));
    EXPECT_EQ(StatOver(&probe, "connections_open"), 21.0);
    for (RawClient& c : idle) c.Close();
    probe.Close();
  }

  // Hundreds of idle keep-alive connections, Zipf-bursty senders through
  // the middle: every idle connection held, every burst request answered,
  // nothing shed. (bench_conn scales this same workload to 5k+.)
  IdleFloodOptions flood;
  flood.port = port;
  flood.idle_conns = 300;
  flood.burst_clients = 2;
  flood.requests_per_client = 200;
  flood.pipeline = 8;
  flood.m = 5;
  flood.num_users = 50;
  flood.duration_ms = 200;
  auto result = RunIdleFlood(flood);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->connections_held, 300u);
  EXPECT_EQ(result->connections_dropped, 0u);
  EXPECT_EQ(result->burst_requests, 400u);
  EXPECT_EQ(result->burst_ok, 400u);
  EXPECT_EQ(result->burst_errors, 0u);

  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(ShutdownWatch().Requested());
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.conn[ConnMetrics::kShed], 0u);
  EXPECT_EQ(stats.conn[ConnMetrics::kSlowClosed], 0u);
  EXPECT_EQ(stats.conn[ConnMetrics::kAcceptEmfile], 0u);
  EXPECT_EQ(stats.conn[ConnMetrics::kOpen], 0u);
  f.Cleanup();
}

TEST(ConnFloodTest, FleetHoldsIdleFloodWithZeroShedsWhileBurstsServe) {
  // The same flood through the fleet front tier, whose front door is the
  // daemon's connection core: idle keep-alive clients must cost the
  // fleet an fd each, never one of its two proxy workers.
  DaemonFixture f = DaemonFixture::Make("flood_fleet.oclr");
  OcularModelRecommender rec(f.model);
  BatchOptions batch;
  batch.m = 5;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, f.train, batch).value();

  ModelRegistry registries[2];
  std::unique_ptr<RequestServer> replicas[2];
  std::thread replica_threads[2];
  FleetServer::Options options;
  options.num_workers = 2;
  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(
        registries[r].Load("default", f.model_path, f.shared_train()).ok());
    RequestServer::Options replica_options;
    replica_options.num_workers = 1;
    replica_options.io_timeout_ms = 100;
    replica_options.update_journal = false;
    replicas[r] =
        std::make_unique<RequestServer>(&registries[r], replica_options);
    RequestServer* replica = replicas[r].get();
    replica_threads[r] = std::thread(
        [replica] { EXPECT_TRUE(replica->RunTcpLoop(0, 0).ok()); });
    const uint16_t replica_port = WaitForPort(*replica, &replica_threads[r]);
    ASSERT_NE(replica_port, 0);
    options.replicas.push_back(replica_port);
  }
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] { EXPECT_TRUE(fleet.RunLoop(0, 0).ok()); });
  uint16_t port = 0;
  for (int ms = 0; ms < 10000 && (port = fleet.bound_port()) == 0; ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(port, 0);

  // The exact gauge, from the fleet's own counters: 20 idle connections,
  // all accepted and held.
  {
    std::vector<RawClient> idle(20);
    for (RawClient& c : idle) EXPECT_TRUE(c.Connect(port));
    uint64_t open = 0;
    for (int ms = 0; ms < 5000; ++ms) {
      open = fleet.Stats().conn[ConnMetrics::kOpen];
      if (open == 20) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(open, 20u);
    for (RawClient& c : idle) c.Close();
  }

  IdleFloodOptions flood;
  flood.port = port;
  flood.idle_conns = 300;
  flood.burst_clients = 2;
  flood.requests_per_client = 200;
  flood.pipeline = 8;
  flood.m = 5;
  flood.num_users = 50;
  flood.duration_ms = 200;
  std::atomic<uint64_t> mismatches{0};
  flood.on_burst_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatchesRanked(line, oracle.recommendations[user])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // A front door whose workers idle clients can pin never answers the
  // bursts; past the deadline Stop() closes every connection, so the
  // flood returns and the test fails instead of hanging the suite.
  Result<IdleFloodResult> result = Status::Internal("flood never ran");
  std::atomic<bool> done{false};
  std::thread flood_thread([&] {
    result = RunIdleFlood(flood);
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool finished = done.load();
  fleet.Stop();
  flood_thread.join();
  fleet_thread.join();
  EXPECT_TRUE(finished) << "the idle flood wedged the fleet front door";
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    EXPECT_EQ(result->connections_held, 300u);
    EXPECT_EQ(result->connections_dropped, 0u);
    EXPECT_EQ(result->burst_requests, 400u);
    EXPECT_EQ(result->burst_ok, 400u);
    EXPECT_EQ(result->burst_errors, 0u);
  }
  EXPECT_EQ(mismatches.load(), 0u);
  const FleetStatsSnapshot stats = fleet.Stats();
  EXPECT_EQ(stats.conn[ConnMetrics::kShed], 0u);
  EXPECT_EQ(stats.conn[ConnMetrics::kOpen], 0u);

  // One drain request reaches every loop in the process.
  LineServer::RequestShutdown();
  for (int r = 0; r < 2; ++r) replica_threads[r].join();
  EXPECT_FALSE(ShutdownWatch().Requested());
  f.Cleanup();
}

TEST(ConnFloodTest, SlowlorisSwarmIsReapedWhileHotTrafficServes) {
  DaemonFixture f = DaemonFixture::Make("flood_loris.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  options.io_timeout_ms = 50;    // the reaper's sweep tick
  options.idle_timeout_ms = 200;  // dribblers die fast, bursts never idle
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  // 20 dribblers writing one byte at a time never complete a request, so
  // the idle clock never advances for them: all reaped with 408 while the
  // burst client's completed requests keep its own connection alive.
  IdleFloodOptions flood;
  flood.port = port;
  flood.idle_conns = 0;
  flood.burst_clients = 1;
  flood.requests_per_client = 200;
  flood.pipeline = 4;
  flood.m = 5;
  flood.num_users = 50;
  flood.slow_writers = 20;
  flood.slow_writer_interval_ms = 20;
  flood.duration_ms = 700;  // > idle_timeout + sweep: every loris reaped
  auto result = RunIdleFlood(flood);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->burst_ok, 200u);
  EXPECT_EQ(result->burst_errors, 0u);
  EXPECT_GE(result->slow_writers_reaped, 1u)
      << "the server never cut a dribbler loose";

  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(ShutdownWatch().Requested());
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.conn[ConnMetrics::kTimedOut], 20u)
      << "every slowloris connection must be 408-reaped";
  EXPECT_EQ(stats.conn[ConnMetrics::kShed], 0u);
  f.Cleanup();
}

TEST(ConnFloodTest, NeverReadingConsumersAreDisconnectedIdleFleetSurvives) {
  DaemonFixture f = DaemonFixture::Make("flood_mute.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  options.io_timeout_ms = 50;
  options.idle_timeout_ms = 0;
  // A small outbound bound so the drill does not need to out-write the
  // kernel's 4 MB autotuned send buffer per abuser to build a backlog.
  options.max_outbound_bytes = 16 << 10;
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  // Two consumers pipeline ~6 MB of replies and never read a byte; the
  // idle fleet and the burst traffic must not notice.
  IdleFloodOptions flood;
  flood.port = port;
  flood.idle_conns = 50;
  flood.burst_clients = 1;
  flood.requests_per_client = 200;
  flood.pipeline = 4;
  flood.m = 30;
  flood.num_users = 50;
  flood.never_readers = 2;
  flood.never_reader_requests = 8000;
  flood.duration_ms = 1500;
  auto result = RunIdleFlood(flood);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->connections_held, 50u);
  EXPECT_EQ(result->burst_ok, 200u);
  EXPECT_EQ(result->burst_errors, 0u);
  EXPECT_EQ(result->never_readers_closed, 2u)
      << "the slow-consumer policy must disconnect both mute consumers";

  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(ShutdownWatch().Requested());
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.conn[ConnMetrics::kSlowClosed], 2u);
  EXPECT_EQ(stats.conn[ConnMetrics::kShed], 0u);
  EXPECT_GT(stats.conn[ConnMetrics::kPeakOutbound], uint64_t{16} << 10);
  f.Cleanup();
}

// ------------------------------------------------ fork/exec chaos drills

#ifndef OCULAR_TSAN

std::string RoundTrip(uint16_t port, const std::string& request) {
  RawClient c;
  if (!c.Connect(port)) return "";
  std::string line;
  if (!c.Send(request) || !c.ReadLine(&line)) line.clear();
  c.Close();
  return line;
}

/// Writes `train` as the `user<TAB>item` dataset the daemon loads.
void WriteDataset(const CsrMatrix& train, const std::string& path) {
  std::ofstream out(path);
  for (auto [u, i] : train.ToPairs()) out << u << '\t' << i << '\n';
}

TEST(ConnChaosTest, FdExhaustionShedsWith503AndKeepsServing) {
  DaemonFixture f = DaemonFixture::Make("flood_emfile.oclr");
  const std::string dataset_path = TempPath("flood_emfile.tsv");
  WriteDataset(f.train, dataset_path);
  const uint16_t port = FreePort();
  ASSERT_NE(port, 0);

  // 40 fds total for the child: after stdio, listener, epoll, eventfd,
  // the reserve fd, and the model mapping, a few dozen connections
  // exhaust the table — the parachute must shed the overflow with real
  // 503 replies instead of leaving SYNs to rot in the backlog.
  ServedProcess served = ServedProcess::Start(
      {
          "--models=default=" + f.model_path,
          "--datasets=default=" + dataset_path,
          "--port=" + std::to_string(port),
          "--workers=1",
          "--io-timeout-ms=100",
          "--idle-timeout-ms=0",
          "--journal=0",
      },
      "", TempPath("flood_emfile_stderr.log"), /*nofile_limit=*/40);
  ASSERT_TRUE(WaitForServing(port, &served));

  RawClient healthy;
  ASSERT_TRUE(healthy.Connect(port));
  std::string line;
  ASSERT_TRUE(healthy.Send(R"({"user":1,"m":3})"));
  ASSERT_TRUE(healthy.ReadLine(&line));

  // Hold enough idle connections to blow through the child's fd table.
  std::vector<RawClient> fillers(60);
  for (RawClient& c : fillers) {
    if (!c.Connect(port)) break;  // kernel may refuse once backlog fills
  }
  // The sweep above triggered at least one EMFILE accept; confirm via the
  // healthy connection (poll: the last filler connects asynchronously
  // with respect to the server's accept burst).
  double emfile = 0.0;
  for (int tick = 0; tick < 200 && emfile <= 0.0; ++tick) {
    emfile = StatOver(&healthy, "accept_emfile");
    ASSERT_GE(emfile, 0.0) << "healthy connection died during the flood";
    if (emfile <= 0.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_GE(emfile, 1.0) << "fd exhaustion never hit the accept path";
  EXPECT_GE(StatOver(&healthy, "connections_shed"), 1.0);

  // A fresh arrival while the table is exhausted gets the parachute 503
  // (accept, one structured line, close) — not a hang, not a reset.
  {
    RawClient shed;
    ASSERT_TRUE(shed.Connect(port));
    ASSERT_TRUE(shed.ReadLine(&line)) << "parachute must answer, not hang";
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_FALSE(parsed->Find("ok")->boolean());
    ASSERT_NE(parsed->Find("code"), nullptr);
    EXPECT_EQ(parsed->Find("code")->number(), 503.0);
    EXPECT_NE(parsed->Find("retry_after_ms"), nullptr);
    EXPECT_FALSE(shed.ReadLine(&line));
    shed.Close();
  }

  // The established connections rode through the whole exhaustion.
  ASSERT_TRUE(healthy.Send(R"({"user":1,"m":3})"));
  ASSERT_TRUE(healthy.ReadLine(&line));
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("ok")->boolean());

  healthy.Close();
  for (RawClient& c : fillers) c.Close();
  served.KillHard();
  std::remove(dataset_path.c_str());
  f.Cleanup();
}

TEST(ConnChaosTest, SigkillMidFloodThenRestartServesBitIdentically) {
  DaemonFixture f = DaemonFixture::Make("flood_kill.oclr");
  const std::string dataset_path = TempPath("flood_kill.tsv");
  WriteDataset(f.train, dataset_path);
  const uint16_t port = FreePort();
  ASSERT_NE(port, 0);
  const auto daemon_args = [&](uint16_t p) {
    return std::vector<std::string>{
        "--models=default=" + f.model_path,
        "--datasets=default=" + dataset_path,
        "--port=" + std::to_string(p),
        "--workers=2",
        "--io-timeout-ms=100",
        "--idle-timeout-ms=0",
        "--journal=0",
    };
  };
  auto served = std::make_unique<ServedProcess>(ServedProcess::Start(
      daemon_args(port), "", TempPath("flood_kill_stderr1.log")));
  ASSERT_TRUE(WaitForServing(port, served.get()));

  // Flood + burst in flight when the SIGKILL lands. The generator run
  // itself is expected to report the carnage (dropped idles, a dead
  // burst connection) — the drill's contract is about the *restart*.
  std::thread flood_thread([port] {
    IdleFloodOptions flood;
    flood.port = port;
    flood.idle_conns = 200;
    flood.burst_clients = 2;
    flood.requests_per_client = 100000;  // far more than pre-kill time allows
    flood.pipeline = 8;
    flood.m = 5;
    flood.num_users = 50;
    flood.duration_ms = 100;
    auto result = RunIdleFlood(flood);
    // Either outcome is fine: an error (burst connection died mid-batch)
    // or a result full of dropped connections. No assert — the kill races
    // the run's phases.
    (void)result;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  served->KillHard();
  flood_thread.join();

  // Restart on the same port: the listener must bind (SO_REUSEADDR —
  // thousands of just-killed sockets sit in TIME_WAIT) and serve replies
  // bit-identical to the oracle.
  served = std::make_unique<ServedProcess>(ServedProcess::Start(
      daemon_args(port), "", TempPath("flood_kill_stderr2.log")));
  ASSERT_TRUE(WaitForServing(port, served.get()));
  OcularModelRecommender rec(f.model);
  BatchOptions batch;
  batch.m = 5;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, f.train, batch).value();
  const std::string reply =
      RoundTrip(port, R"({"cmd":"recommend","user":7,"m":5})");
  ASSERT_FALSE(reply.empty());
  EXPECT_TRUE(ReplyMatchesRanked(reply, oracle.recommendations[7])) << reply;

  served->KillHard();
  std::remove(dataset_path.c_str());
  f.Cleanup();
}

#endif  // OCULAR_TSAN

}  // namespace
}  // namespace ocular
