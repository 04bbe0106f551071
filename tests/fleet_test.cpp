// Tests for the replicated-serving front tier (serving/fleet.h) and the
// shared retry discipline (serving/retry.h): the backoff math under
// hostile retry_after_ms hints (the loadgen overflow regression), the
// half-open health state machine in isolation (table-driven, no
// sockets), rendezvous routing properties, the fleet's own verbs and
// bit-identical forwarding over in-process replicas, the
// no-healthy-replica 503 contract, and fork/exec chaos drills that
// SIGKILL a real ocular_served replica mid-burst — directly and inside
// a daemon.handle kill window — plus a hedged-request drill against a
// replica stalled through the same fault point.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "core/model_shard.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "data/loaders.h"
#include "serving/batch.h"
#include "serving/daemon.h"
#include "serving/fleet.h"
#include "serving/journal.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "serving/retry.h"
#include "test_util.h"

// fork() + SIGKILL drills and ThreadSanitizer do not mix; the in-process
// tests still run under TSan and carry the concurrency coverage.
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

// --------------------------------------------------- retry discipline

TEST(RetryTest, ClampBoundsHostileHints) {
  EXPECT_EQ(retry::ClampRetryAfterMs(0), 1u);
  EXPECT_EQ(retry::ClampRetryAfterMs(1), 1u);
  EXPECT_EQ(retry::ClampRetryAfterMs(250), 250u);
  EXPECT_EQ(retry::ClampRetryAfterMs(retry::kMaxRetryAfterHintMs),
            retry::kMaxRetryAfterHintMs);
  EXPECT_EQ(retry::ClampRetryAfterMs(retry::kMaxRetryAfterHintMs + 1),
            retry::kMaxRetryAfterHintMs);
  EXPECT_EQ(retry::ClampRetryAfterMs(uint64_t{1} << 62),
            retry::kMaxRetryAfterHintMs);
}

TEST(RetryTest, BackoffIsDeterministicBoundedAndCapped) {
  // Deterministic per (hint, salt, attempt): a fleet of clients can be
  // replayed, and distinct salts de-lockstep the herd.
  EXPECT_EQ(retry::BackoffMs(50, 1, 2), retry::BackoffMs(50, 1, 2));
  EXPECT_NE(retry::BackoffMs(50, 1, 2), retry::BackoffMs(50, 2, 2));

  // The first attempt waits at least the server's hint.
  EXPECT_GE(retry::BackoffMs(50, 0, 0), 50u);

  // Every attempt is bounded by cap + jitter span regardless of attempt
  // number — the shift saturates instead of wrapping.
  for (uint32_t attempt = 0; attempt < 70; ++attempt) {
    const uint64_t delay = retry::BackoffMs(50, 3, attempt);
    EXPECT_LE(delay, retry::kDefaultBackoffCapMs + 26u) << attempt;
  }
}

TEST(RetryTest, AbsurdHintCannotOverflowTheDelay) {
  // The loadgen regression: a hostile or corrupt retry_after_ms of 2^62
  // used to wrap under `base << attempt` and produce a bogus delay (or a
  // multi-year sleep). The shared discipline clamps the base before the
  // shift, so even the worst case stays near the cap.
  const uint64_t kAbsurd = uint64_t{1} << 62;
  for (uint32_t attempt = 0; attempt < 70; ++attempt) {
    const uint64_t delay = retry::BackoffMs(kAbsurd, 7, attempt);
    EXPECT_LE(delay, retry::kDefaultBackoffCapMs +
                         std::min<uint64_t>(retry::kMaxRetryAfterHintMs,
                                            retry::kDefaultBackoffCapMs) /
                             2 +
                         1)
        << attempt;
    EXPECT_GE(delay, 1u) << attempt;
  }
}

TEST(RetryTest, ParseShedReplyClampsAbsurdWireHints) {
  uint64_t hint = 0;
  ASSERT_TRUE(retry::ParseShedReply(
      R"({"ok":false,"error":"overloaded","code":503,"retry_after_ms":40})",
      &hint));
  EXPECT_EQ(hint, 40u);

  // A hostile server advertising a 10^18 ms backoff gets the cap.
  ASSERT_TRUE(retry::ParseShedReply(
      R"({"ok":false,"code":503,"retry_after_ms":1e18})", &hint));
  EXPECT_EQ(hint, retry::kMaxRetryAfterHintMs);

  // Missing hint: still a shed, with the floor delay.
  ASSERT_TRUE(retry::ParseShedReply(R"({"ok":false,"code":503})", &hint));
  EXPECT_GE(hint, 1u);

  // Not sheds: ok replies, other codes, garbage.
  EXPECT_FALSE(retry::ParseShedReply(R"({"ok":true,"items":[]})", &hint));
  EXPECT_FALSE(retry::ParseShedReply(R"({"ok":false,"code":413})", &hint));
  EXPECT_FALSE(retry::ParseShedReply("not json at all", &hint));
}

// --------------------------------------- health state machine, no sockets

TEST(HealthPolicyTest, TableDrivenTransitions) {
  HealthOptions options;
  options.fail_threshold = 3;
  options.reopen_after_ms = 100;
  options.reopen_cap_ms = 400;

  enum Op { kFail, kOk, kShed, kTryHalfOpen };
  struct Step {
    Op op;
    int64_t now;
    uint64_t arg;  // kShed: retry_after_ms; kTryHalfOpen: expected bool
    ReplicaState want_state;
    bool want_routable;
  };
  struct Scenario {
    const char* name;
    std::vector<Step> steps;
    uint64_t want_ejections;
    uint64_t want_readmissions;
  };
  const Scenario scenarios[] = {
      {"blips below threshold never eject (successes reset the count)",
       {{kFail, 0, 0, ReplicaState::kHealthy, true},
        {kFail, 1, 0, ReplicaState::kHealthy, true},
        {kOk, 2, 0, ReplicaState::kHealthy, true},
        {kFail, 3, 0, ReplicaState::kHealthy, true},
        {kFail, 4, 0, ReplicaState::kHealthy, true}},
       0,
       0},
      {"threshold ejects; reopen gates the half-open probe",
       {{kFail, 0, 0, ReplicaState::kHealthy, true},
        {kFail, 1, 0, ReplicaState::kHealthy, true},
        {kFail, 2, 0, ReplicaState::kEjected, false},
        // Stale events while ejected change nothing.
        {kFail, 3, 0, ReplicaState::kEjected, false},
        {kOk, 4, 0, ReplicaState::kEjected, false},
        // Too early for the probe; due at 2 + 100.
        {kTryHalfOpen, 50, false, ReplicaState::kEjected, false},
        {kTryHalfOpen, 102, true, ReplicaState::kHalfOpen, false},
        {kOk, 103, 0, ReplicaState::kHealthy, true}},
       1,
       1},
      {"failed half-open probes re-eject without a new ejection, "
       "doubling the reopen delay up to the cap",
       {{kFail, 0, 0, ReplicaState::kHealthy, true},
        {kFail, 0, 0, ReplicaState::kHealthy, true},
        {kFail, 0, 0, ReplicaState::kEjected, false},  // reopen at 100
        {kTryHalfOpen, 100, true, ReplicaState::kHalfOpen, false},
        {kFail, 100, 0, ReplicaState::kEjected, false},  // reopen at 300
        {kTryHalfOpen, 250, false, ReplicaState::kEjected, false},
        {kTryHalfOpen, 300, true, ReplicaState::kHalfOpen, false},
        {kFail, 300, 0, ReplicaState::kEjected, false},  // capped: at 700
        {kTryHalfOpen, 650, false, ReplicaState::kEjected, false},
        {kTryHalfOpen, 700, true, ReplicaState::kHalfOpen, false},
        {kOk, 701, 0, ReplicaState::kHealthy, true}},
       1,
       1},
      {"flapping: each full outage counts one ejection and one readmission",
       {{kFail, 0, 0, ReplicaState::kHealthy, true},
        {kFail, 0, 0, ReplicaState::kHealthy, true},
        {kFail, 0, 0, ReplicaState::kEjected, false},
        {kTryHalfOpen, 100, true, ReplicaState::kHalfOpen, false},
        {kOk, 101, 0, ReplicaState::kHealthy, true},
        // Second outage: the backoff starts over at the base delay.
        {kFail, 200, 0, ReplicaState::kHealthy, true},
        {kFail, 200, 0, ReplicaState::kHealthy, true},
        {kFail, 200, 0, ReplicaState::kEjected, false},
        {kTryHalfOpen, 299, false, ReplicaState::kEjected, false},
        {kTryHalfOpen, 300, true, ReplicaState::kHalfOpen, false},
        {kOk, 301, 0, ReplicaState::kHealthy, true}},
       2,
       2},
      {"a shed is soft: routed around for its window, state untouched",
       {{kShed, 0, 50, ReplicaState::kHealthy, false},
        // A longer window extends, a shorter one never shrinks it.
        {kShed, 10, 100, ReplicaState::kHealthy, false},
        {kShed, 20, 1, ReplicaState::kHealthy, false},
        // Shed windows do not advance the failure count.
        {kFail, 30, 0, ReplicaState::kHealthy, false},
        {kFail, 40, 0, ReplicaState::kHealthy, false}},
       0,
       0},
  };

  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    ReplicaHealth h(options);
    for (size_t i = 0; i < s.steps.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(i));
      const Step& step = s.steps[i];
      switch (step.op) {
        case kFail:
          h.OnFailure(step.now);
          break;
        case kOk:
          h.OnSuccess(step.now);
          break;
        case kShed:
          h.OnShed(step.now, step.arg);
          break;
        case kTryHalfOpen:
          EXPECT_EQ(h.MaybeHalfOpen(step.now), step.arg != 0);
          break;
      }
      EXPECT_EQ(h.state(), step.want_state);
      EXPECT_EQ(h.Routable(step.now), step.want_routable);
    }
    EXPECT_EQ(h.ejections(), s.want_ejections);
    EXPECT_EQ(h.readmissions(), s.want_readmissions);
  }

  // The soft-shed window ends on its own: routable again at soft_until.
  ReplicaHealth h(options);
  h.OnShed(0, 50);
  EXPECT_FALSE(h.Routable(49));
  EXPECT_TRUE(h.Routable(50));
  // And hostile shed hints are clamped before entering the window.
  h.OnShed(100, uint64_t{1} << 62);
  EXPECT_FALSE(h.Routable(100 + retry::kMaxRetryAfterHintMs - 1));
  EXPECT_TRUE(h.Routable(100 + retry::kMaxRetryAfterHintMs));
}

// ------------------------------------------------- stats snapshot/merge

TEST(FleetStatsTest, RenderSumsReplicaRows) {
  struct Case {
    const char* name;
    std::vector<std::pair<uint64_t, uint64_t>> rows;  // ejections, readmits
    uint64_t want_ejections;
    uint64_t want_readmissions;
  };
  const Case cases[] = {
      {"no replicas", {}, 0, 0},
      {"one quiet replica", {{0, 0}}, 0, 0},
      {"one flapping replica", {{3, 2}}, 3, 2},
      {"totals sum across the fleet", {{1, 1}, {0, 0}, {4, 3}}, 5, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FleetStatsSnapshot s;
    for (const auto& [ej, re] : c.rows) {
      FleetReplicaStats rs;
      rs.ejections = ej;
      rs.readmissions = re;
      s.replicas.push_back(rs);
    }
    // Rendering twice must not accumulate: the totals come from the rows.
    for (int render = 0; render < 2; ++render) {
      auto parsed = JsonValue::Parse(RenderFleetStats(s));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->Find("ejections")->number(),
                static_cast<double>(c.want_ejections));
      EXPECT_EQ(parsed->Find("readmissions")->number(),
                static_cast<double>(c.want_readmissions));
    }
  }
}

TEST(FleetStatsTest, RenderCarriesEveryCounterAndReplicaRow) {
  // Socket-free coverage of the `stats` verb's reply shape: build the
  // snapshot by hand, render, parse back, and check field by field — the
  // same render code the live fleet `stats` verb runs.
  FleetStatsSnapshot s;
  s.fleet[FleetMetrics::kRequestsProxied] = 1000;
  s.fleet[FleetMetrics::kFailovers] = 7;
  s.fleet[FleetMetrics::kHedgesSent] = 42;
  s.fleet[FleetMetrics::kHedgesWon] = 11;
  s.fleet[FleetMetrics::kNoHealthy503s] = 3;
  s.fleet[FleetMetrics::kRejectedVerbs] = 2;
  s.fleet[FleetMetrics::kProbesSent] = 500;
  s.fleet[FleetMetrics::kProbeFailures] = 9;
  s.conn[ConnMetrics::kShed] = 1;
  s.conn[ConnMetrics::kTimedOut] = 4;
  s.conn[ConnMetrics::kOpen] = 5;
  s.conn[ConnMetrics::kCapped] = 6;
  s.conn[ConnMetrics::kSlowClosed] = 8;
  s.conn[ConnMetrics::kAcceptEmfile] = 10;
  s.conn[ConnMetrics::kPeakOutbound] = 65536;
  FleetReplicaStats a;
  a.port = 7001;
  a.state = ReplicaState::kHealthy;
  a.forwards = 600;
  a.failures = 1;
  a.ejections = 0;
  a.readmissions = 0;
  FleetReplicaStats b;
  b.port = 7002;
  b.state = ReplicaState::kEjected;
  b.forwards = 400;
  b.failures = 12;
  b.ejections = 2;
  b.readmissions = 1;
  s.replicas = {a, b};

  auto parsed = JsonValue::Parse(RenderFleetStats(s));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Find("ok")->boolean());
  EXPECT_TRUE(parsed->Find("fleet")->boolean());
  EXPECT_EQ(parsed->Find("requests_proxied")->number(), 1000.0);
  EXPECT_EQ(parsed->Find("failovers")->number(), 7.0);
  EXPECT_EQ(parsed->Find("hedges_sent")->number(), 42.0);
  EXPECT_EQ(parsed->Find("hedges_won")->number(), 11.0);
  EXPECT_EQ(parsed->Find("no_healthy_503s")->number(), 3.0);
  EXPECT_EQ(parsed->Find("rejected_verbs")->number(), 2.0);
  EXPECT_EQ(parsed->Find("probes_sent")->number(), 500.0);
  EXPECT_EQ(parsed->Find("probe_failures")->number(), 9.0);
  EXPECT_EQ(parsed->Find("connections_shed")->number(), 1.0);
  EXPECT_EQ(parsed->Find("connections_timed_out")->number(), 4.0);
  EXPECT_EQ(parsed->Find("connections_open")->number(), 5.0);
  EXPECT_EQ(parsed->Find("connections_capped")->number(), 6.0);
  EXPECT_EQ(parsed->Find("connections_slow_closed")->number(), 8.0);
  EXPECT_EQ(parsed->Find("accept_emfile")->number(), 10.0);
  EXPECT_EQ(parsed->Find("peak_outbound_bytes")->number(), 65536.0);
  EXPECT_EQ(parsed->Find("ejections")->number(), 2.0);
  EXPECT_EQ(parsed->Find("readmissions")->number(), 1.0);
  const auto& replicas = parsed->Find("replicas")->array();
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0].Find("port")->number(), 7001.0);
  EXPECT_EQ(std::string(replicas[0].Find("state")->string()), "healthy");
  EXPECT_EQ(replicas[0].Find("forwards")->number(), 600.0);
  EXPECT_EQ(replicas[1].Find("port")->number(), 7002.0);
  EXPECT_EQ(std::string(replicas[1].Find("state")->string()), "ejected");
  EXPECT_EQ(replicas[1].Find("failures")->number(), 12.0);
  EXPECT_EQ(replicas[1].Find("ejections")->number(), 2.0);
  EXPECT_EQ(replicas[1].Find("readmissions")->number(), 1.0);
}

// ------------------------------------------------- rendezvous routing

TEST(FleetRouteOrderTest, DeterministicPermutationPerKey) {
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                       uint64_t{1} << 40}) {
    std::vector<uint32_t> a, b;
    FleetRouteOrder(key, 5, &a);
    FleetRouteOrder(key, 5, &b);
    EXPECT_EQ(a, b) << key;
    std::vector<uint32_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<uint32_t>{0, 1, 2, 3, 4})) << key;
  }
}

TEST(FleetRouteOrderTest, BalancedAndMinimallyDisruptive) {
  constexpr uint32_t kReplicas = 4;
  constexpr uint64_t kKeys = 4000;
  std::vector<uint32_t> first_counts(kReplicas, 0);
  uint64_t moved = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    std::vector<uint32_t> order;
    FleetRouteOrder(key, kReplicas, &order);
    ++first_counts[order[0]];
    // Ejecting replica 2 must only move the keys it owned: every other
    // key's first healthy choice is unchanged (the order is a filter,
    // not a reshuffle).
    if (order[0] == 2) {
      ++moved;
      EXPECT_NE(order[1], 2u);
    }
  }
  for (uint32_t r = 0; r < kReplicas; ++r) {
    EXPECT_GT(first_counts[r], kKeys / kReplicas / 2) << r;
    EXPECT_LT(first_counts[r], kKeys / kReplicas * 2) << r;
  }
  // Roughly 1/kReplicas of the keyspace moves on one ejection.
  EXPECT_GT(moved, kKeys / kReplicas / 2);
  EXPECT_LT(moved, kKeys / kReplicas * 2);
}

// ------------------------------------------- in-process fleet serving

/// Same deterministic fixture the daemon tests use.
struct DaemonFixture {
  CsrMatrix train;
  OcularConfig config;
  OcularModel model;
  std::string model_path;

  static DaemonFixture Make(const std::string& file, uint64_t seed = 11,
                            uint32_t sweeps = 6) {
    DaemonFixture f;
    f.train = test::RandomCsr(50, 30, 400, 11);
    f.config.k = 5;
    f.config.lambda = 0.5;
    f.config.max_sweeps = sweeps;
    f.config.seed = seed;
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

/// The offline oracle for `model` under `train` exclusions at top-`m`.
std::vector<std::vector<ScoredItem>> Oracle(const OcularModel& model,
                                            const CsrMatrix& train,
                                            uint32_t m) {
  OcularModelRecommender rec(model);
  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  return RecommendForAllUsers(rec, train, batch).value().recommendations;
}

/// One in-process ocular_served replica: registry + RequestServer on a
/// kernel-assigned loopback port, its TCP loop on a private thread.
struct InProcessReplica {
  ModelRegistry registry;
  std::unique_ptr<RequestServer> server;
  std::thread thread;
  uint16_t port = 0;

  bool Start(const DaemonFixture& f, uint32_t io_timeout_ms = 100) {
    if (!registry.Load("default", f.model_path, f.shared_train()).ok()) {
      return false;
    }
    RequestServer::Options options;
    options.num_workers = 2;
    options.io_timeout_ms = io_timeout_ms;
    options.update_journal = false;
    server = std::make_unique<RequestServer>(&registry, options);
    thread = std::thread([this] {
      EXPECT_TRUE(server->RunTcpLoop(0, 0).ok());
    });
    for (int ms = 0; ms < 10000; ++ms) {
      port = server->bound_port();
      if (port != 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// One RequestShutdown drains every in-process loop, so a second
  /// Drain finds its replica already gone.
  void Drain() {
    if (!thread.joinable()) return;
    LineServer::RequestShutdown();
    thread.join();
  }
};

uint16_t WaitForFleetPort(const FleetServer& fleet) {
  for (int ms = 0; ms < 10000; ++ms) {
    const uint16_t port = fleet.bound_port();
    if (port != 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return 0;
}

TEST(FleetServerTest, FrontTierVerbsAndBitIdenticalForwarding) {
  DaemonFixture f = DaemonFixture::Make("fleet_inproc.oclr");
  const auto expect = Oracle(f.model, f.train, 5);

  InProcessReplica replicas[2];
  ASSERT_TRUE(replicas[0].Start(f));
  ASSERT_TRUE(replicas[1].Start(f));

  FleetServer::Options options;
  options.replicas = {replicas[0].port, replicas[1].port};
  options.num_workers = 2;
  options.io_timeout_ms = 2000;
  options.probe_interval_ms = 100;
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] {
    EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
  });
  const uint16_t port = WaitForFleetPort(fleet);
  ASSERT_NE(port, 0);

  RawClient c;
  ASSERT_TRUE(c.Connect(port));
  std::string line;

  // ping answers for the fleet itself, not a replica.
  ASSERT_TRUE(c.Send(R"({"cmd":"ping"})"));
  ASSERT_TRUE(c.ReadLine(&line));
  auto ping = JsonValue::Parse(line);
  ASSERT_TRUE(ping.ok()) << line;
  EXPECT_TRUE(ping->Find("ok")->boolean());
  ASSERT_NE(ping->Find("fleet"), nullptr);
  EXPECT_TRUE(ping->Find("fleet")->boolean());
  EXPECT_EQ(ping->Find("replicas")->number(), 2.0);
  EXPECT_EQ(ping->Find("healthy")->number(), 2.0);

  // Mutating verbs are refused, not forwarded: routing them to one
  // replica would fork the fleet's models.
  for (const char* verb : {R"({"cmd":"update","adds":[[50,0]]})",
                           R"({"cmd":"reload"})"}) {
    ASSERT_TRUE(c.Send(verb));
    ASSERT_TRUE(c.ReadLine(&line));
    auto reply = JsonValue::Parse(line);
    ASSERT_TRUE(reply.ok()) << line;
    EXPECT_FALSE(reply->Find("ok")->boolean());
    ASSERT_NE(reply->Find("code"), nullptr);
    EXPECT_EQ(reply->Find("code")->number(), 501.0);
  }

  // Every user's recommend through the fleet is bit-identical to the
  // offline oracle — the proxy relays replica bytes verbatim, so the
  // single-daemon serving contract survives the extra hop.
  for (uint32_t u = 0; u < f.train.num_rows(); ++u) {
    ASSERT_TRUE(c.Send(R"({"cmd":"recommend","user":)" + std::to_string(u) +
                       R"(,"m":5})"));
    ASSERT_TRUE(c.ReadLine(&line)) << "u=" << u;
    EXPECT_TRUE(ReplyMatchesRanked(line, expect[u])) << "u=" << u << " " << line;
  }

  // A `user` the daemon rejects (not an integer in [0, UINT32_MAX]) is no
  // routing key: it round-robins, and the replica's error reply comes
  // back byte-identical to a direct connection's.
  RawClient direct;
  ASSERT_TRUE(direct.Connect(replicas[0].port));
  for (const char* user : {"1e300", "2.5", "-1", "4294967296"}) {
    const std::string request =
        std::string(R"({"cmd":"recommend","user":)") + user + R"(,"m":5})";
    std::string via_replica;
    ASSERT_TRUE(c.Send(request));
    ASSERT_TRUE(c.ReadLine(&line));
    ASSERT_TRUE(direct.Send(request));
    ASSERT_TRUE(direct.ReadLine(&via_replica));
    EXPECT_EQ(line, via_replica) << user;
  }
  direct.Close();

  // A user-less verb (models) round-robins and still answers.
  ASSERT_TRUE(c.Send(R"({"cmd":"models"})"));
  ASSERT_TRUE(c.ReadLine(&line));
  auto models = JsonValue::Parse(line);
  ASSERT_TRUE(models.ok()) << line;
  EXPECT_TRUE(models->Find("ok")->boolean());
  EXPECT_EQ(models->Find("models")->array().size(), 1u);

  // Garbage is forwarded so the replica's parser owns the error shape.
  ASSERT_TRUE(c.Send("this is not json"));
  ASSERT_TRUE(c.ReadLine(&line));
  auto err = JsonValue::Parse(line);
  ASSERT_TRUE(err.ok()) << line;
  EXPECT_FALSE(err->Find("ok")->boolean());
  ASSERT_NE(err->Find("error"), nullptr);

  // The fleet's stats verb reports the proxy counters.
  ASSERT_TRUE(c.Send(R"({"cmd":"stats"})"));
  ASSERT_TRUE(c.ReadLine(&line));
  auto stats = JsonValue::Parse(line);
  ASSERT_TRUE(stats.ok()) << line;
  EXPECT_TRUE(stats->Find("fleet")->boolean());
  EXPECT_GE(stats->Find("requests_proxied")->number(), 50.0);
  EXPECT_EQ(stats->Find("rejected_verbs")->number(), 2.0);
  EXPECT_EQ(stats->Find("failovers")->number(), 0.0);
  EXPECT_EQ(stats->Find("no_healthy_503s")->number(), 0.0);
  ASSERT_EQ(stats->Find("replicas")->array().size(), 2u);
  double forwards = 0;
  for (const JsonValue& r : stats->Find("replicas")->array()) {
    EXPECT_EQ(r.Find("state")->string(), "healthy");
    forwards += r.Find("forwards")->number();
  }
  EXPECT_GE(forwards, 51.0);  // 50 recommends + models (+ probes)

  // quit ends the connection with a bye.
  ASSERT_TRUE(c.Send(R"({"cmd":"quit"})"));
  ASSERT_TRUE(c.ReadLine(&line));
  auto bye = JsonValue::Parse(line);
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye->Find("bye")->boolean());
  EXPECT_FALSE(c.ReadLine(&line));
  c.Close();

  const FleetStatsSnapshot snapshot = fleet.Stats();
  for (const FleetReplicaStats& replica : snapshot.replicas) {
    EXPECT_EQ(replica.ejections, 0u);
  }
  EXPECT_EQ(snapshot.fleet[FleetMetrics::kHedgesSent], 0u);

  fleet.Stop();
  fleet_thread.join();
  replicas[0].Drain();
  replicas[1].Drain();
  EXPECT_FALSE(ShutdownWatch().Requested());
  f.Cleanup();
}

TEST(FleetServerTest, NoHealthyReplicaAnswers503InsteadOfHanging) {
  // A fleet whose only replica never existed: the first request pays the
  // failed forward and still gets a prompt 503 with a retry hint; once
  // the prober ejects the corpse, requests shed without even trying.
  FleetServer::Options options;
  options.replicas = {1};  // port 1: connect refused immediately
  options.num_workers = 1;
  options.io_timeout_ms = 300;
  options.probe_interval_ms = 50;
  options.retry_after_ms = 70;
  options.health.fail_threshold = 2;
  options.health.reopen_after_ms = 5000;  // stays ejected for the test
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] {
    EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
  });
  const uint16_t port = WaitForFleetPort(fleet);
  ASSERT_NE(port, 0);

  const auto start = std::chrono::steady_clock::now();
  RawClient c;
  ASSERT_TRUE(c.Connect(port));
  std::string line;
  ASSERT_TRUE(c.Send(R"({"cmd":"recommend","user":3,"m":4})"));
  ASSERT_TRUE(c.ReadLine(&line)) << "the fleet must answer, not hang";
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 2000) << "503 must be prompt";
  auto reply = JsonValue::Parse(line);
  ASSERT_TRUE(reply.ok()) << line;
  EXPECT_FALSE(reply->Find("ok")->boolean());
  ASSERT_NE(reply->Find("code"), nullptr);
  EXPECT_EQ(reply->Find("code")->number(), 503.0);
  ASSERT_NE(reply->Find("retry_after_ms"), nullptr);
  EXPECT_GE(reply->Find("retry_after_ms")->number(), 1.0);
  EXPECT_LE(reply->Find("retry_after_ms")->number(),
            static_cast<double>(retry::kMaxRetryAfterHintMs));

  // The prober ejects the dead replica (exactly once), and ejected-state
  // requests shed without a forward attempt.
  FleetStatsSnapshot snapshot;
  for (int waited = 0; waited < 10000; waited += 20) {
    snapshot = fleet.Stats();
    if (snapshot.replicas[0].state == ReplicaState::kEjected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(snapshot.replicas[0].state, ReplicaState::kEjected);
  EXPECT_EQ(snapshot.replicas[0].ejections, 1u);

  ASSERT_TRUE(c.Send(R"({"cmd":"recommend","user":4,"m":4})"));
  ASSERT_TRUE(c.ReadLine(&line));
  reply = JsonValue::Parse(line);
  ASSERT_TRUE(reply.ok()) << line;
  EXPECT_EQ(reply->Find("code")->number(), 503.0);
  c.Close();

  EXPECT_GE(fleet.Stats().fleet[FleetMetrics::kNoHealthy503s], 2u);
  fleet.Stop();
  fleet_thread.join();
}

// ------------------------------------------------------ stats replies

/// Checks every key of the `stats` reply `line` against `want`, except
/// the keys in `skip` (timings) and "replicas" (checked by the caller):
/// no key missing, none extra, every value equal. Booleans compare as
/// 0/1.
void ExpectStatsKeys(const std::string& line,
                     const std::vector<std::pair<std::string, double>>& want,
                     const std::vector<std::string>& skip) {
  auto reply = JsonValue::Parse(line);
  ASSERT_TRUE(reply.ok()) << line;
  std::vector<std::string> seen;
  for (const auto& [key, value] : reply->members()) {
    if (key == "replicas" ||
        std::find(skip.begin(), skip.end(), key) != skip.end()) {
      continue;
    }
    seen.push_back(key);
    const auto it =
        std::find_if(want.begin(), want.end(),
                     [&key](const auto& kv) { return kv.first == key; });
    if (it == want.end()) {
      ADD_FAILURE() << "unexpected key " << key << " in " << line;
      continue;
    }
    const double got = value.is_bool() ? (value.boolean() ? 1.0 : 0.0)
                                       : value.number();
    EXPECT_EQ(got, it->second) << key << " in " << line;
  }
  for (const auto& [key, value] : want) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), key), seen.end())
        << "missing key " << key << " in " << line;
  }
}

TEST(ShutdownTest, OneRequestDrainsEveryLoopAndEachPrintsItsLine) {
  // Two daemon loops and a fleet loop in one process: one RequestShutdown
  // must end all three, and each must print its own final line (no loop
  // can take the request from another).
  DaemonFixture f = DaemonFixture::Make("fleet_drain_all.oclr");
  for (int rep = 0; rep < 50; ++rep) {
    SCOPED_TRACE(rep);
    InProcessReplica replicas[2];
    ASSERT_TRUE(replicas[0].Start(f, /*io_timeout_ms=*/10));
    ASSERT_TRUE(replicas[1].Start(f, /*io_timeout_ms=*/10));
    FleetServer::Options options;
    options.replicas = {replicas[0].port, replicas[1].port};
    options.num_workers = 1;
    options.io_timeout_ms = 10;
    options.probe_interval_ms = 5;
    FleetServer fleet(options);
    std::thread fleet_thread([&fleet] {
      EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
    });
    ASSERT_NE(WaitForFleetPort(fleet), 0);

    ::testing::internal::CaptureStderr();
    LineServer::RequestShutdown();
    replicas[0].thread.join();
    replicas[1].thread.join();
    fleet_thread.join();
    const std::string printed = ::testing::internal::GetCapturedStderr();
    int daemon_lines = 0;
    int fleet_lines = 0;
    std::istringstream lines(printed);
    for (std::string line; std::getline(lines, line);) {
      daemon_lines += line.starts_with("drained: ") ? 1 : 0;
      fleet_lines += line.starts_with("fleet drained: ") ? 1 : 0;
    }
    ASSERT_EQ(daemon_lines, 2) << printed;
    ASSERT_EQ(fleet_lines, 1) << printed;
  }
  // A loop made after the request serves: nothing is left pending.
  EXPECT_FALSE(ShutdownWatch().Requested());
  f.Cleanup();
}

TEST(StatsReplyTest, DaemonSessionReportsEveryCounter) {
  DaemonFixture f = DaemonFixture::Make("stats_reply.oclr");
  const std::string sharded = TempPath("stats_reply.shardset");
  {
    auto store = ModelStore::Open(f.model_path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(SaveModelSharded(store->meta(), store->user_factors(),
                                 store->item_factors_t(), 2, sharded)
                    .ok());
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  ASSERT_TRUE(registry.Load("sharded", sharded).ok());
  RequestServer::Options options;
  options.num_workers = 2;
  RequestServer server(&registry, options);

  // One line per counter: a stored user, a stored user of a sharded
  // binding, a history holding an id past the 30-item catalog, a line
  // that is no JSON, an update on the dataset-bound model, a reload.
  for (const char* line :
       {R"({"cmd":"recommend","user":3,"m":5})",
        R"({"cmd":"recommend","model":"sharded","user":40,"m":5})",
        R"({"cmd":"recommend","history":[1,5,999],"m":5})",
        "this is not json", R"({"cmd":"update","adds":[[3,7],[12,4]]})",
        R"({"cmd":"reload"})"}) {
    server.HandleLine(line);
  }
  // A daemon counts a request once it has answered it: the first `stats`
  // reply leaves itself out, the second counts the first.
  std::vector<std::pair<std::string, double>> want = {
      {"ok", 1},
      {"models_loaded", 2},
      {"workers", 2},
      {"requests_served", 6},
      {"errors", 1},
      {"reloads", 1},
      {"fold_in_requests", 1},
      {"history_dropped_ids", 1},
      {"shard_requests", 1},
      {"updates", 1},
      {"journal_recovered", 0},
      {"journal_replays", 0},
      {"connections_shed", 0},
      {"connections_timed_out", 0},
      {"connections_open", 0},
      {"connections_capped", 0},
      {"connections_slow_closed", 0},
      {"accept_emfile", 0},
      {"peak_outbound_bytes", 0},
  };
  const std::vector<std::string> timings = {"p50_latency_us",
                                            "p99_latency_us"};
  ExpectStatsKeys(server.HandleLine(R"({"cmd":"stats"})"), want, timings);
  want[3].second = 7;
  ExpectStatsKeys(server.HandleLine(R"({"cmd":"stats"})"), want, timings);
  f.Cleanup();
}

TEST(StatsReplyTest, FleetSessionReportsEveryCounter) {
  DaemonFixture f = DaemonFixture::Make("stats_reply_fleet.oclr");
  InProcessReplica replicas[2];
  ASSERT_TRUE(replicas[0].Start(f));
  ASSERT_TRUE(replicas[1].Start(f));
  FleetServer::Options options;
  options.replicas = {replicas[0].port, replicas[1].port};
  options.num_workers = 2;
  std::vector<std::string> replies;
  {
    // No RunLoop: no prober and no front door, so the probe and
    // connection counters stay 0 and every other value is exact.
    FleetServer fleet(options);
    for (const char* line :
         {R"({"cmd":"recommend","user":3,"m":5})",
          R"({"cmd":"recommend","user":17,"m":5})",
          R"({"cmd":"recommend","user":40,"m":5})",
          R"({"cmd":"recommend","history":[1,5],"m":5})",
          R"({"cmd":"models"})", R"({"cmd":"update","adds":[[3,7]]})",
          R"({"cmd":"stats"})", R"({"cmd":"stats"})"}) {
      replies.push_back(fleet.HandleLine(line));
    }
  }
  // Five forwards, one refused update: the fleet counts a request before
  // it answers it, so each `stats` reply counts itself.
  std::vector<std::pair<std::string, double>> want = {
      {"ok", 1},
      {"fleet", 1},
      {"requests_proxied", 7},
      {"failovers", 0},
      {"hedges_sent", 0},
      {"hedges_won", 0},
      {"no_healthy_503s", 0},
      {"rejected_verbs", 1},
      {"probes_sent", 0},
      {"probe_failures", 0},
      {"connections_shed", 0},
      {"connections_timed_out", 0},
      {"connections_open", 0},
      {"connections_capped", 0},
      {"connections_slow_closed", 0},
      {"accept_emfile", 0},
      {"peak_outbound_bytes", 0},
      {"ejections", 0},
      {"readmissions", 0},
  };
  ExpectStatsKeys(replies[6], want, {});
  want[2].second = 8;
  ExpectStatsKeys(replies[7], want, {});

  // The per-replica rows keep their shape: six keys each, healthy, the
  // five forwards split between the two replicas.
  auto stats = JsonValue::Parse(replies[7]);
  ASSERT_TRUE(stats.ok()) << replies[7];
  const auto& rows = stats->Find("replicas")->array();
  ASSERT_EQ(rows.size(), 2u);
  double forwards = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(rows[r].members().size(), 6u) << replies[7];
    EXPECT_EQ(rows[r].Find("port")->number(), replicas[r].port);
    EXPECT_EQ(rows[r].Find("state")->string(), "healthy");
    EXPECT_EQ(rows[r].Find("failures")->number(), 0.0);
    EXPECT_EQ(rows[r].Find("ejections")->number(), 0.0);
    EXPECT_EQ(rows[r].Find("readmissions")->number(), 0.0);
    forwards += rows[r].Find("forwards")->number();
  }
  EXPECT_EQ(forwards, 5.0);

  replicas[0].Drain();
  replicas[1].Drain();
  f.Cleanup();
}

// ------------------------------------------------ fork/exec chaos drills

#ifndef OCULAR_TSAN

/// Writes `train` as the daemon's dataset and returns the loader's view.
CsrMatrix WriteAndReloadDataset(const CsrMatrix& train,
                                const std::string& path) {
  std::ofstream out(path);
  for (auto [u, i] : train.ToPairs()) out << u << '\t' << i << '\n';
  out.close();
  CsvOptions opts;
  opts.delimiter = '\t';
  opts.compact_ids = false;
  auto ds = LoadCsv(path, opts);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return ds->interactions();
}

std::vector<std::string> ReplicaArgs(const DaemonFixture& f,
                                     const std::string& dataset_path,
                                     uint16_t port) {
  return {
      "--models=default=" + f.model_path,
      "--datasets=default=" + dataset_path,
      "--port=" + std::to_string(port),
      "--io-timeout-ms=100",
      "--journal=0",  // replicas share the artifact; no journal races
      // The epoll core multiplexes every connection on one IO thread:
      // the fleet's pinned keep-alive sockets and the health prober cost
      // no worker while idle, so two workers serve them all — the
      // SIGKILL drill below doubles as the regression test that probes
      // are never starved into false ejections by slim replicas.
      "--workers=2",
  };
}

TEST(FleetChaosTest, SigkillOneReplicaMidBurstIsInvisibleToClients) {
  DaemonFixture f = DaemonFixture::Make("fleet_kill.oclr");
  const std::string dataset_path = TempPath("fleet_kill.tsv");
  const CsrMatrix train = WriteAndReloadDataset(f.train, dataset_path);
  const auto expect = Oracle(f.model, train, 5);

  uint16_t ports[3] = {FreePort(), FreePort(), FreePort()};
  std::unique_ptr<ServedProcess> replicas[3];
  for (int r = 0; r < 3; ++r) {
    ASSERT_NE(ports[r], 0);
    replicas[r] = std::make_unique<ServedProcess>(ServedProcess::Start(
        ReplicaArgs(f, dataset_path, ports[r]), "",
        TempPath("fleet_kill_stderr" + std::to_string(r) + ".log")));
    ASSERT_TRUE(WaitForServing(ports[r], replicas[r].get())) << r;
  }

  FleetServer::Options options;
  options.replicas = {ports[0], ports[1], ports[2]};
  options.num_workers = 4;
  options.io_timeout_ms = 2000;
  options.probe_interval_ms = 100;
  options.health.fail_threshold = 3;
  options.health.reopen_after_ms = 200;
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] {
    EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
  });
  const uint16_t fleet_port = WaitForFleetPort(fleet);
  ASSERT_NE(fleet_port, 0);

  // 4 pipelined clients; after 100 replies the kill thread SIGKILLs
  // replica 1 mid-burst. Every reply must still arrive, ok, and
  // bit-identical to the offline oracle.
  std::atomic<uint64_t> replies{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<bool> killed{false};
  LoadGenOptions load;
  load.port = fleet_port;
  load.clients = 4;
  load.requests_per_client = 150;
  load.pipeline = 8;
  load.m = 5;
  load.num_users = 50;
  load.reconnect_on_close = true;
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatchesRanked(line, expect[user])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
    if (replies.fetch_add(1, std::memory_order_relaxed) + 1 == 100 &&
        !killed.exchange(true)) {
      ::kill(replicas[1]->pid, SIGKILL);
    }
  };
  auto result = RunLoadGen(load);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(killed.load()) << "the drill never reached the kill trigger";
  EXPECT_EQ(result->requests, 600u);
  EXPECT_EQ(result->ok_replies, 600u);
  EXPECT_EQ(result->error_replies, 0u) << "zero client-visible errors";
  EXPECT_EQ(mismatches.load(), 0u) << "every reply bit-identical";
  replicas[1]->Wait();

  // The dead replica is ejected exactly once (failed reopen probes of the
  // same outage must not inflate the counter).
  FleetStatsSnapshot snapshot;
  for (int waited = 0; waited < 15000; waited += 50) {
    snapshot = fleet.Stats();
    if (snapshot.replicas[1].state == ReplicaState::kEjected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(snapshot.replicas[1].state, ReplicaState::kEjected);
  EXPECT_EQ(snapshot.replicas[1].ejections, 1u);
  EXPECT_EQ(snapshot.replicas[1].readmissions, 0u);
  EXPECT_GE(snapshot.fleet[FleetMetrics::kFailovers], 1u)
      << "requests in flight against the corpse must have failed over";
  EXPECT_EQ(snapshot.fleet[FleetMetrics::kNoHealthy503s], 0u);

  // Restart the replica on its port: the half-open probe readmits it,
  // exactly once.
  replicas[1] = std::make_unique<ServedProcess>(ServedProcess::Start(
      ReplicaArgs(f, dataset_path, ports[1]), "",
      TempPath("fleet_kill_stderr1b.log")));
  ASSERT_TRUE(WaitForServing(ports[1], replicas[1].get()));
  for (int waited = 0; waited < 20000; waited += 50) {
    snapshot = fleet.Stats();
    if (snapshot.replicas[1].readmissions == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(snapshot.replicas[1].state, ReplicaState::kHealthy);
  EXPECT_EQ(snapshot.replicas[1].ejections, 1u);
  EXPECT_EQ(snapshot.replicas[1].readmissions, 1u);

  // A post-recovery pass is clean: full fleet, no failures, no sheds.
  replies.store(0);
  const uint64_t failovers_before = snapshot.fleet[FleetMetrics::kFailovers];
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatchesRanked(line, expect[user])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  result = RunLoadGen(load);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  snapshot = fleet.Stats();
  EXPECT_EQ(snapshot.fleet[FleetMetrics::kFailovers], failovers_before);
  EXPECT_EQ(snapshot.replicas[1].ejections, 1u);

  fleet.Stop();
  fleet_thread.join();
  std::remove(dataset_path.c_str());
  f.Cleanup();
}

TEST(FleetChaosTest, DaemonHandleKillWindowIsAbsorbedByFailover) {
  // The nastier kill: the replica dies *inside* HandleLine, after the
  // fleet has sent the request — the forward sees EOF mid-reply, not a
  // refused connect, and must fail over without the client noticing.
  DaemonFixture f = DaemonFixture::Make("fleet_killwin.oclr");
  const std::string dataset_path = TempPath("fleet_killwin.tsv");
  const CsrMatrix train = WriteAndReloadDataset(f.train, dataset_path);
  const auto expect = Oracle(f.model, train, 5);

  uint16_t ports[2] = {FreePort(), FreePort()};
  ASSERT_NE(ports[0], 0);
  ASSERT_NE(ports[1], 0);
  ServedProcess healthy = ServedProcess::Start(
      ReplicaArgs(f, dataset_path, ports[0]), "",
      TempPath("fleet_killwin_stderr0.log"));
  ASSERT_TRUE(WaitForServing(ports[0], &healthy));
  // The 40th handled request (fleet probes included) SIGKILLs mid-handle.
  ServedProcess doomed = ServedProcess::Start(
      ReplicaArgs(f, dataset_path, ports[1]), "daemon.handle=kill@40",
      TempPath("fleet_killwin_stderr1.log"));
  ASSERT_TRUE(WaitForServing(ports[1], &doomed));

  FleetServer::Options options;
  options.replicas = {ports[0], ports[1]};
  options.num_workers = 4;
  options.io_timeout_ms = 2000;
  options.probe_interval_ms = 100;
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] {
    EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
  });
  const uint16_t fleet_port = WaitForFleetPort(fleet);
  ASSERT_NE(fleet_port, 0);

  std::atomic<uint64_t> mismatches{0};
  LoadGenOptions load;
  load.port = fleet_port;
  load.clients = 4;
  load.requests_per_client = 100;
  load.pipeline = 4;
  load.m = 5;
  load.num_users = 50;
  load.reconnect_on_close = true;
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatchesRanked(line, expect[user])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto result = RunLoadGen(load);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, 400u);
  EXPECT_EQ(result->ok_replies, 400u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  // The armed replica did die by SIGKILL inside the window.
  const int status = doomed.Wait();
  ASSERT_NE(status, -1) << "the kill window never fired";
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  FleetStatsSnapshot snapshot;
  for (int waited = 0; waited < 15000; waited += 50) {
    snapshot = fleet.Stats();
    if (snapshot.replicas[1].state == ReplicaState::kEjected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(snapshot.replicas[1].state, ReplicaState::kEjected);
  EXPECT_EQ(snapshot.replicas[1].ejections, 1u);
  EXPECT_GE(snapshot.fleet[FleetMetrics::kFailovers], 1u);

  fleet.Stop();
  fleet_thread.join();
  std::remove(dataset_path.c_str());
  f.Cleanup();
}

TEST(FleetChaosTest, HedgeWinsAgainstAStalledReplica) {
  // A replica that is alive but wedged: every HandleLine stalls 1000 ms
  // (the daemon.handle fault point in stall mode). With --hedge-after-ms
  // the fleet issues a copy to the second replica at 100 ms and takes its
  // reply — the client sees sub-stall latency and a bit-identical answer.
  DaemonFixture f = DaemonFixture::Make("fleet_hedge.oclr");
  const std::string dataset_path = TempPath("fleet_hedge.tsv");
  const CsrMatrix train = WriteAndReloadDataset(f.train, dataset_path);
  const auto expect = Oracle(f.model, train, 5);

  uint16_t ports[2] = {FreePort(), FreePort()};
  ASSERT_NE(ports[0], 0);
  ASSERT_NE(ports[1], 0);
  ServedProcess fast = ServedProcess::Start(
      ReplicaArgs(f, dataset_path, ports[0]), "",
      TempPath("fleet_hedge_stderr0.log"));
  ASSERT_TRUE(WaitForServing(ports[0], &fast));
  // Stall mode: the point fires on (practically) every call, each one a
  // 1000 ms sleep inside HandleLine.
  ServedProcess stalled = ServedProcess::Start(
      ReplicaArgs(f, dataset_path, ports[1]), "daemon.handle=1000000",
      TempPath("fleet_hedge_stderr1.log"));
  ASSERT_TRUE(WaitForServing(ports[1], &stalled));

  FleetServer::Options options;
  options.replicas = {ports[0], ports[1]};
  options.num_workers = 2;
  options.io_timeout_ms = 3000;   // > the stall: never counts a failure
  options.hedge_after_ms = 100;
  options.probe_interval_ms = 30000;    // probes stay out of the way
  options.health.fail_threshold = 1000;  // hedging, not ejection
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] {
    EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
  });
  const uint16_t fleet_port = WaitForFleetPort(fleet);
  ASSERT_NE(fleet_port, 0);

  // Users whose rendezvous primary is the stalled replica exercise the
  // hedge; there must be one among the first handful of users.
  std::vector<uint32_t> stalled_primary_users;
  for (uint32_t u = 0; u < 50 && stalled_primary_users.size() < 3; ++u) {
    std::vector<uint32_t> order;
    FleetRouteOrder(u, 2, &order);
    if (order[0] == 1) stalled_primary_users.push_back(u);
  }
  ASSERT_FALSE(stalled_primary_users.empty());

  RawClient c;
  ASSERT_TRUE(c.Connect(fleet_port));
  for (const uint32_t u : stalled_primary_users) {
    const auto start = std::chrono::steady_clock::now();
    std::string line;
    ASSERT_TRUE(c.Send(R"({"cmd":"recommend","user":)" + std::to_string(u) +
                       R"(,"m":5})"));
    ASSERT_TRUE(c.ReadLine(&line)) << "u=" << u;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_TRUE(ReplyMatchesRanked(line, expect[u])) << "u=" << u << " " << line;
    // The stall is 1000 ms; a won hedge answers in ~hedge_after_ms plus
    // one fast replica round trip.
    EXPECT_LT(elapsed.count(), 900) << "u=" << u
                                    << ": hedge should beat the stall";
  }
  c.Close();

  const FleetStatsSnapshot snapshot = fleet.Stats();
  EXPECT_GE(snapshot.fleet[FleetMetrics::kHedgesSent],
            stalled_primary_users.size());
  EXPECT_GE(snapshot.fleet[FleetMetrics::kHedgesWon],
            stalled_primary_users.size());
  EXPECT_EQ(snapshot.replicas[1].ejections, 0u)
      << "a stalled-but-alive replica must not be ejected by hedging";

  fleet.Stop();
  fleet_thread.join();
  std::remove(dataset_path.c_str());
  f.Cleanup();
}

#endif  // OCULAR_TSAN

}  // namespace
}  // namespace ocular
