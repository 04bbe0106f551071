// Replicated-fleet robustness benchmark: throughput through the
// FleetServer front tier over 3 real ocular_served replicas, with a
// SIGKILL of one replica mid-run — the number this PR's robustness claim
// hangs on is not the steady rate but what survives the kill: the
// kill-run must finish with ZERO client-visible errors (failover absorbs
// the corpse), the degraded fleet keeps serving, and the restarted
// replica is readmitted within a bounded recovery time.
//
// Phases: one validated pass (every reply checked against the offline
// RecommendForAllUsers oracle — the proxy relays replica bytes verbatim,
// so the bit-identical contract must survive the extra hop), steady
// passes over the full fleet, a kill pass (replica 1 SIGKILLed after a
// quarter of the replies), degraded passes over the surviving two
// replicas, then a restart with the readmission clock running.
//
// The record (bench/bench_util.h) holds steady/kill/degraded/recovered
// req/s, the degraded-over-steady retention ratio, and recovery_ms
// (replica exec to health readmission). --baseline gates on retention
// (floor = 0.5x the recorded ratio — it folds in scheduler noise) and on
// recovery_ms (ceiling = 5x recorded + 1000 ms — dominated by configured
// probe and reopen delays, so it transfers across machines);
// --max-recovery-ms adds an absolute ceiling. Any client-visible error
// anywhere fails the bench outright.

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "serving/fleet.h"
#include "serving/loadgen.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

#ifndef OCULAR_SERVED_PATH
#define OCULAR_SERVED_PATH "ocular_served"
#endif

namespace ocular {
namespace bench {
namespace {

uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  OCULAR_CHECK(fd >= 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  OCULAR_CHECK(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  socklen_t len = sizeof(addr);
  OCULAR_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                             &len) == 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// One ocular_served replica as a child process (move-only: the
/// destructor SIGKILLs whatever it still owns).
struct Replica {
  pid_t pid = -1;

  Replica() = default;
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;
  Replica(Replica&& other) noexcept : pid(other.pid) { other.pid = -1; }
  Replica& operator=(Replica&& other) noexcept {
    if (this != &other) {
      KillHard();
      pid = other.pid;
      other.pid = -1;
    }
    return *this;
  }
  ~Replica() { KillHard(); }

  static Replica Spawn(const std::string& model_path,
                       const std::string& dataset_path, uint16_t port,
                       size_t workers) {
    std::vector<std::string> args = {
        OCULAR_SERVED_PATH,
        "--models=default=" + model_path,
        "--datasets=default=" + dataset_path,
        "--port=" + std::to_string(port),
        "--journal=0",
        "--workers=" + std::to_string(workers),
    };
    Replica r;
    r.pid = ::fork();
    OCULAR_CHECK(r.pid >= 0);
    if (r.pid == 0) {
      const int null = ::open("/dev/null", O_WRONLY);
      if (null >= 0) {
        ::dup2(null, 2);
        ::close(null);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(OCULAR_SERVED_PATH, argv.data());
      ::_exit(127);
    }
    return r;
  }

  void KillHard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
};

bool WaitForPort(uint16_t port, int timeout_ms = 20000) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                             sizeof(addr)) == 0) {
      ::close(fd);
      return true;
    }
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

struct FleetBenchResult {
  double steady_rps = 0.0;
  double kill_run_rps = 0.0;
  double degraded_rps = 0.0;
  double recovered_rps = 0.0;
  double degraded_over_steady = 0.0;
  double recovery_ms = 0.0;
  uint64_t errors = 0;
  uint64_t failovers = 0;
  uint64_t mismatches = 0;
  bool lists_identical = false;
  std::string first_mismatch;
};

const FlagTable kFlags = {
    "bench_fleet",
    "Fleet throughput over 3 replicas, with one SIGKILLed mid-run.",
    WithRecordFlags(
        {RealFlag("scale", 0.0, kNoUpperBound, "0.25",
                  "two-block workload scale"),
         IntFlag("k", 0, UINT32_MAX, "16", "co-clusters (K)"),
         IntFlag("m", 0, UINT32_MAX, "10", "top-M per request"),
         IntFlag("sweeps", 0, UINT32_MAX, "4", "training sweeps"),
         IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
         IntFlag("reps", 0, UINT32_MAX, "2", "timed repetitions"),
         IntFlag("warmup", 0, UINT32_MAX, "1", "untimed warm-up repetitions"),
         IntFlag("workers", 0, INT64_MAX, "4", "front-tier proxy threads"),
         IntFlag("clients", 0, UINT32_MAX, "4", "load clients"),
         IntFlag("requests", 0, INT64_MAX, "200", "requests per client"),
         IntFlag("pipeline", 0, UINT32_MAX, "8",
                 "requests in flight per client"),
         RealFlag("max-recovery-ms", 0.0, kNoUpperBound, "0",
                  "fail when readmission takes longer; 0 = no ceiling")},
        "BENCH_fleet.json")};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const uint32_t m = flags.Int<uint32_t>("m");
  const uint32_t sweeps = flags.Int<uint32_t>("sweeps");
  const uint64_t seed = flags.Int<uint64_t>("seed");
  const uint32_t reps = flags.Int<uint32_t>("reps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");
  const size_t workers = flags.Int<size_t>("workers");
  constexpr size_t kReplicas = 3;

  LoadGenOptions load;
  load.clients = flags.Int<uint32_t>("clients");
  load.requests_per_client = flags.Int<uint64_t>("requests");
  load.pipeline = flags.Int<uint32_t>("pipeline");
  load.m = m;
  load.reconnect_on_close = true;  // fleet mode: ride through resets

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  load.num_users = r.num_rows();
  std::printf(
      "fleet: %u users x %u items, nnz=%zu, K=%u, top-%u — %zu replicas, "
      "%u clients x %llu requests, pipeline %u, %u reps (+%u warmup)\n",
      r.num_rows(), r.num_cols(), r.nnz(), k, m, kReplicas, load.clients,
      static_cast<unsigned long long>(load.requests_per_client),
      load.pipeline, reps, warmup);

  OcularConfig config;
  config.k = k;
  config.lambda = 1.0;
  config.max_sweeps = sweeps;
  config.seed = seed + 1;
  OcularRecommender rec(config);
  OCULAR_CHECK(rec.Fit(r).ok());

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/ocular_bench_fleet";
  const std::string model_path = base + ".oclr";
  const std::string dataset_path = base + ".tsv";
  OCULAR_CHECK(SaveModelBinary(rec.model(), config, model_path).ok());
  {
    std::ofstream out(dataset_path);
    for (auto [u, i] : r.ToPairs()) out << u << '\t' << i << '\n';
  }

  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, r, batch).value();

  // Replica workers must exceed the fleet's pinned keep-alive
  // connections (workers + prober + inline) — a daemon worker owns its
  // connection until close.
  const size_t replica_workers = workers + 4;
  uint16_t ports[kReplicas];
  std::vector<Replica> replicas;
  for (size_t i = 0; i < kReplicas; ++i) {
    ports[i] = FreePort();
    replicas.push_back(
        Replica::Spawn(model_path, dataset_path, ports[i], replica_workers));
  }
  for (size_t i = 0; i < kReplicas; ++i) OCULAR_CHECK(WaitForPort(ports[i]));

  FleetServer::Options fleet_options;
  fleet_options.replicas = {ports[0], ports[1], ports[2]};
  fleet_options.num_workers = workers;
  fleet_options.io_timeout_ms = 2000;
  fleet_options.probe_interval_ms = 100;
  fleet_options.health.fail_threshold = 3;
  fleet_options.health.reopen_after_ms = 300;
  FleetServer fleet(fleet_options);
  std::thread fleet_thread(
      [&fleet] { OCULAR_CHECK(fleet.RunLoop(0, 0).ok()); });
  uint16_t fleet_port = 0;
  for (int ms = 0; ms < 10000 && (fleet_port = fleet.bound_port()) == 0;
       ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  OCULAR_CHECK(fleet_port != 0);
  load.port = fleet_port;

  FleetBenchResult res;

  // Validated pass: the bit-identical contract through the front tier.
  std::mutex mismatch_mu;
  LoadGenOptions validate = load;
  validate.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatchesRanked(line, oracle.recommendations[user])) {
      std::lock_guard<std::mutex> lock(mismatch_mu);
      ++res.mismatches;
      if (res.first_mismatch.empty()) {
        res.first_mismatch = "user " + std::to_string(user) + ": " + line;
      }
    }
  };
  {
    auto validated = RunLoadGen(validate);
    OCULAR_CHECK(validated.ok());
    res.errors += validated->error_replies;
    res.lists_identical = res.mismatches == 0 && validated->error_replies == 0;
  }
  if (!res.lists_identical) {
    std::fprintf(stderr,
                 "FAIL: %llu fleet replies differ from the oracle; first: "
                 "%s\n",
                 static_cast<unsigned long long>(res.mismatches),
                 res.first_mismatch.c_str());
    fleet.Stop();
    fleet_thread.join();
    std::remove(model_path.c_str());
    std::remove(dataset_path.c_str());
    return 1;
  }

  const auto timed_pass = [&](const LoadGenOptions& options) {
    auto pass = RunLoadGen(options);
    OCULAR_CHECK(pass.ok());
    res.errors += pass->error_replies;
    return pass->requests_per_second;
  };

  // Steady state: the full fleet.
  double steady_sum = 0.0;
  for (uint32_t run = 0; run < warmup + reps; ++run) {
    const double rps = timed_pass(load);
    if (run >= warmup) steady_sum += rps;
  }
  res.steady_rps = steady_sum / reps;

  // Kill run: replica 1 SIGKILLed after a quarter of the replies — the
  // pass must still complete with zero client-visible errors.
  const uint64_t total =
      static_cast<uint64_t>(load.clients) * load.requests_per_client;
  std::atomic<uint64_t> replies{0};
  std::atomic<bool> killed{false};
  LoadGenOptions kill_pass = load;
  kill_pass.on_reply = [&](uint32_t, const std::string&) {
    if (replies.fetch_add(1, std::memory_order_relaxed) + 1 == total / 4 &&
        !killed.exchange(true)) {
      ::kill(replicas[1].pid, SIGKILL);
    }
  };
  {
    auto pass = RunLoadGen(kill_pass);
    OCULAR_CHECK(pass.ok());
    res.errors += pass->error_replies;
    res.kill_run_rps = pass->requests_per_second;
  }
  OCULAR_CHECK(killed.load());
  ::waitpid(replicas[1].pid, nullptr, 0);
  replicas[1].pid = -1;

  // Degraded state: two survivors carry the load.
  double degraded_sum = 0.0;
  for (uint32_t run = 0; run < warmup + reps; ++run) {
    const double rps = timed_pass(load);
    if (run >= warmup) degraded_sum += rps;
  }
  res.degraded_rps = degraded_sum / reps;
  res.degraded_over_steady = res.degraded_rps / std::max(res.steady_rps, 1e-12);

  // Recovery: restart the replica on its port and clock the readmission
  // (process exec through half-open probe back to healthy).
  {
    Stopwatch watch;
    replicas[1] =
        Replica::Spawn(model_path, dataset_path, ports[1], replica_workers);
    OCULAR_CHECK(WaitForPort(ports[1]));
    bool readmitted = false;
    for (int waited = 0; waited < 30000; waited += 20) {
      const FleetStatsSnapshot snapshot = fleet.Stats();
      if (snapshot.replicas[1].readmissions >= 1) {
        readmitted = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    OCULAR_CHECK(readmitted);
    res.recovery_ms = watch.ElapsedSeconds() * 1000.0;
  }
  res.recovered_rps = timed_pass(load);

  const FleetStatsSnapshot snapshot = fleet.Stats();
  res.failovers = snapshot.fleet[FleetMetrics::kFailovers];
  fleet.Stop();
  fleet_thread.join();
  std::remove(model_path.c_str());
  std::remove(dataset_path.c_str());

  std::printf("  steady    : %10.0f req/s  (%zu replicas)\n", res.steady_rps,
              kReplicas);
  std::printf("  kill run  : %10.0f req/s  (replica 1 SIGKILLed mid-run, "
              "%llu failovers, %llu client errors)\n",
              res.kill_run_rps,
              static_cast<unsigned long long>(res.failovers),
              static_cast<unsigned long long>(res.errors));
  std::printf("  degraded  : %10.0f req/s  (%.2fx of steady)\n",
              res.degraded_rps, res.degraded_over_steady);
  std::printf("  recovery  : %10.0f ms     (restart to readmission)\n",
              res.recovery_ms);
  std::printf("  recovered : %10.0f req/s\n", res.recovered_rps);

  if (res.errors != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu client-visible errors — the failover story "
                 "did not hold\n",
                 static_cast<unsigned long long>(res.errors));
    return 1;
  }

  Record record("fleet");
  record.Workload("kind", "two_block");
  record.Workload("scale", scale);
  record.Workload("users", r.num_rows());
  record.Workload("items", r.num_cols());
  record.Workload("nnz", r.nnz());
  record.Workload("k", k);
  record.Workload("m", m);
  record.Workload("clients", load.clients);
  record.Workload("requests_per_client", load.requests_per_client);
  record.Workload("pipeline", load.pipeline);
  record.Workload("replicas", kReplicas);
  record.Workload("workers", workers);
  record.Workload("reps", reps);
  record.Workload("warmup", warmup);
  record.Info("steady_requests_per_second", res.steady_rps);
  record.Info("kill_run_requests_per_second", res.kill_run_rps);
  record.Info("degraded_requests_per_second", res.degraded_rps);
  record.Info("recovered_requests_per_second", res.recovered_rps);
  record.Info("client_visible_errors", res.errors);
  record.Info("failovers", res.failovers);
  record.Info("lists_identical", res.lists_identical);
  record.AtLeast("degraded_over_steady", res.degraded_over_steady, 0.5);
  record.AtMost("recovery_ms", res.recovery_ms, 5.0, 1000.0);
  const int rc = FinishRecord(record, flags);
  const double max_recovery_ms = flags.Real("max-recovery-ms");
  if (max_recovery_ms > 0.0 && res.recovery_ms > max_recovery_ms) {
    std::fprintf(stderr, "FAIL: recovery %.0f ms above ceiling %.0f ms\n",
                 res.recovery_ms, max_recovery_ms);
    return 2;
  }
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
