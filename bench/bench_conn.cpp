// Connection-core robustness benchmark: the epoll daemon under an idle
// keep-alive flood and a slowloris swarm. The numbers this PR's claim
// hangs on are not the hot-path throughput (BENCH_daemon owns that) but
// what survives hostile connection shapes: 5k idle keep-alive clients
// must be HELD (zero sheds, zero drops — each costs the daemon one fd,
// never a worker), hot traffic bursting through the flood must stay
// bit-identical to the offline oracle, and a 100-writer slowloris swarm
// must leave the hot clients' p99 within a small factor of the
// swarm-free tail.
//
// Phases (in-process RequestServer, workers=2 by default so the worker
// pool is tiny next to the connection count — the point of the epoll
// core):
//   1. validated hot pass — every reply checked against the
//      RecommendForAllUsers oracle (abort on any mismatch);
//   2. hot-only passes — swarm-free req/s and p50/p99 over --reps runs;
//   3. idle flood — --idle-conns held connections with the same hot
//      burst running through them, every burst reply oracle-checked;
//      hard-fails unless every idle connection is still healthy at the
//      end AND the server counted zero sheds / zero EMFILE parachutes;
//   4. slowloris swarm — --slow-writers dribbling connections with the
//      hot burst through them; p99 averaged over --reps runs;
//   5. fork/exec SIGKILL drill — a real ocular_served child is flooded,
//      SIGKILLed mid-flood, restarted on the same port, and must serve a
//      bit-identical reply again (restart-to-first-reply clocked).
//
// The record (bench/bench_util.h) holds hot/flood/loris rates and tails
// plus the two derived ratios. --baseline gates on throughput retention
// under the flood (floor = 0.5x the recorded flood_rps_over_hot —
// scheduler noise folds in); --max-loris-p99-ratio is an absolute
// ceiling on the loris tail ratio. The held/shed/identical requirements
// are unconditional hard failures, never baseline-relative.

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
#include "serving/daemon.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
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

/// One ocular_served child for the SIGKILL drill (move-only: the
/// destructor SIGKILLs whatever it still owns).
struct Served {
  pid_t pid = -1;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  Served(Served&& other) noexcept : pid(other.pid) { other.pid = -1; }
  Served& operator=(Served&& other) noexcept {
    if (this != &other) {
      KillHard();
      pid = other.pid;
      other.pid = -1;
    }
    return *this;
  }
  ~Served() { KillHard(); }

  static Served Spawn(const std::string& model_path,
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
    Served s;
    s.pid = ::fork();
    OCULAR_CHECK(s.pid >= 0);
    if (s.pid == 0) {
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
    return s;
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

/// One request/one reply over a fresh connection; empty string on any
/// failure (used only by the kill drill, where failure = not serving).
std::string RoundTrip(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string line = request + "\n";
  if (!net::SendAll(fd, line.data(), line.size())) {
    ::close(fd);
    return "";
  }
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply.substr(0, reply.find('\n'));
}

struct ConnBenchResult {
  double hot_rps = 0.0;
  double hot_p50_us = 0.0;
  double hot_p99_us = 0.0;
  uint64_t flood_held = 0;
  uint64_t flood_dropped = 0;
  double flood_rps = 0.0;
  double flood_p99_us = 0.0;
  uint64_t flood_shed = 0;
  uint64_t flood_emfile = 0;
  double flood_rps_over_hot = 0.0;
  double loris_rps = 0.0;
  double loris_p99_us = 0.0;
  double loris_p99_over_hot = 0.0;
  double restart_ms = 0.0;
  bool post_restart_identical = false;
  bool lists_identical = false;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

const FlagTable kFlags = {
    "bench_conn",
    "The epoll daemon under an idle keep-alive flood and a slowloris swarm.",
    WithRecordFlags(
        {RealFlag("scale", 0.0, kNoUpperBound, "0.25",
                  "two-block workload scale"),
         IntFlag("k", 0, UINT32_MAX, "16", "co-clusters (K)"),
         IntFlag("m", 0, UINT32_MAX, "10", "top-M per request"),
         IntFlag("sweeps", 0, UINT32_MAX, "4", "training sweeps"),
         IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
         IntFlag("reps", 0, UINT32_MAX, "2", "timed repetitions"),
         IntFlag("warmup", 0, UINT32_MAX, "1", "untimed warm-up repetitions"),
         IntFlag("workers", 0, INT64_MAX, "2", "daemon worker threads"),
         IntFlag("idle-conns", 0, UINT32_MAX, "5000",
                 "idle keep-alive connections"),
         IntFlag("slow-writers", 0, UINT32_MAX, "100",
                 "slowloris connections"),
         IntFlag("duration-ms", 0, UINT32_MAX, "1500", "flood duration"),
         IntFlag("clients", 0, UINT32_MAX, "4", "load clients"),
         IntFlag("requests", 0, INT64_MAX, "400", "requests per client"),
         IntFlag("pipeline", 0, UINT32_MAX, "8",
                 "requests in flight per client"),
         RealFlag("max-loris-p99-ratio", 0.0, kNoUpperBound, "2",
                  "fail when slowloris p99 over hot p99 exceeds this; "
                  "0 = off")},
        "BENCH_conn.json")};

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
  const uint32_t idle_conns = flags.Int<uint32_t>("idle-conns");
  const uint32_t slow_writers = flags.Int<uint32_t>("slow-writers");
  const uint32_t duration_ms = flags.Int<uint32_t>("duration-ms");

  LoadGenOptions load;
  load.clients = flags.Int<uint32_t>("clients");
  load.requests_per_client = flags.Int<uint64_t>("requests");
  load.pipeline = flags.Int<uint32_t>("pipeline");
  load.m = m;

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  load.num_users = r.num_rows();
  std::printf(
      "conn: %u users x %u items, nnz=%zu, K=%u, top-%u — %u idle conns, "
      "%u slowloris, %u burst clients x %llu requests, pipeline %u, "
      "%zu workers, %u reps (+%u warmup)\n",
      r.num_rows(), r.num_cols(), r.nnz(), k, m, idle_conns, slow_writers,
      load.clients, static_cast<unsigned long long>(load.requests_per_client),
      load.pipeline, workers, reps, warmup);

  OcularConfig config;
  config.k = k;
  config.lambda = 1.0;
  config.max_sweeps = sweeps;
  config.seed = seed + 1;
  OcularRecommender rec(config);
  OCULAR_CHECK(rec.Fit(r).ok());

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/ocular_bench_conn";
  const std::string model_path = base + ".oclr";
  const std::string dataset_path = base + ".tsv";
  OCULAR_CHECK(SaveModelBinary(rec.model(), config, model_path).ok());
  {
    std::ofstream out(dataset_path);
    for (auto [u, i] : r.ToPairs()) out << u << '\t' << i << '\n';
  }

  ModelRegistry registry;
  {
    auto train = std::make_shared<const CsrMatrix>(r);
    OCULAR_CHECK(registry.Load("default", model_path, train).ok());
  }

  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, r, batch).value();

  ConnBenchResult res;
  std::mutex mismatch_mu;
  const auto check_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatchesRanked(line, oracle.recommendations[user])) {
      std::lock_guard<std::mutex> lock(mismatch_mu);
      ++res.mismatches;
      if (res.first_mismatch.empty()) {
        res.first_mismatch = "user " + std::to_string(user) + ": " + line;
      }
    }
  };

  // In-process epoll daemon. idle_timeout 0: the bench's idle fleet must
  // be HELD for the whole run — reaping policies have their own tests
  // (conn_flood_test) — while io_timeout keeps the sweep (and the
  // slow-consumer deadline) live.
  RequestServer::Options server_options;
  server_options.serve.m = m;
  server_options.num_workers = workers;
  server_options.idle_timeout_ms = 0;
  server_options.io_timeout_ms = 1000;
  {
    RequestServer server(&registry, server_options);
    std::thread serve_thread(
        [&server] { OCULAR_CHECK(server.RunTcpLoop(0, 0).ok()); });
    uint16_t port = 0;
    for (int ms = 0; ms < 10000 && (port = server.bound_port()) == 0; ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    OCULAR_CHECK(port != 0);
    load.port = port;

    // Phase 1: validated hot pass — the bit-identical contract first.
    LoadGenOptions validate = load;
    validate.on_reply = check_reply;
    {
      auto validated = RunLoadGen(validate);
      OCULAR_CHECK(validated.ok());
      res.lists_identical =
          res.mismatches == 0 && validated->error_replies == 0;
    }

    const auto fail_out = [&](const char* why) {
      std::fprintf(stderr, "FAIL: %s\n", why);
      LineServer::RequestShutdown();
      serve_thread.join();
      std::remove(model_path.c_str());
      std::remove(dataset_path.c_str());
      return 1;
    };
    if (!res.lists_identical) {
      std::fprintf(stderr, "  first mismatch: %s\n",
                   res.first_mismatch.c_str());
      return fail_out("hot replies differ from the oracle");
    }

    // Phase 2: swarm-free hot passes.
    double rps_sum = 0.0, p50_sum = 0.0, p99_sum = 0.0;
    for (uint32_t run = 0; run < warmup + reps; ++run) {
      auto pass = RunLoadGen(load);
      OCULAR_CHECK(pass.ok());
      OCULAR_CHECK(pass->error_replies == 0);
      if (run >= warmup) {
        rps_sum += pass->requests_per_second;
        p50_sum += pass->p50_latency_us;
        p99_sum += pass->p99_latency_us;
      }
    }
    res.hot_rps = rps_sum / reps;
    res.hot_p50_us = p50_sum / reps;
    res.hot_p99_us = p99_sum / reps;

    // Phase 3: the idle flood, burst replies oracle-checked throughout.
    {
      IdleFloodOptions flood;
      flood.port = port;
      flood.idle_conns = idle_conns;
      flood.burst_clients = load.clients;
      flood.requests_per_client = load.requests_per_client;
      flood.pipeline = load.pipeline;
      flood.m = m;
      flood.num_users = r.num_rows();
      flood.zipf_skew = 3.0;
      flood.duration_ms = duration_ms;
      flood.on_burst_reply = check_reply;
      auto f = RunIdleFlood(flood);
      OCULAR_CHECK(f.ok());
      res.flood_held = f->connections_held;
      res.flood_dropped = f->connections_dropped;
      res.flood_rps = f->burst_rps;
      res.flood_p99_us = f->burst_p99_us;
      const DaemonStatsSnapshot stats = server.Stats();
      res.flood_shed = stats.conn[ConnMetrics::kShed];
      res.flood_emfile = stats.conn[ConnMetrics::kAcceptEmfile];
      if (f->burst_errors != 0) return fail_out("burst errors under flood");
      if (res.mismatches != 0) {
        std::fprintf(stderr, "  first mismatch: %s\n",
                     res.first_mismatch.c_str());
        return fail_out("replies under the flood differ from the oracle");
      }
      if (res.flood_held != idle_conns || res.flood_dropped != 0) {
        std::fprintf(stderr, "  held %llu / %u, dropped %llu\n",
                     static_cast<unsigned long long>(res.flood_held),
                     idle_conns,
                     static_cast<unsigned long long>(res.flood_dropped));
        return fail_out("idle connections were not all held");
      }
      if (res.flood_shed != 0 || res.flood_emfile != 0) {
        return fail_out("server shed connections during the flood");
      }
    }
    res.flood_rps_over_hot = res.flood_rps / std::max(res.hot_rps, 1e-12);

    // Phase 4: slowloris swarm, averaged like the hot passes.
    double loris_rps_sum = 0.0, loris_p99_sum = 0.0;
    for (uint32_t run = 0; run < warmup + reps; ++run) {
      IdleFloodOptions loris;
      loris.port = port;
      loris.idle_conns = 0;
      loris.burst_clients = load.clients;
      loris.requests_per_client = load.requests_per_client;
      loris.pipeline = load.pipeline;
      loris.m = m;
      loris.num_users = r.num_rows();
      loris.zipf_skew = 3.0;
      loris.slow_writers = slow_writers;
      loris.slow_writer_interval_ms = 50;
      loris.duration_ms = duration_ms;
      auto l = RunIdleFlood(loris);
      OCULAR_CHECK(l.ok());
      if (l->burst_errors != 0) {
        return fail_out("burst errors under the slowloris swarm");
      }
      if (run >= warmup) {
        loris_rps_sum += l->burst_rps;
        loris_p99_sum += l->burst_p99_us;
      }
    }
    res.loris_rps = loris_rps_sum / reps;
    res.loris_p99_us = loris_p99_sum / reps;
    res.loris_p99_over_hot = res.loris_p99_us / std::max(res.hot_p99_us, 1e-12);

    LineServer::RequestShutdown();
    serve_thread.join();
  }

  // Phase 5: SIGKILL a real daemon mid-flood, restart it on the same
  // port, require a bit-identical reply again.
  {
    const uint16_t port = FreePort();
    Served daemon = Served::Spawn(model_path, dataset_path, port, workers);
    OCULAR_CHECK(WaitForPort(port));
    std::thread flood_thread([&] {
      IdleFloodOptions flood;
      flood.port = port;
      flood.idle_conns = 200;
      flood.burst_clients = 2;
      flood.requests_per_client = 100000;  // deliberately unfinishable
      flood.pipeline = 8;
      flood.m = m;
      flood.num_users = r.num_rows();
      flood.duration_ms = 100;
      (void)RunIdleFlood(flood);  // dies with the SIGKILL — unasserted
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    daemon.KillHard();
    flood_thread.join();

    Stopwatch watch;
    daemon = Served::Spawn(model_path, dataset_path, port, workers);
    OCULAR_CHECK(WaitForPort(port));
    const uint32_t probe_user = std::min(7u, r.num_rows() - 1);
    std::string reply;
    for (int waited = 0; waited < 20000 && reply.empty(); waited += 20) {
      reply = RoundTrip(port, "{\"cmd\":\"recommend\",\"user\":" +
                                  std::to_string(probe_user) +
                                  ",\"m\":" + std::to_string(m) + "}");
      if (reply.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    res.restart_ms = watch.ElapsedSeconds() * 1000.0;
    res.post_restart_identical =
        !reply.empty() &&
        ReplyMatchesRanked(reply, oracle.recommendations[probe_user]);
  }

  std::remove(model_path.c_str());
  std::remove(dataset_path.c_str());

  std::printf("  hot       : %10.0f req/s  p99 %7.0f us (no flood)\n",
              res.hot_rps, res.hot_p99_us);
  std::printf(
      "  flood     : %10.0f req/s  p99 %7.0f us (%llu idle held, 0 shed, "
      "%.2fx of hot)\n",
      res.flood_rps, res.flood_p99_us,
      static_cast<unsigned long long>(res.flood_held),
      res.flood_rps_over_hot);
  std::printf(
      "  slowloris : %10.0f req/s  p99 %7.0f us (%u writers, p99 %.2fx of "
      "hot)\n",
      res.loris_rps, res.loris_p99_us, slow_writers, res.loris_p99_over_hot);
  std::printf("  kill drill: %10.0f ms restart-to-reply, identical=%s\n",
              res.restart_ms, res.post_restart_identical ? "yes" : "no");

  if (!res.post_restart_identical) {
    std::fprintf(stderr,
                 "FAIL: restarted daemon did not serve a bit-identical "
                 "reply\n");
    return 1;
  }

  Record record("conn");
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
  record.Workload("idle_conns", idle_conns);
  record.Workload("slow_writers", slow_writers);
  record.Workload("workers", workers);
  record.Workload("reps", reps);
  record.Workload("warmup", warmup);
  record.Info("hot_requests_per_second", res.hot_rps);
  record.Info("hot_p50_latency_us", res.hot_p50_us);
  record.Info("hot_p99_latency_us", res.hot_p99_us);
  record.Info("flood_connections_held", res.flood_held);
  record.Info("flood_connections_dropped", res.flood_dropped);
  record.Info("flood_connections_shed", res.flood_shed);
  record.Info("flood_accept_emfile", res.flood_emfile);
  record.Info("flood_requests_per_second", res.flood_rps);
  record.Info("flood_p99_latency_us", res.flood_p99_us);
  record.Info("loris_requests_per_second", res.loris_rps);
  record.Info("loris_p99_latency_us", res.loris_p99_us);
  record.Info("restart_ms", res.restart_ms);
  record.Info("post_restart_identical", res.post_restart_identical);
  record.Info("lists_identical", res.lists_identical);
  record.Info("loris_p99_over_hot", res.loris_p99_over_hot);
  record.AtLeast("flood_rps_over_hot", res.flood_rps_over_hot, 0.5);
  const int rc = FinishRecord(record, flags);
  // Absolute tail gate: hot-client p99 within this factor of the
  // swarm-free tail while the slowloris writers dribble.
  const double max_loris_ratio = flags.Real("max-loris-p99-ratio");
  if (max_loris_ratio > 0.0 && res.loris_p99_over_hot > max_loris_ratio) {
    std::fprintf(stderr,
                 "FAIL: slowloris p99 ratio %.2f above ceiling %.2f\n",
                 res.loris_p99_over_hot, max_loris_ratio);
    return 2;
  }
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
