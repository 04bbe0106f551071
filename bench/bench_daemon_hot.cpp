// Hot-path daemon benchmark: online serving throughput over loopback TCP
// with C concurrent clients, the PR 4 serial accept loop vs the PR 5
// worker-pool daemon (listener + shared-nothing workers + pipelined
// batched replies), on a trained OCuLaR model over the synthetic
// two-block workload at K=50.
//
// The serial side is a faithful in-binary reproduction of the pre-PR 5
// TCP loop: one thread accepts one connection at a time and serves it to
// completion — every other client waits in the backlog — writing every
// reply with its own write(2) and never touching TCP_NODELAY. The pooled
// side is RequestServer::RunTcpLoop: listener + --workers shared-nothing
// worker threads behind a bounded accept queue, replies batched into one
// write per pipelined burst.
//
// Both sides serve the *same* RequestServer request handler over the
// same mmapped model, driven by the same load generator (C clients, each
// pipelining bursts of --pipeline recommend requests over a persistent
// connection, users round-robin over the catalog). Before any timing,
// one validated pass checks every pooled-daemon reply against the
// offline RecommendForAllUsers oracle: identical items, identical scores
// after the %.12g wire rendering — the bench aborts on any mismatch.
//
// Throughput is requests/second averaged over --reps runs (after
// --warmup discarded runs); speedup = pooled / serial. NOTE the pooled
// gain has two components: request pipelining with batched replies
// (realized even on one core — this container) and true multi-core
// concurrency (scales with min(clients, cores); the JSON records
// hardware_concurrency so a reader can tell which regime a record is
// from). --min-speedup fails (exit 2) below an absolute floor;
// --baseline fails (exit 2) on a >25% regression against the recorded
// speedup after checking the baseline ran the same workload shape AND
// worker count.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "common/json.h"
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

namespace ocular {
namespace bench {
namespace {

// ------------------------------------------------- legacy serial loop
// Faithful reproduction of the pre-PR 5 RunTcpLoop/ServeConnection pair
// (the before side of the before/after table): one thread, one
// connection served to completion at a time, one write(2) per reply,
// listen backlog 16, no TCP_NODELAY.

void LegacyServeConnection(RequestServer* server, int fd) {
  std::string buffer;
  char chunk[4096];
  bool connection_quit = false;
  while (!connection_quit) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    const size_t old_size = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline = buffer.find('\n', old_size);
    for (; newline != std::string::npos && !connection_quit;
         newline = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string reply = server->HandleLine(line);
      reply.push_back('\n');
      // net::SendAll's MSG_NOSIGNAL guards the bench harness only (same
      // syscall cost as the legacy write); the clients always drain
      // their replies, so it never fires.
      if (!net::SendAll(fd, reply.data(), reply.size())) {
        connection_quit = true;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
}

/// Runs the legacy loop on an ephemeral port until `max_connections`
/// connections have been served; publishes the bound port through
/// `*port_out` once listening.
void LegacySerialTcpLoop(RequestServer* server, uint64_t max_connections,
                         std::atomic<uint16_t>* port_out) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  OCULAR_CHECK(listener >= 0);
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  OCULAR_CHECK(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  OCULAR_CHECK(::listen(listener, 16) == 0);
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  OCULAR_CHECK(::getsockname(listener,
                             reinterpret_cast<struct sockaddr*>(&bound),
                             &len) == 0);
  port_out->store(ntohs(bound.sin_port), std::memory_order_release);
  for (uint64_t served = 0; served < max_connections; ++served) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        --served;
        continue;
      }
      break;
    }
    LegacyServeConnection(server, conn);
  }
  ::close(listener);
}

// ------------------------------------------------------------ benchmark

struct DaemonBenchResult {
  double serial_rps = 0.0;
  double pooled_rps = 0.0;
  double speedup = 0.0;
  // Strict request/response (pipeline=1) reference numbers: isolates the
  // multi-core concurrency component from the pipelining/batching one
  // (on a single-core host pooled ping-pong ~= serial ping-pong).
  double pingpong_serial_rps = 0.0;
  double pingpong_pooled_rps = 0.0;
  double pooled_p50_us = 0.0;
  double pooled_p99_us = 0.0;
  double serial_p50_us = 0.0;
  double serial_p99_us = 0.0;
  uint64_t requests_per_run = 0;
  bool lists_identical = false;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Validates one reply line against the oracle's ranked list for `user`
/// with the shared wire-exactness check (serving/loadgen.h). Returns an
/// empty string on success, a description on mismatch.
std::string CheckReply(const std::vector<std::vector<ScoredItem>>& oracle,
                       uint32_t user, const std::string& line) {
  if (ReplyMatchesRanked(line, oracle[user])) return "";
  return "user " + std::to_string(user) +
         ": reply differs from the RecommendForAllUsers oracle (" +
         std::to_string(oracle[user].size()) + " items expected): " + line;
}

/// One timed load-generator pass; returns requests/second.
LoadGenResult RunOnePass(uint16_t port, const LoadGenOptions& base) {
  LoadGenOptions options = base;
  options.port = port;
  auto result = RunLoadGen(options);
  OCULAR_CHECK(result.ok());
  OCULAR_CHECK(result->error_replies == 0);
  return *result;
}

std::string ToJson(const DaemonBenchResult& res, const CsrMatrix& r,
                   uint32_t k, uint32_t m, double scale,
                   const LoadGenOptions& load, size_t workers, uint32_t reps,
                   uint32_t warmup) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("daemon_hot");
  w.Key("workload");
  w.BeginObject();
  w.Key("kind");
  w.String("two_block");
  w.Key("scale");
  w.Double(scale);
  w.Key("users");
  w.UInt(r.num_rows());
  w.Key("items");
  w.UInt(r.num_cols());
  w.Key("nnz");
  w.UInt(r.nnz());
  w.Key("k");
  w.UInt(k);
  w.Key("m");
  w.UInt(m);
  w.Key("clients");
  w.UInt(load.clients);
  w.Key("requests_per_client");
  w.UInt(load.requests_per_client);
  w.Key("pipeline");
  w.UInt(load.pipeline);
  w.Key("workers");
  w.UInt(workers);
  w.Key("hardware_concurrency");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("reps");
  w.UInt(reps);
  w.Key("warmup");
  w.UInt(warmup);
  w.EndObject();
  w.Key("serial");
  w.BeginObject();
  w.Key("requests_per_second");
  w.Double(res.serial_rps);
  w.Key("p50_latency_us");
  w.Double(res.serial_p50_us);
  w.Key("p99_latency_us");
  w.Double(res.serial_p99_us);
  w.EndObject();
  w.Key("pooled");
  w.BeginObject();
  w.Key("requests_per_second");
  w.Double(res.pooled_rps);
  w.Key("p50_latency_us");
  w.Double(res.pooled_p50_us);
  w.Key("p99_latency_us");
  w.Double(res.pooled_p99_us);
  w.EndObject();
  w.Key("speedup");
  w.Double(res.speedup);
  w.Key("pingpong");
  w.BeginObject();
  w.Key("serial_requests_per_second");
  w.Double(res.pingpong_serial_rps);
  w.Key("pooled_requests_per_second");
  w.Double(res.pingpong_pooled_rps);
  w.Key("speedup");
  w.Double(res.pingpong_pooled_rps /
           std::max(res.pingpong_serial_rps, 1e-12));
  w.EndObject();
  w.Key("lists_identical");
  w.Bool(res.lists_identical);
  w.EndObject();
  return w.str();
}

const FlagTable kFlags = {
    "bench_daemon_hot",
    "Daemon throughput over loopback TCP: worker pool against the serial loop.",
    {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
     IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
     IntFlag("m", 0, UINT32_MAX, "50", "top-M per request"),
     IntFlag("sweeps", 0, UINT32_MAX, "6", "training sweeps"),
     IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
     IntFlag("reps", 0, UINT32_MAX, "3", "timed repetitions"),
     IntFlag("warmup", 0, UINT32_MAX, "1", "untimed warm-up repetitions"),
     IntFlag("clients", 0, UINT32_MAX, "8", "load clients"),
     IntFlag("requests", 0, INT64_MAX, "500", "requests per client"),
     IntFlag("pipeline", 0, UINT32_MAX, "16", "requests in flight per client"),
     IntFlag("workers", 0, INT64_MAX, "0",
             "daemon worker threads; 0 = one per CPU"),
     BoolFlag("json", false, "write the JSON record to --out"),
     StringFlag("out", "BENCH_daemon.json", "JSON record path"),
     RealFlag("min-speedup", 0.0, kNoUpperBound, "0",
              "fail below this speedup; 0 = no floor"),
     StringFlag("baseline", "", "checked-in record to gate this run against")}};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const uint32_t m = flags.Int<uint32_t>("m");
  const uint32_t sweeps = flags.Int<uint32_t>("sweeps");
  const uint64_t seed = flags.Int<uint64_t>("seed");
  const uint32_t reps = flags.Int<uint32_t>("reps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");

  LoadGenOptions load;
  load.clients = flags.Int<uint32_t>("clients");
  load.requests_per_client = flags.Int<uint64_t>("requests");
  load.pipeline = flags.Int<uint32_t>("pipeline");
  const size_t workers = flags.Int<size_t>("workers");
  load.m = m;

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  load.num_users = r.num_rows();
  std::printf(
      "daemon_hot: %u users x %u items, nnz=%zu, K=%u, top-%u — %u clients "
      "x %llu requests, pipeline %u, %u reps (+%u warmup)\n",
      r.num_rows(), r.num_cols(), r.nnz(), k, m, load.clients,
      static_cast<unsigned long long>(load.requests_per_client),
      load.pipeline, reps, warmup);

  OcularConfig config;
  config.k = k;
  config.lambda = 1.0;
  config.max_sweeps = sweeps;
  config.seed = seed + 1;
  OcularRecommender rec(config);
  {
    Stopwatch watch;
    OCULAR_CHECK(rec.Fit(r).ok());
    std::printf("  trained %u sweeps in %.2f s\n",
                static_cast<unsigned>(rec.trace().size()),
                watch.ElapsedSeconds());
  }

  // The deployable artifact + registry, exactly as ocular_served runs it.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string model_path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/ocular_bench_daemon.oclr";
  OCULAR_CHECK(SaveModelBinary(rec.model(), config, model_path).ok());
  ModelRegistry registry;
  {
    auto train = std::make_shared<const CsrMatrix>(r);
    OCULAR_CHECK(registry.Load("default", model_path, train).ok());
  }

  // Offline oracle on the same model + exclusions (the bit-identical
  // contract the daemon must uphold from every worker).
  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, r, batch).value();

  RequestServer::Options server_options;
  server_options.serve.m = m;
  server_options.num_workers = workers;

  DaemonBenchResult res;
  res.requests_per_run = static_cast<uint64_t>(load.clients) *
                         load.requests_per_client;

  // ------------------------------------------------ pooled (PR 5) side
  size_t resolved_workers = 0;
  {
    RequestServer server(&registry, server_options);
    resolved_workers = server.num_workers();
    // warmup + reps pipelined passes, 1 validated pass, 2 ping-pong
    // passes (1 warmup + 1 measured).
    const uint64_t total_connections =
        static_cast<uint64_t>(warmup + reps + 3) * load.clients;
    std::thread serve_thread([&server, total_connections] {
      OCULAR_CHECK(server.RunTcpLoop(0, total_connections).ok());
    });
    uint16_t port = 0;
    for (int ms = 0; ms < 10000 && (port = server.bound_port()) == 0; ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    OCULAR_CHECK(port != 0);

    // Validated pass first: every reply checked against the oracle.
    std::mutex mismatch_mu;
    LoadGenOptions validate = load;
    validate.port = port;
    validate.on_reply = [&](uint32_t user, const std::string& line) {
      const std::string err = CheckReply(oracle.recommendations, user, line);
      if (!err.empty()) {
        std::lock_guard<std::mutex> lock(mismatch_mu);
        ++res.mismatches;
        if (res.first_mismatch.empty()) res.first_mismatch = err;
      }
    };
    {
      auto validated = RunLoadGen(validate);
      OCULAR_CHECK(validated.ok());
      res.lists_identical =
          res.mismatches == 0 && validated->error_replies == 0;
    }

    double rps_sum = 0.0;
    double p50_sum = 0.0;
    double p99_sum = 0.0;
    for (uint32_t run = 0; run < warmup + reps && res.lists_identical;
         ++run) {
      const LoadGenResult pass = RunOnePass(port, load);
      if (run >= warmup) {
        rps_sum += pass.requests_per_second;
        p50_sum += pass.p50_latency_us;
        p99_sum += pass.p99_latency_us;
      }
    }
    if (res.lists_identical) {
      // Like rps, latency percentiles are averaged over the measured
      // reps so one noisy pass cannot skew the published record.
      res.pooled_rps = rps_sum / reps;
      res.pooled_p50_us = p50_sum / reps;
      res.pooled_p99_us = p99_sum / reps;
      LoadGenOptions pingpong = load;
      pingpong.pipeline = 1;
      (void)RunOnePass(port, pingpong);  // warmup
      res.pingpong_pooled_rps = RunOnePass(port, pingpong).requests_per_second;
    } else {
      // Unblock the accept loop if validation failed early: drain the
      // remaining connection budget with empty connects.
      for (uint64_t c = 0; c < static_cast<uint64_t>(warmup + reps + 2) *
                                   load.clients;
           ++c) {
        LoadGenOptions drain = load;
        drain.port = port;
        drain.clients = 1;
        drain.requests_per_client = 1;
        drain.pipeline = 1;
        (void)RunLoadGen(drain);
      }
    }
    serve_thread.join();
  }
  if (!res.lists_identical) {
    std::fprintf(stderr,
                 "FAIL: %llu daemon replies differ from the "
                 "RecommendForAllUsers oracle; first: %s\n",
                 static_cast<unsigned long long>(res.mismatches),
                 res.first_mismatch.c_str());
    std::remove(model_path.c_str());
    return 1;
  }

  // ------------------------------------------- serial (PR 4) baseline
  {
    RequestServer legacy_server(&registry, server_options);
    const uint64_t total_connections =
        static_cast<uint64_t>(warmup + reps + 2) * load.clients;
    std::atomic<uint16_t> port_slot{0};
    std::thread serial_thread(LegacySerialTcpLoop, &legacy_server,
                              total_connections, &port_slot);
    uint16_t port = 0;
    while ((port = port_slot.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    double rps_sum = 0.0;
    double p50_sum = 0.0;
    double p99_sum = 0.0;
    for (uint32_t run = 0; run < warmup + reps; ++run) {
      const LoadGenResult pass = RunOnePass(port, load);
      if (run >= warmup) {
        rps_sum += pass.requests_per_second;
        p50_sum += pass.p50_latency_us;
        p99_sum += pass.p99_latency_us;
      }
    }
    res.serial_p50_us = p50_sum / reps;
    res.serial_p99_us = p99_sum / reps;
    {
      LoadGenOptions pingpong = load;
      pingpong.pipeline = 1;
      (void)RunOnePass(port, pingpong);  // warmup
      res.pingpong_serial_rps = RunOnePass(port, pingpong).requests_per_second;
    }
    serial_thread.join();
    res.serial_rps = rps_sum / reps;
  }
  std::remove(model_path.c_str());

  res.speedup = res.pooled_rps / std::max(res.serial_rps, 1e-12);

  std::printf("  serial   : %10.0f req/s  (one connection at a time, "
              "write per reply)  p50 %.0f us  p99 %.0f us\n",
              res.serial_rps, res.serial_p50_us, res.serial_p99_us);
  std::printf("  pooled   : %10.0f req/s  (%zu workers, pipelined batched "
              "replies)          p50 %.0f us  p99 %.0f us\n",
              res.pooled_rps, resolved_workers, res.pooled_p50_us,
              res.pooled_p99_us);
  std::printf("  speedup  : %10.2fx         (identical lists vs oracle)\n",
              res.speedup);
  std::printf("  pingpong : %10.0f vs %.0f req/s serial (pipeline=1 "
              "reference, %.2fx)\n",
              res.pingpong_pooled_rps, res.pingpong_serial_rps,
              res.pingpong_pooled_rps /
                  std::max(res.pingpong_serial_rps, 1e-12));

  if (flags.Bool("json")) {
    const std::string out_path = flags.String("out");
    const std::string json =
        ToJson(res, r, k, m, scale, load, resolved_workers, reps, warmup);
    if (!WriteTextFile(out_path, json + "\n")) return 1;
    std::printf("  wrote %s\n", out_path.c_str());
  }

  const double min_speedup = flags.Real("min-speedup");
  if (min_speedup > 0.0 && res.speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below floor %.2fx\n",
                 res.speedup, min_speedup);
    return 2;
  }

  const std::string baseline_path = flags.String("baseline");
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream buf;
    buf << in.rdbuf();
    double baseline_speedup = 0.0;
    if (!in || !FindJsonNumber(buf.str(), "speedup", &baseline_speedup)) {
      std::fprintf(stderr, "FAIL: cannot read speedup from baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    // The ratio only transfers between runs of the same workload AND the
    // same worker/client/pipeline shape — refuse to gate otherwise.
    // (Unlike the train/serve benches, this ratio also grows with core
    // count; a baseline recorded on fewer cores is a conservative floor.)
    double base_scale = 0.0, base_k = 0.0, base_m = 0.0, base_nnz = 0.0;
    double base_clients = 0.0, base_pipeline = 0.0, base_workers = 0.0;
    if (!FindJsonNumber(buf.str(), "scale", &base_scale) ||
        !FindJsonNumber(buf.str(), "k", &base_k) ||
        !FindJsonNumber(buf.str(), "m", &base_m) ||
        !FindJsonNumber(buf.str(), "nnz", &base_nnz) ||
        !FindJsonNumber(buf.str(), "clients", &base_clients) ||
        !FindJsonNumber(buf.str(), "pipeline", &base_pipeline) ||
        !FindJsonNumber(buf.str(), "workers", &base_workers) ||
        std::abs(base_scale - scale) > 1e-12 ||
        static_cast<uint32_t>(base_k) != k ||
        static_cast<uint32_t>(base_m) != m ||
        static_cast<size_t>(base_nnz) != r.nnz() ||
        static_cast<uint32_t>(base_clients) != load.clients ||
        static_cast<uint32_t>(base_pipeline) != load.pipeline ||
        static_cast<size_t>(base_workers) != resolved_workers) {
      std::fprintf(stderr,
                   "FAIL: baseline %s records a different workload/shape "
                   "(scale=%g k=%g m=%g nnz=%.0f clients=%g pipeline=%g "
                   "workers=%g vs scale=%g k=%u m=%u nnz=%zu clients=%u "
                   "pipeline=%u workers=%zu) — regenerate it with the "
                   "current bench flags\n",
                   baseline_path.c_str(), base_scale, base_k, base_m,
                   base_nnz, base_clients, base_pipeline, base_workers,
                   scale, k, m, r.nnz(), load.clients, load.pipeline,
                   resolved_workers);
      return 2;
    }
    // Wider margin than the train/serve gates (75% vs 25%): this ratio
    // folds in kernel socket behavior (Nagle/delayed-ACK stalls of the
    // legacy per-reply writes) and core count, both of which vary across
    // runners far more than the algorithmic ratios do. A genuine
    // regression — losing pipelining or the batched write — is an order
    // of magnitude, which this still catches; pair with --min-speedup
    // for an absolute floor.
    const double floor = 0.25 * baseline_speedup;
    if (res.speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: speedup %.2fx regressed >75%% vs baseline %.2fx "
                   "(floor %.2fx)\n",
                   res.speedup, baseline_speedup, floor);
      return 2;
    }
    std::printf("  baseline gate ok: %.2fx vs recorded %.2fx (floor %.2fx)\n",
                res.speedup, baseline_speedup, floor);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
