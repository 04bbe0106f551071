// Hot-path daemon benchmark: online serving throughput over loopback TCP
// with C concurrent pipelining clients, against the same requests handled
// in process, on a trained OCuLaR model over the synthetic two-block
// workload at K=50.
//
// The TCP side is RequestServer::RunTcpLoop: the epoll connection core
// and --workers worker threads, replies batched into one write per
// pipelined burst. The reference is the same server's HandleLine called
// on one thread for the same request stream (every client's requests, in
// the load generator's order), with no socket, no connection core and no
// pool. Both sides are product code and share HandleLine — parse, lease,
// scoring, selection and render — so their ratio gates what the TCP path
// adds on top: the connection core and the pool. The gated value is
//
//   pooled req/s / (in-process req/s × min(workers, usable CPUs)),
//
// the fraction of ideal scaling over the CPUs the pool can use (higher is
// better). Each rep times one in-process pass, then one TCP pass; the
// gate takes the median of the per-rep ratios.
//
// Before any timing, one validated TCP pass checks every reply against
// the offline RecommendForAllUsers oracle: identical items, identical
// scores after the %.12g wire rendering — the bench exits 1 on any
// mismatch or error reply. --json writes the record (bench/bench_util.h)
// to --out; --baseline gates it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
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
#include "serving/registry.h"
#include "sparse/csr.h"

namespace ocular {
namespace bench {
namespace {

/// The request lines a RunLoadGen pass of `load` sends, client by client
/// (each client's users round-robin from its own offset).
std::vector<std::string> RequestStream(const LoadGenOptions& load) {
  std::vector<std::string> lines;
  for (uint32_t c = 0; c < load.clients; ++c) {
    uint64_t user = (static_cast<uint64_t>(c) * 7919) % load.num_users;
    for (uint64_t n = 0; n < load.requests_per_client; ++n) {
      lines.push_back("{\"cmd\":\"recommend\",\"model\":\"" + load.model +
                      "\",\"user\":" + std::to_string(user) +
                      ",\"m\":" + std::to_string(load.m) + "}");
      user = (user + 1) % load.num_users;
    }
  }
  return lines;
}

const FlagTable kFlags = {
    "bench_daemon_hot",
    "Daemon throughput over loopback TCP against the same requests handled "
    "in process.",
    WithRecordFlags(
        {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
         IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
         IntFlag("m", 0, UINT32_MAX, "50", "top-M per request"),
         IntFlag("sweeps", 0, UINT32_MAX, "6", "training sweeps"),
         IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
         IntFlag("reps", 1, UINT32_MAX, "5", "timed repetitions"),
         IntFlag("warmup", 0, UINT32_MAX, "1", "untimed warm-up repetitions"),
         IntFlag("clients", 1, UINT32_MAX, "8", "load clients"),
         IntFlag("requests", 1, INT64_MAX, "500", "requests per client"),
         IntFlag("pipeline", 0, UINT32_MAX, "16",
                 "requests in flight per client"),
         IntFlag("workers", 0, INT64_MAX, "0",
                 "daemon worker threads; 0 = one per usable CPU")},
        "BENCH_daemon.json")};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const uint32_t m = flags.Int<uint32_t>("m");
  const uint64_t seed = flags.Int<uint64_t>("seed");
  const uint32_t reps = flags.Int<uint32_t>("reps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");

  LoadGenOptions load;
  load.clients = flags.Int<uint32_t>("clients");
  load.requests_per_client = flags.Int<uint64_t>("requests");
  load.pipeline = flags.Int<uint32_t>("pipeline");
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
  config.max_sweeps = flags.Int<uint32_t>("sweeps");
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
  std::remove(model_path.c_str());  // the mapping keeps it alive

  // Offline oracle on the same model + exclusions (the bit-identical
  // contract the daemon must uphold from every worker).
  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, r, batch).value();

  RequestServer::Options server_options;
  server_options.serve.m = m;
  server_options.num_workers = flags.Int<size_t>("workers");
  RequestServer server(&registry, server_options);
  const size_t workers = server.num_workers();
  const size_t cpus = UsableCpus();
  const double scaling = static_cast<double>(std::min(workers, cpus));

  // One validated pass, then warmup + reps timed ones.
  const uint64_t connections =
      static_cast<uint64_t>(1 + warmup + reps) * load.clients;
  std::thread serve_thread([&server, connections] {
    OCULAR_CHECK(server.RunTcpLoop(0, connections).ok());
  });
  for (int ms = 0; ms < 10000 && (load.port = server.bound_port()) == 0;
       ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  OCULAR_CHECK(load.port != 0);

  // Validated pass first: every reply checked against the oracle.
  std::mutex mismatch_mu;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  LoadGenOptions validate = load;
  validate.on_reply = [&](uint32_t user, const std::string& line) {
    if (ReplyMatchesRanked(line, oracle.recommendations[user])) return;
    std::lock_guard<std::mutex> lock(mismatch_mu);
    if (mismatches++ == 0) {
      first_mismatch = "user " + std::to_string(user) + ": " + line;
    }
  };
  auto validated = RunLoadGen(validate);
  OCULAR_CHECK(validated.ok());
  if (mismatches != 0 || validated->error_replies != 0) {
    LineServer::RequestShutdown();
    serve_thread.join();
    std::fprintf(stderr,
                 "FAIL: %llu daemon replies differ from the "
                 "RecommendForAllUsers oracle, %llu error replies; first: "
                 "%s\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(validated->error_replies),
                 first_mismatch.c_str());
    return 1;
  }

  const std::vector<std::string> stream = RequestStream(load);
  std::vector<double> inprocess_rps, pooled_rps, p50_us, p99_us, ratios;
  for (uint32_t run = 0; run < warmup + reps; ++run) {
    Stopwatch watch;
    for (const std::string& line : stream) (void)server.HandleLine(line);
    const double inprocess = stream.size() / watch.ElapsedSeconds();
    auto pass = RunLoadGen(load);
    OCULAR_CHECK(pass.ok());
    OCULAR_CHECK(pass->error_replies == 0);
    if (run < warmup) continue;
    inprocess_rps.push_back(inprocess);
    pooled_rps.push_back(pass->requests_per_second);
    p50_us.push_back(pass->p50_latency_us);
    p99_us.push_back(pass->p99_latency_us);
    ratios.push_back(pass->requests_per_second / (inprocess * scaling));
  }
  serve_thread.join();
  const double efficiency = Median(ratios);

  std::printf("  in-process: %9.0f req/s  (HandleLine on one thread)\n",
              Median(inprocess_rps));
  std::printf("  pooled    : %9.0f req/s  (%zu workers on %zu usable CPUs, "
              "pipelined batched replies)  p50 %.0f us  p99 %.0f us\n",
              Median(pooled_rps), workers, cpus, Median(p50_us),
              Median(p99_us));
  std::printf("  efficiency: %9.2f        (pooled / in-process x %.0f, "
              "median per rep; identical lists vs oracle)\n",
              efficiency, scaling);

  Record record("daemon_hot");
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
  record.Workload("workers", workers);
  record.Workload("reps", reps);
  record.Workload("warmup", warmup);
  record.Info("inprocess_requests_per_second", Median(inprocess_rps));
  record.Info("pooled_requests_per_second", Median(pooled_rps));
  record.Info("p50_latency_us", Median(p50_us));
  record.Info("p99_latency_us", Median(p99_us));
  record.Info("lists_identical", true);
  record.AtLeast("pool_efficiency", efficiency, 0.5);
  return FinishRecord(record, flags);
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
