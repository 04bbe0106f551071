// Sharded-store serving benchmark: the numbers the sharding PR hangs on.
//
// Phases:
//   1. open     — mmap + validate the same catalog as one monolithic
//                 .oclr vs an N-shard shardset (manifest + fingerprints +
//                 per-member headers). Sharding must not make opening a
//                 catalog meaningfully slower.
//   2. steady   — req/s through a real TCP RequestServer answering from
//                 the sharded binding (routing + shared items file on the
//                 hot path).
//   3. update   — wall clock of one online update that touches a single
//                 shard: fold-in refresh, rewrite of that shard file,
//                 fingerprint + manifest republish, registry swap. This
//                 is the operation sharding exists to make cheap — the
//                 other N-1 shards are not rewritten, not remapped, not
//                 even re-read.
//
// The catalog is the deterministic scale generator (data/scale.h), so
// records (bench/bench_util.h) are comparable across machines at equal
// --users. --baseline gates sharded open time and update-publish wall
// clock with ceilings set from the spread of 20 Release runs: every
// unmodified run passes, and a 3x regression of either fails.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/model_shard.h"
#include "core/model_store.h"
#include "data/scale.h"
#include "serving/daemon.h"
#include "serving/loadgen.h"
#include "serving/registry.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace ocular {
namespace bench {
namespace {

struct ShardBenchResult {
  double mono_open_ms = 0.0;
  double sharded_open_ms = 0.0;
  double sharded_over_mono = 0.0;
  double steady_rps = 0.0;
  double update_publish_ms = 0.0;
  uint64_t errors = 0;
};

const FlagTable kFlags = {
    "bench_shard",
    "Sharded-store open, serve and update-publish costs.",
    WithRecordFlags(
        {IntFlag("users", 0, UINT32_MAX, "200000", "catalog users"),
         IntFlag("items", 0, UINT32_MAX, "128", "catalog items"),
         IntFlag("k", 0, UINT32_MAX, "8", "co-clusters (K)"),
         IntFlag("seed", 0, INT64_MAX, "7", "workload seed"),
         IntFlag("shards", 0, UINT32_MAX, "8", "shards"),
         IntFlag("m", 0, UINT32_MAX, "10", "top-M per request"),
         IntFlag("reps", 0, UINT32_MAX, "5", "timed repetitions"),
         IntFlag("update-reps", 0, UINT32_MAX, "5", "timed update publishes"),
         IntFlag("workers", 0, INT64_MAX, "4", "daemon worker threads"),
         IntFlag("clients", 0, UINT32_MAX, "4", "load clients"),
         IntFlag("requests", 0, INT64_MAX, "2000", "requests per client"),
         IntFlag("pipeline", 0, UINT32_MAX, "8",
                 "requests in flight per client")},
        "BENCH_shard.json")};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  ScaleCatalogSpec spec;
  spec.num_users = flags.Int<uint32_t>("users");
  spec.num_items = flags.Int<uint32_t>("items");
  spec.k = flags.Int<uint32_t>("k");
  spec.seed = flags.Int<uint64_t>("seed");
  const uint32_t shards = flags.Int<uint32_t>("shards");
  const uint32_t m = flags.Int<uint32_t>("m");
  const uint32_t reps = flags.Int<uint32_t>("reps");
  const uint32_t update_reps = flags.Int<uint32_t>("update-reps");
  const size_t workers = flags.Int<size_t>("workers");

  LoadGenOptions load;
  load.clients = flags.Int<uint32_t>("clients");
  load.requests_per_client = flags.Int<uint64_t>("requests");
  load.pipeline = flags.Int<uint32_t>("pipeline");
  load.m = m;
  load.num_users = spec.num_users;

  std::printf(
      "shard: %u users x %u items, K=%u, %u shards, top-%u — %u clients x "
      "%llu requests, pipeline %u, %u open reps, %u update reps\n",
      spec.num_users, spec.num_items, spec.k, shards, m, load.clients,
      static_cast<unsigned long long>(load.requests_per_client),
      load.pipeline, reps, update_reps);

  // ---- materialize the catalog once; write it both ways.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/ocular_bench_shard";
  const std::string mono_path = base + ".oclr";
  const std::string manifest_path = base + ".shardset";

  BinaryModelMeta meta;
  meta.k = spec.k;
  meta.lambda = 0.5;
  DenseMatrix users(spec.num_users, spec.k);
  for (uint32_t u = 0; u < spec.num_users; ++u) {
    ScaleUserRow(spec, u, users.Row(u));
  }
  const DenseMatrix items_t = ScaleItemFactorsTransposed(spec);
  OCULAR_CHECK(WriteModelSections(meta, SectionSource::Rows(users),
                                  SectionSource::Rows(items_t), mono_path)
                   .ok());
  OCULAR_CHECK(
      SaveModelSharded(meta, users, items_t, shards, manifest_path).ok());

  ShardBenchResult res;

  // ---- phase 1: open time, monolithic vs sharded.
  {
    double mono_sum = 0.0, sharded_sum = 0.0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      auto mono = ModelStore::Open(mono_path);
      OCULAR_CHECK(mono.ok());
      mono_sum += watch.ElapsedMillis();
      watch.Restart();
      auto set = OpenShardSet(manifest_path);
      OCULAR_CHECK(set.ok());
      sharded_sum += watch.ElapsedMillis();
    }
    res.mono_open_ms = mono_sum / reps;
    res.sharded_open_ms = sharded_sum / reps;
    res.sharded_over_mono =
        res.sharded_open_ms / std::max(res.mono_open_ms, 1e-9);
  }

  // ---- phase 2: steady-state req/s from the sharded binding over TCP.
  // The empty train matrix enables the update verb (phase 3) without
  // changing any recommendation (no exclusions).
  auto empty_train = std::make_shared<CsrMatrix>(CsrMatrix::FromCoo(
      CooBuilder().Finalize(spec.num_users, spec.num_items).value()));
  ModelRegistry registry;
  OCULAR_CHECK(registry.Load("default", manifest_path, empty_train).ok());
  RequestServer::Options server_options;
  server_options.num_workers = workers;
  server_options.update_journal = false;
  RequestServer server(&registry, server_options);
  std::thread server_thread(
      [&server] { OCULAR_CHECK(server.RunTcpLoop(0, 0).ok()); });
  uint16_t port = 0;
  for (int ms = 0; ms < 10000 && (port = server.bound_port()) == 0; ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  OCULAR_CHECK(port != 0);
  load.port = port;
  {
    auto warm = RunLoadGen(load);
    OCULAR_CHECK(warm.ok());
    res.errors += warm->error_replies;
    auto pass = RunLoadGen(load);
    OCULAR_CHECK(pass.ok());
    res.errors += pass->error_replies;
    res.steady_rps = pass->requests_per_second;
  }

  // ---- phase 3: single-shard update-publish wall clock. Each rep adds
  // one interaction for one user, which folds in that user, rewrites
  // exactly one shard file, republishes the manifest, and swaps the
  // binding; the reply must confirm shards_touched == 1.
  {
    double publish_sum = 0.0;
    for (uint32_t rep = 0; rep < update_reps; ++rep) {
      const uint32_t user = (rep * 7919u) % spec.num_users;
      const uint32_t item = rep % spec.num_items;
      const std::string request = R"({"cmd":"update","adds":[[)" +
                                  std::to_string(user) + "," +
                                  std::to_string(item) + "]]}";
      Stopwatch watch;
      const std::string reply = server.HandleLine(request);
      publish_sum += watch.ElapsedMillis();
      const auto parsed = JsonValue::Parse(reply);
      const JsonValue* ok = parsed.ok() ? parsed->Find("ok") : nullptr;
      const JsonValue* touched =
          parsed.ok() ? parsed->Find("shards_touched") : nullptr;
      if (ok == nullptr || !ok->boolean() || touched == nullptr ||
          touched->number() != 1.0) {
        std::fprintf(stderr, "FAIL: update rep %u did not touch exactly one "
                     "shard: %s\n", rep, reply.c_str());
        ++res.errors;
        break;
      }
    }
    res.update_publish_ms = publish_sum / std::max(update_reps, 1u);
  }

  LineServer::RequestShutdown();
  server_thread.join();
  std::remove(mono_path.c_str());
  // Leave no shardset members behind either.
  {
    auto set = LoadShardSetManifest(manifest_path);
    if (set.ok()) {
      std::remove(ShardSetResolve(manifest_path, set->items_file).c_str());
      for (const auto& e : set->shards) {
        std::remove(ShardSetResolve(manifest_path, e.file).c_str());
      }
    }
    std::remove(manifest_path.c_str());
  }

  std::printf("  open mono    : %8.2f ms\n", res.mono_open_ms);
  std::printf("  open sharded : %8.2f ms  (%.2fx of mono, %u members)\n",
              res.sharded_open_ms, res.sharded_over_mono, shards + 1);
  std::printf("  steady       : %8.0f req/s  (sharded binding)\n",
              res.steady_rps);
  std::printf("  update       : %8.2f ms     (single-shard publish)\n",
              res.update_publish_ms);

  if (res.errors != 0) {
    std::fprintf(stderr, "FAIL: %llu errors during the bench\n",
                 static_cast<unsigned long long>(res.errors));
    return 1;
  }

  Record record("shard");
  record.Workload("kind", "scale_catalog");
  record.Workload("users", spec.num_users);
  record.Workload("items", spec.num_items);
  record.Workload("k", spec.k);
  record.Workload("seed", spec.seed);
  record.Workload("shards", shards);
  record.Workload("m", m);
  record.Workload("clients", load.clients);
  record.Workload("requests_per_client", load.requests_per_client);
  record.Workload("pipeline", load.pipeline);
  record.Workload("workers", workers);
  record.Workload("reps", reps);
  record.Workload("update_reps", update_reps);
  record.Info("mono_open_ms", res.mono_open_ms);
  record.Info("sharded_over_mono", res.sharded_over_mono);
  record.Info("steady_requests_per_second", res.steady_rps);
  record.Info("client_visible_errors", res.errors);
  // Both gated numbers are wall clock. Over 20 Release runs on a 4-vCPU
  // guest the slowest open read 1.2x the recorded median and the slowest
  // publish 1.94x, so 2x (plus 1 ms for the publish) passes all of them,
  // and 3x the recorded value fails either row.
  record.AtMost("sharded_open_ms", res.sharded_open_ms, 2.0, 0.0);
  record.AtMost("update_publish_ms", res.update_publish_ms, 2.0, 1.0);
  return FinishRecord(record, flags);
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
