// bench_model_store — cold-open and steady-state latency of the binary
// (OCLR v4) model path against the v1 text path.
//
// Measures, on one trained OCuLaR model written in both formats:
//   cold open   — v1 LoadModel (full parse + copy) vs ModelStore::Open
//                 (mmap plus one XXH64 pass over every section),
//   steady state— per-request ServeTopM latency through the mmapped
//                 StoreRecommender vs the in-memory OcularModelRecommender,
//                 with an identical-ranking cross-check.
//
// The open-time ratio is the headline: it is what bounds how fast a
// serving daemon can hot-reload or cold-start a large catalog model.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/model_io.h"
#include "core/model_store.h"
#include "serving/score_engine.h"
#include "serving/store_recommender.h"

namespace ocular {
namespace bench {
namespace {

const FlagTable kFlags = {
    "bench_model_store",
    "Cold-open and steady-state latency of binary against text models.",
    {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
     IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
     IntFlag("reps", 0, INT32_MAX, "200", "timed serves"),
     IntFlag("opens", 0, INT32_MAX, "20", "timed opens"),
     BoolFlag("json", false, "write the JSON record to --out"),
     StringFlag("out", "BENCH_store.json", "JSON record path")}};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const int reps = flags.Int<int>("reps");
  const int opens = flags.Int<int>("opens");

  // One trained model on the hot-path benches' two-block workload.
  const CsrMatrix train = TwoBlockWorkload(scale, 1);
  const uint32_t users = train.num_rows();
  const uint32_t items = train.num_cols();
  OcularConfig cfg;
  cfg.k = k;
  cfg.lambda = 1.0;
  cfg.max_sweeps = 5;
  OcularRecommender rec(cfg);
  if (!rec.Fit(train).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  const std::string text_path = "/tmp/bench_store_model.txt";
  const std::string bin_path = "/tmp/bench_store_model.oclr";
  if (!SaveModel(rec.model(), cfg, text_path).ok() ||
      !SaveModelBinary(rec.model(), cfg, bin_path).ok()) {
    std::fprintf(stderr, "save failed\n");
    return 1;
  }

  // ---- cold opens (medians over `opens` runs; page cache warm for all,
  // which is the hot-reload scenario).
  std::vector<double> text_open, bin_open_verify;
  for (int r = 0; r < opens; ++r) {
    {
      Stopwatch t;
      auto loaded = LoadModel(text_path);
      if (!loaded.ok()) return 1;
      text_open.push_back(t.ElapsedSeconds());
    }
    {
      Stopwatch t;
      auto store = ModelStore::Open(bin_path);
      if (!store.ok()) return 1;
      bin_open_verify.push_back(t.ElapsedSeconds());
    }
  }
  const double text_s = Median(text_open);
  const double verify_s = Median(bin_open_verify);

  // ---- steady-state serving: mmapped vs in-memory, identical rankings.
  auto store = ModelStore::Open(bin_path).value();
  StoreRecommender store_rec(store);
  OcularModelRecommender memory_rec(rec.model());
  ServeOptions serve;
  serve.m = 50;
  ServeWorkspace ws_store, ws_memory;
  ws_store.Reserve(serve.m, serve.block_items, 0, store_rec.num_items());
  ws_memory.Reserve(serve.m, serve.block_items, 0, memory_rec.num_items());

  size_t mismatches = 0;
  for (uint32_t u = 0; u < std::min<uint32_t>(users, 200); ++u) {
    auto a = ServeTopM(store_rec, u, train.Row(u), serve, &ws_store);
    auto b = ServeTopM(memory_rec, u, train.Row(u), serve, &ws_memory);
    if (a.size() != b.size() ||
        !std::equal(a.begin(), a.end(), b.begin())) {
      ++mismatches;
    }
  }

  Stopwatch t_store;
  for (int r = 0; r < reps; ++r) {
    const uint32_t u = static_cast<uint32_t>(r) % users;
    (void)ServeTopM(store_rec, u, train.Row(u), serve, &ws_store);
  }
  const double store_us = t_store.ElapsedSeconds() * 1e6 / reps;
  Stopwatch t_memory;
  for (int r = 0; r < reps; ++r) {
    const uint32_t u = static_cast<uint32_t>(r) % users;
    (void)ServeTopM(memory_rec, u, train.Row(u), serve, &ws_memory);
  }
  const double memory_us = t_memory.ElapsedSeconds() * 1e6 / reps;

  std::printf("model: %u x %u, K=%u (%zu factor bytes)\n", users, items, k,
              rec.model().MemoryBytes());
  std::printf("cold open:   v1 text parse %9.3f ms\n", text_s * 1e3);
  std::printf("             v4 mmap+verify %8.3f ms   (%.0fx)\n",
              verify_s * 1e3, text_s / verify_s);
  std::printf("serve top-%u: mmapped %7.1f us/req, in-memory %7.1f us/req\n",
              serve.m, store_us, memory_us);
  std::printf("ranking cross-check: %zu mismatching users (expect 0)\n",
              mismatches);
  if (mismatches != 0) return 1;

  Record record("model_store");
  record.Workload("kind", "two_block");
  record.Workload("scale", scale);
  record.Workload("users", users);
  record.Workload("items", items);
  record.Workload("nnz", train.nnz());
  record.Workload("k", k);
  record.Workload("reps", reps);
  record.Workload("opens", opens);
  record.Info("open_text_ms", text_s * 1e3);
  record.Info("open_mmap_verify_ms", verify_s * 1e3);
  record.Info("open_speedup_verify", text_s / verify_s);
  record.Info("serve_store_us", store_us);
  record.Info("serve_memory_us", memory_us);
  record.Info("ranking_mismatches", mismatches);
  if (!WriteRecord(record, flags)) return 1;
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
