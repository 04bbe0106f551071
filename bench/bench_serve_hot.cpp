// Hot-path serving benchmark: all-users top-M generation (the paper's
// Section VIII bulk regeneration job) through RecommendForAllUsers
// against the per-pair path, on a trained OCuLaR model over the synthetic
// two-block workload at K=50.
//
// Both sides are product code. The per-pair path scores every item
// through Recommender::Score (a serial K-dot plus expm1 per call), offers
// each to the bounded heap (topm::Consider) and sorts it
// (topm::SortBestFirst): it shares neither the engine's tiles, its
// AffinityBlock kernel nor its TopMSelector, so the ratio moves when any
// of them regresses. The engine side is RecommendForAllUsers, serial.
//
// Both paths must produce identical ranked lists (item-exact, scores to
// 1e-12) — the bench exits 1 otherwise. Each rep times one per-pair pass,
// then one engine pass; the gated value is the median of the per-rep
// ratios (higher is better), which a pass the host descheduled cannot
// move. Candidate mode (co-cluster pruning) is timed and its
// exact-vs-candidate overlap recorded for information; it is approximate
// and takes no part in the gate. Membership uses the relative row-max rule
// by default (--candidate-relative; the absolute --candidate-threshold
// floor alone collapses at K=50 — overlap 0.25).
//
// --json writes the record (bench/bench_util.h) to --out; --baseline
// gates it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "serving/score_engine.h"
#include "sparse/csr.h"

namespace ocular {
namespace bench {
namespace {

/// The per-pair path: top-M of every user with a training row, scoring
/// each non-excluded item through Recommender::Score.
std::vector<std::vector<ScoredItem>> PerPairRecommendAll(
    const Recommender& rec, const CsrMatrix& train,
    const BatchOptions& options) {
  std::vector<std::vector<ScoredItem>> out(rec.num_users());
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    const auto exclude = train.Row(u);
    if (exclude.empty()) continue;
    std::vector<ScoredItem>& heap = out[u];
    heap.reserve(options.m);
    size_t ex = 0;
    for (uint32_t i = 0; i < rec.num_items(); ++i) {
      if (ex < exclude.size() && exclude[ex] == i) {
        ++ex;
        continue;
      }
      topm::Consider(heap, options.m, options.min_score, {i, rec.Score(u, i)});
    }
    topm::SortBestFirst(heap);
  }
  return out;
}

/// Item-exact list equality with a 1e-12 score tolerance; records the
/// worst score deviation.
bool SameLists(const std::vector<std::vector<ScoredItem>>& a,
               const BatchRecommendations& b, double* max_abs_err) {
  if (a.size() != b.recommendations.size()) return false;
  for (size_t u = 0; u < a.size(); ++u) {
    const auto& bu = b.recommendations[u];
    if (a[u].size() != bu.size()) return false;
    for (size_t r = 0; r < a[u].size(); ++r) {
      if (a[u][r].item != bu[r].item) return false;
      const double err = std::abs(a[u][r].score - bu[r].score);
      *max_abs_err = std::max(*max_abs_err, err);
      if (err > 1e-12 * std::max(1.0, std::abs(a[u][r].score))) return false;
    }
  }
  return true;
}

const FlagTable kFlags = {
    "bench_serve_hot",
    "All-users top-M: the per-pair path over the blocked scoring engine.",
    WithRecordFlags(
        {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
         IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
         IntFlag("m", 0, UINT32_MAX, "50", "top-M per request"),
         IntFlag("reps", 1, UINT32_MAX, "3", "timed repetitions"),
         IntFlag("warmup", 0, UINT32_MAX, "1", "untimed warm-up repetitions"),
         IntFlag("sweeps", 0, UINT32_MAX, "6", "training sweeps"),
         IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
         RealFlag("candidate-threshold", 0.0, kNoUpperBound, "0.6",
                  "absolute co-cluster membership floor"),
         RealFlag("candidate-relative", 0.0, 1.0, "0.5",
                  "relative co-cluster membership floor")},
        "BENCH_serve.json")};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const uint32_t m = flags.Int<uint32_t>("m");
  const uint32_t reps = flags.Int<uint32_t>("reps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");
  const uint64_t seed = flags.Int<uint64_t>("seed");

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  std::printf(
      "serve_hot: %u users x %u items, nnz=%zu, K=%u, top-%u, %u reps "
      "(+%u warmup)\n",
      r.num_rows(), r.num_cols(), r.nnz(), k, m, reps, warmup);

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

  BatchOptions opts;
  opts.m = m;

  // Correctness first: one run of each path, lists must agree.
  double max_score_abs_err = 0.0;
  if (!SameLists(PerPairRecommendAll(rec, r, opts),
                 RecommendForAllUsers(rec, r, opts).value(),
                 &max_score_abs_err)) {
    std::fprintf(stderr,
                 "FAIL: engine ranked lists differ from the per-pair path "
                 "(max |dscore| %.3e)\n",
                 max_score_abs_err);
    return 1;
  }

  for (uint32_t w = 0; w < warmup; ++w) {
    (void)PerPairRecommendAll(rec, r, opts);
    (void)RecommendForAllUsers(rec, r, opts).value();
  }
  std::vector<double> perpair_seconds, engine_seconds, ratios;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    Stopwatch perpair;
    (void)PerPairRecommendAll(rec, r, opts);
    perpair_seconds.push_back(perpair.ElapsedSeconds());
    Stopwatch engine;
    (void)RecommendForAllUsers(rec, r, opts).value();
    engine_seconds.push_back(engine.ElapsedSeconds());
    ratios.push_back(perpair_seconds.back() /
                     std::max(engine_seconds.back(), 1e-12));
  }
  const double ratio = Median(ratios);

  // Candidate mode, for information: pruned serving time + exact overlap.
  // Membership is RELATIVE (entry >= fraction * row max) rather than the
  // old absolute 0.6 floor: with the affinity mass spread over K=50
  // dimensions every entry is small, and the absolute rule dropped most
  // rows out of every co-cluster (overlap@50 was 0.25 on this workload;
  // see CandidateIndexOptions).
  CandidateIndexOptions candidates;
  candidates.threshold = flags.Real("candidate-threshold");
  candidates.relative = flags.Real("candidate-relative");
  const auto index =
      BuildCoClusterCandidateIndex(rec.model(), candidates).value();
  BatchOptions copts = opts;
  copts.candidates = &index;
  (void)RecommendForAllUsers(rec, r, copts).value();  // warmup
  Stopwatch watch;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    (void)RecommendForAllUsers(rec, r, copts).value();
  }
  const double candidate_seconds = watch.ElapsedSeconds() / reps;
  ServeOptions serve;
  serve.m = m;
  auto overlap = CandidateOverlapAtM(rec, r, index, serve);
  const double candidate_overlap = overlap.ok() ? *overlap : 0.0;

  std::printf("  per-pair : %8.2f ms/pass  (Score + topm::Consider)\n",
              1e3 * Median(perpair_seconds));
  std::printf("  engine   : %8.2f ms/pass  (RecommendForAllUsers)\n",
              1e3 * Median(engine_seconds));
  std::printf("  ratio    : %8.2fx          (median per rep; identical "
              "lists, max |ds| %.1e)\n",
              ratio, max_score_abs_err);
  std::printf("  candidate: %8.2f ms/pass  (co-cluster pruning, overlap "
              "%.3f)\n",
              1e3 * candidate_seconds, candidate_overlap);

  Record record("serve_hot");
  record.Workload("kind", "two_block");
  record.Workload("scale", scale);
  record.Workload("users", r.num_rows());
  record.Workload("items", r.num_cols());
  record.Workload("nnz", r.nnz());
  record.Workload("k", k);
  record.Workload("m", m);
  record.Workload("reps", reps);
  record.Workload("warmup", warmup);
  record.Info("perpair_seconds_per_pass", Median(perpair_seconds));
  record.Info("engine_seconds_per_pass", Median(engine_seconds));
  record.Info("lists_identical", true);
  record.Info("max_score_abs_err", max_score_abs_err);
  record.Info("candidate_seconds_per_pass", candidate_seconds);
  record.Info("candidate_overlap", candidate_overlap);
  record.Info("candidate_threshold", candidates.threshold);
  record.Info("candidate_relative", candidates.relative);
  record.AtLeast("perpair_over_engine", ratio, 0.75);
  return FinishRecord(record, flags);
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
