// Hot-path serving benchmark: all-users top-M generation (the paper's
// Section VIII bulk regeneration job), legacy per-pair path vs the blocked
// scoring engine, on a trained OCuLaR model over the synthetic two-block
// workload at K=50.
//
// The legacy side is a faithful reproduction of the pre-refactor bulk
// path: per user, a freshly heap-allocated score vector filled through the
// virtual per-pair Score() (a serial-dependency K-dot plus expm1 per
// call), ranked with TopM, min_score applied as a post-filter. The engine
// side is RecommendForAllUsers (serial — the speedup is algorithmic, not
// thread count): tiled user-row x Vᵀ-block products, reusable per-worker
// ServeWorkspace, threshold-pruned heap selection.
//
// Both paths must produce identical ranked lists (item-exact, scores to
// 1e-12) — the bench aborts otherwise. Candidate mode (co-cluster pruning)
// is timed and its exact-vs-candidate overlap reported for information; it
// is approximate and takes no part in the speedup gate. Membership uses
// the relative row-max rule by default (--candidate-relative; the absolute
// --candidate-threshold floor alone collapses at K=50 — overlap 0.25).
//
// --json writes a machine-readable record (see README "Performance") to
// --out. The speedup is the median over reps of one legacy pass timed
// against the engine pass right after it. --min-speedup fails (exit 2)
// below the floor; --baseline fails (exit 2) on a >25% regression
// against the recorded speedup, after checking the baseline records the
// same workload.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "serving/score_engine.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace ocular {
namespace bench {
namespace {

// -------------------------------------------------------- legacy path
// Faithful reproduction of the pre-engine bulk loop (the before side of
// the before/after table): per user, a fresh heap-allocated score vector
// filled through the virtual per-pair Score, the pre-refactor TopM (heap
// insert attempted for every non-excluded item, no selection bar), and
// min_score applied as a post-ranking filter.

std::vector<ScoredItem> LegacyTopM(const std::vector<double>& scores,
                                   uint32_t m,
                                   std::span<const uint32_t> exclude_sorted) {
  std::vector<ScoredItem> heap;  // min-heap of the current best m
  heap.reserve(m + 1);
  auto worse = [](const ScoredItem& a, const ScoredItem& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  };
  size_t ex = 0;
  for (uint32_t i = 0; i < scores.size(); ++i) {
    while (ex < exclude_sorted.size() && exclude_sorted[ex] < i) ++ex;
    if (ex < exclude_sorted.size() && exclude_sorted[ex] == i) continue;
    ScoredItem cand{i, scores[i]};
    if (heap.size() < m) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (!heap.empty() && worse(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

std::vector<std::vector<ScoredItem>> LegacyRecommendAll(
    const Recommender& rec, const CsrMatrix& train, uint32_t m,
    double min_score) {
  std::vector<std::vector<ScoredItem>> out(rec.num_users());
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    if (train.RowDegree(u) == 0) continue;
    std::vector<double> scores(rec.num_items());
    for (uint32_t i = 0; i < scores.size(); ++i) scores[i] = rec.Score(u, i);
    auto ranked = LegacyTopM(scores, m, train.Row(u));
    if (min_score > 0.0) {
      size_t keep = 0;
      while (keep < ranked.size() && ranked[keep].score >= min_score) ++keep;
      ranked.resize(keep);
    }
    out[u] = std::move(ranked);
  }
  return out;
}

// ------------------------------------------------------------ benchmark

struct ServeBenchResult {
  double legacy_seconds_per_pass = 0.0;
  double engine_seconds_per_pass = 0.0;
  double speedup = 0.0;
  double candidate_seconds_per_pass = 0.0;
  double candidate_overlap = 0.0;
  double max_score_abs_err = 0.0;
  bool lists_identical = false;
  uint32_t reps = 0;
  uint32_t warmup = 0;
};

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

ServeBenchResult RunServeBench(const OcularRecommender& rec,
                               const CsrMatrix& r, uint32_t m, uint32_t reps,
                               uint32_t warmup,
                               const CandidateIndexOptions& candidates) {
  BatchOptions opts;
  opts.m = m;
  ServeBenchResult out;
  out.reps = reps;
  out.warmup = warmup;

  // Correctness first: one run of each path, lists must agree.
  {
    const auto legacy = LegacyRecommendAll(rec, r, m, opts.min_score);
    const auto engine = RecommendForAllUsers(rec, r, opts).value();
    out.lists_identical = SameLists(legacy, engine, &out.max_score_abs_err);
    if (!out.lists_identical) return out;
  }

  // Each rep times one legacy pass, then one engine pass, so both sides
  // of a ratio see the same machine state; the gated speedup is the
  // median of the per-rep ratios, which a pass that a shared host
  // descheduled cannot move. The per-pass seconds are means.
  {
    for (uint32_t w = 0; w < warmup; ++w) {
      LegacyRecommendAll(rec, r, m, 0.0);
      (void)RecommendForAllUsers(rec, r, opts).value();
    }
    std::vector<double> ratios;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      Stopwatch legacy;
      LegacyRecommendAll(rec, r, m, 0.0);
      const double legacy_seconds = legacy.ElapsedSeconds();
      Stopwatch engine;
      (void)RecommendForAllUsers(rec, r, opts).value();
      const double engine_seconds = engine.ElapsedSeconds();
      out.legacy_seconds_per_pass += legacy_seconds / reps;
      out.engine_seconds_per_pass += engine_seconds / reps;
      ratios.push_back(legacy_seconds / std::max(engine_seconds, 1e-12));
    }
    if (!ratios.empty()) {
      std::sort(ratios.begin(), ratios.end());
      const size_t mid = ratios.size() / 2;
      out.speedup = ratios.size() % 2 == 1
                        ? ratios[mid]
                        : 0.5 * (ratios[mid - 1] + ratios[mid]);
    }
  }

  // Candidate mode, for information: pruned serving time + exact overlap.
  // Membership is RELATIVE (entry >= fraction * row max) rather than the
  // old absolute 0.6 floor: with the affinity mass spread over K=50
  // dimensions every entry is small, and the absolute rule dropped most
  // rows out of every co-cluster (overlap@50 was 0.25 on this workload;
  // see CandidateIndexOptions).
  {
    const auto index =
        BuildCoClusterCandidateIndex(rec.model(), candidates).value();
    BatchOptions copts = opts;
    copts.candidates = &index;
    (void)RecommendForAllUsers(rec, r, copts).value();  // warmup
    Stopwatch watch;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      (void)RecommendForAllUsers(rec, r, copts).value();
    }
    out.candidate_seconds_per_pass = watch.ElapsedSeconds() / reps;
    ServeOptions serve;
    serve.m = m;
    auto overlap = CandidateOverlapAtM(rec, r, index, serve);
    out.candidate_overlap = overlap.ok() ? *overlap : 0.0;
  }
  return out;
}

std::string ToJson(const ServeBenchResult& res, const CsrMatrix& r,
                   uint32_t k, uint32_t m, double scale,
                   const CandidateIndexOptions& candidates) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("serve_hot");
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
  w.Key("reps");
  w.UInt(res.reps);
  w.Key("warmup");
  w.UInt(res.warmup);
  w.EndObject();
  w.Key("legacy");
  w.BeginObject();
  w.Key("seconds_per_pass");
  w.Double(res.legacy_seconds_per_pass);
  w.EndObject();
  w.Key("engine");
  w.BeginObject();
  w.Key("seconds_per_pass");
  w.Double(res.engine_seconds_per_pass);
  w.EndObject();
  w.Key("speedup");
  w.Double(res.speedup);
  w.Key("lists_identical");
  w.Bool(res.lists_identical);
  w.Key("max_score_abs_err");
  w.Double(res.max_score_abs_err);
  w.Key("candidate");
  w.BeginObject();
  w.Key("seconds_per_pass");
  w.Double(res.candidate_seconds_per_pass);
  w.Key("overlap");
  w.Double(res.candidate_overlap);
  w.Key("threshold");
  w.Double(candidates.threshold);
  w.Key("relative");
  w.Double(candidates.relative);
  w.EndObject();
  w.EndObject();
  return w.str();
}

const FlagTable kFlags = {
    "bench_serve_hot",
    "All-users top-M: the blocked scoring engine against the per-pair path.",
    {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
     IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
     IntFlag("m", 0, UINT32_MAX, "50", "top-M per request"),
     IntFlag("reps", 0, UINT32_MAX, "3", "timed repetitions"),
     IntFlag("warmup", 0, UINT32_MAX, "1", "untimed warm-up repetitions"),
     IntFlag("sweeps", 0, UINT32_MAX, "6", "training sweeps"),
     IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
     RealFlag("candidate-threshold", 0.0, kNoUpperBound, "0.6",
              "absolute co-cluster membership floor"),
     RealFlag("candidate-relative", 0.0, 1.0, "0.5",
              "relative co-cluster membership floor"),
     BoolFlag("json", false, "write the JSON record to --out"),
     StringFlag("out", "BENCH_serve.json", "JSON record path"),
     RealFlag("min-speedup", 0.0, kNoUpperBound, "0",
              "fail below this speedup; 0 = no floor"),
     StringFlag("baseline", "", "checked-in record to gate this run against")}};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const uint32_t m = flags.Int<uint32_t>("m");
  const uint32_t reps = flags.Int<uint32_t>("reps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");
  const uint32_t sweeps = flags.Int<uint32_t>("sweeps");
  const uint64_t seed = flags.Int<uint64_t>("seed");

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  std::printf(
      "serve_hot: %u users x %u items, nnz=%zu, K=%u, top-%u, %u reps "
      "(+%u warmup)\n",
      r.num_rows(), r.num_cols(), r.nnz(), k, m, reps, warmup);

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

  CandidateIndexOptions candidates;
  candidates.threshold = flags.Real("candidate-threshold");
  candidates.relative = flags.Real("candidate-relative");

  const ServeBenchResult res =
      RunServeBench(rec, r, m, reps, warmup, candidates);
  if (!res.lists_identical) {
    std::fprintf(stderr,
                 "FAIL: engine ranked lists differ from the per-pair path "
                 "(max |dscore| %.3e)\n",
                 res.max_score_abs_err);
    return 1;
  }

  std::printf("  legacy   : %8.2f ms/pass  (per-pair Score + TopM)\n",
              1e3 * res.legacy_seconds_per_pass);
  std::printf("  engine   : %8.2f ms/pass  (blocked ScoreBlock engine)\n",
              1e3 * res.engine_seconds_per_pass);
  std::printf("  speedup  : %8.2fx          (identical lists, max |ds| %.1e)\n",
              res.speedup, res.max_score_abs_err);
  std::printf("  candidate: %8.2f ms/pass  (co-cluster pruning, overlap "
              "%.3f)\n",
              1e3 * res.candidate_seconds_per_pass, res.candidate_overlap);

  if (flags.Bool("json")) {
    const std::string out_path = flags.String("out");
    const std::string json = ToJson(res, r, k, m, scale, candidates);
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
    // The ratio only transfers between runs of the SAME workload — refuse
    // to gate against a baseline recorded at a different scale/K/m/nnz.
    double base_scale = 0.0, base_k = 0.0, base_m = 0.0, base_nnz = 0.0;
    if (!FindJsonNumber(buf.str(), "scale", &base_scale) ||
        !FindJsonNumber(buf.str(), "k", &base_k) ||
        !FindJsonNumber(buf.str(), "m", &base_m) ||
        !FindJsonNumber(buf.str(), "nnz", &base_nnz) ||
        std::abs(base_scale - scale) > 1e-12 ||
        static_cast<uint32_t>(base_k) != k ||
        static_cast<uint32_t>(base_m) != m ||
        static_cast<size_t>(base_nnz) != r.nnz()) {
      std::fprintf(stderr,
                   "FAIL: baseline %s records a different workload "
                   "(scale=%g k=%g m=%g nnz=%.0f vs scale=%g k=%u m=%u "
                   "nnz=%zu) — regenerate it with the current bench flags\n",
                   baseline_path.c_str(), base_scale, base_k, base_m,
                   base_nnz, scale, k, m, r.nnz());
      return 2;
    }
    // >25% regression against the checked-in baseline fails the gate. The
    // speedup is a same-machine ratio, so it transfers across runners far
    // better than absolute wall clock.
    const double floor = 0.75 * baseline_speedup;
    if (res.speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: speedup %.2fx regressed >25%% vs baseline %.2fx "
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
