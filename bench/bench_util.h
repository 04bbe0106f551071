#ifndef OCULAR_BENCH_BENCH_UTIL_H_
#define OCULAR_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction binaries.
//
// Every binary regenerates one table or figure of the ICDE'17 OCuLaR paper
// on a shape-calibrated synthetic stand-in of the paper's dataset (the
// shaped generators in src/data/synthetic.h), scaled down so it runs in
// seconds-to-minutes. Pass --scale=<x> to change the dataset scale; an
// undeclared flag prints the bench's flags.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/bpr.h"
#include "baselines/knn.h"
#include "baselines/wals.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/ocular_recommender.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "sparse/coo.h"

namespace ocular {
namespace bench {

/// Two disjoint dense user-item blocks with random holes: the easiest
/// co-clustering instance, and the workload of the train, serve, fold-in,
/// daemon, connection and fleet benches, so their records are comparable.
/// `scale` multiplies the row and column counts (at least 8 each per
/// block); one sweep or one all-users pass is dominated by the O(nnz·K)
/// block work.
inline CsrMatrix TwoBlockWorkload(double scale, uint64_t seed) {
  const auto dim = [scale](uint32_t base) {
    return std::max(8u, static_cast<uint32_t>(base * scale));
  };
  const uint32_t users_per_block = dim(600);
  const uint32_t items_per_block = dim(400);
  const double fill = 0.7;
  Rng rng(seed);
  CooBuilder coo;
  for (uint32_t b = 0; b < 2; ++b) {
    const uint32_t u0 = b * users_per_block;
    const uint32_t i0 = b * items_per_block;
    for (uint32_t u = 0; u < users_per_block; ++u) {
      for (uint32_t i = 0; i < items_per_block; ++i) {
        if (rng.Uniform(0.0, 1.0) < fill) coo.Add(u0 + u, i0 + i);
      }
    }
  }
  return CsrMatrix::FromCoo(
      coo.Finalize(2 * users_per_block, 2 * items_per_block).value());
}

/// Writes `content` to `path`; returns false (with a log line) on failure.
/// The --json benches emit their machine-readable records through this.
inline bool WriteTextFile(const std::string& path,
                          const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    OCULAR_LOG(kError) << "cannot open " << path << " for writing";
    return false;
  }
  out << content;
  return out.good();
}

/// Extracts the first numeric value of `"key": <number>` from a JSON text.
/// Good enough for reading back our own BENCH_*.json records (the baseline
/// regression gate); NOT a general JSON parser.
inline bool FindJsonNumber(const std::string& json, const std::string& key,
                           double* value) {
  const std::string needle = "\"" + key + "\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const size_t colon = json.find(':', at + needle.size());
  if (colon == std::string::npos) return false;
  const char* start = json.c_str() + colon + 1;
  char* end = nullptr;
  const double parsed = std::strtod(start, &end);
  if (end == start) return false;
  *value = parsed;
  return true;
}

/// A named recommender candidate (one hyper-parameter setting).
struct Candidate {
  std::string algorithm;
  std::unique_ptr<Recommender> recommender;
};

/// Mean R-OCuLaR weight w_u = |unknowns| / |positives| over users with at
/// least one positive. R-OCuLaR's objective scales the positive terms by
/// ~this factor, so its lambda must scale with it to regularize comparably.
inline double MeanRelativeWeight(const CsrMatrix& interactions) {
  double sum = 0.0;
  uint32_t n = 0;
  for (uint32_t u = 0; u < interactions.num_rows(); ++u) {
    const double deg = interactions.RowDegree(u);
    if (deg > 0) {
      sum += (interactions.num_cols() - deg) / deg;
      ++n;
    }
  }
  return n > 0 ? sum / n : 1.0;
}

/// Builds the contestant roster of Table I / Figure 5: OCuLaR, R-OCuLaR,
/// wALS, BPR, user-based, item-based — each with a small hyper-parameter
/// sweep ("for each technique we test a number of hyper-parameters and
/// report only the best results", Section VII-B.2). `k_hint` scales the
/// latent dimensions to the dataset size; `mean_weight` feeds the
/// R-OCuLaR lambda scaling (MeanRelativeWeight of the training matrix).
inline std::vector<Candidate> MakeRoster(uint32_t k_hint,
                                         double mean_weight = 10.0) {
  std::vector<Candidate> roster;
  for (double lambda : {0.2, 1.0}) {
    for (uint32_t k : {k_hint, k_hint * 2}) {
      OcularConfig c;
      c.k = k;
      c.lambda = lambda;
      c.max_sweeps = 40;
      roster.push_back({"OCuLaR", std::make_unique<OcularRecommender>(c)});
      // R-OCuLaR's w_u weights inflate the positive terms by ~mean_weight;
      // sweep lambdas scaled accordingly.
      for (double boost : {0.3 * mean_weight, mean_weight}) {
        OcularConfig rc = c;
        rc.variant = OcularVariant::kRelative;
        rc.lambda = lambda * boost;
        roster.push_back(
            {"R-OCuLaR", std::make_unique<OcularRecommender>(rc)});
      }
    }
  }
  // wALS: the paper fixes b = 0.01, lambda = 0.01 and sweeps the latent
  // dimension; at our reduced scale the unknown-weight also needs a sweep
  // to stay competitive across densities.
  for (uint32_t k : {k_hint, k_hint * 2}) {
    for (double b : {0.01, 0.1}) {
      WalsConfig w;
      w.k = k;
      w.b = b;
      w.lambda = 0.05;
      w.iterations = 12;
      roster.push_back({"wALS", std::make_unique<WalsRecommender>(w)});
    }
    BprConfig b;
    b.k = k;
    b.epochs = 20;
    b.lambda = 0.01;
    roster.push_back({"BPR", std::make_unique<BprRecommender>(b)});
  }
  for (uint32_t n : {20u, 60u}) {
    KnnConfig kc;
    kc.num_neighbors = n;
    roster.push_back({"user-based", std::make_unique<UserKnnRecommender>(kc)});
    roster.push_back({"item-based", std::make_unique<ItemKnnRecommender>(kc)});
  }
  return roster;
}

/// Best MAP@m and recall@m per algorithm across its candidates, averaged
/// over `num_instances` independent 75/25 splits.
struct AlgoResult {
  std::string algorithm;
  double map = 0.0;
  double recall = 0.0;
};

inline std::vector<AlgoResult> RunComparison(const CsrMatrix& interactions,
                                             uint32_t m, uint32_t k_hint,
                                             int num_instances,
                                             uint64_t seed) {
  // algorithm -> best (map, recall) summed over instances.
  std::vector<std::string> names = {"OCuLaR", "R-OCuLaR",   "wALS",
                                    "BPR",    "user-based", "item-based"};
  std::vector<AlgoResult> totals;
  for (const auto& n : names) totals.push_back({n, 0.0, 0.0});

  for (int inst = 0; inst < num_instances; ++inst) {
    Rng rng(seed + static_cast<uint64_t>(inst) * 7919);
    auto split = SplitInteractions(interactions, 0.75, &rng).value();
    auto roster = MakeRoster(k_hint, MeanRelativeWeight(split.train));
    std::vector<AlgoResult> best;
    for (const auto& n : names) best.push_back({n, -1.0, -1.0});
    for (auto& cand : roster) {
      Status st = cand.recommender->Fit(split.train);
      if (!st.ok()) {
        OCULAR_LOG(kWarning) << cand.algorithm << ": " << st.ToString();
        continue;
      }
      auto metrics =
          EvaluateRankingAtM(*cand.recommender, split.train, split.test, m)
              .value();
      for (auto& b : best) {
        if (b.algorithm == cand.algorithm && metrics.map > b.map) {
          b.map = metrics.map;
          b.recall = metrics.recall;
        }
      }
    }
    for (size_t a = 0; a < names.size(); ++a) {
      totals[a].map += best[a].map;
      totals[a].recall += best[a].recall;
    }
  }
  for (auto& t : totals) {
    t.map /= num_instances;
    t.recall /= num_instances;
  }
  return totals;
}

}  // namespace bench
}  // namespace ocular

#endif  // OCULAR_BENCH_BENCH_UTIL_H_
