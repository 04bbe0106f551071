// Evaluation walkthrough on MovieLens-style data: load (or synthesize) a
// ratings dataset, threshold to implicit feedback (>= 3 stars), split
// 75/25, train OCuLaR and the wALS baseline, and report recall@M / MAP@M —
// the Section VII evaluation protocol end to end.
//
// With real data:
//   ./movielens_eval --ml100k=/path/to/u.data
//   ./movielens_eval --ml1m=/path/to/ratings.dat

#include <cstdio>
#include <string>

#include "baselines/wals.h"
#include "common/flags.h"
#include "core/ocular_recommender.h"
#include "data/loaders.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace ocular;

  const Flags flags = ParseFlagsOrExit(
      {"movielens_eval",
       "Section VII evaluation of OCuLaR and wALS on MovieLens data.",
       {StringFlag("ml100k", "", "MovieLens 100K u.data file"),
        StringFlag("ml1m", "",
                   "MovieLens 1M ratings.dat file; over --ml100k")}},
      argc, argv);
  const bool is_1m = flags.Has("ml1m");
  const std::string& path = flags.String(is_1m ? "ml1m" : "ml100k");
  Dataset dataset;
  if (!path.empty()) {
    auto loaded = is_1m ? LoadMovieLens1M(path) : LoadMovieLens100K(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  } else {
    std::printf("(no --ml100k/--ml1m path given; using the shape-calibrated "
                "synthetic MovieLens stand-in)\n");
    Rng rng(5);
    auto synth = MakeMovieLensLike(/*scale=*/0.08, &rng);
    if (!synth.ok()) {
      std::fprintf(stderr, "%s\n", synth.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(synth).value().dataset;
  }
  std::printf("%s\n\n", dataset.Summary().c_str());

  Rng split_rng(42);
  auto split_result =
      SplitInteractions(dataset.interactions(), 0.75, &split_rng);
  if (!split_result.ok()) {
    std::fprintf(stderr, "%s\n", split_result.status().ToString().c_str());
    return 1;
  }
  auto split = std::move(split_result).value();
  std::printf("split: %zu train / %zu test positives\n\n",
              split.train.nnz(), split.test.nnz());

  OcularConfig ocfg;
  ocfg.k = 12;
  ocfg.lambda = 0.5;
  ocfg.max_sweeps = 40;
  OcularRecommender ocular(ocfg);
  WalsConfig wcfg;
  wcfg.k = 12;
  wcfg.b = 0.1;     // unknown-cell weight suited to dense implicit data
  wcfg.lambda = 0.05;
  wcfg.iterations = 12;
  WalsRecommender wals(wcfg);

  const std::vector<uint32_t> cutoffs{10, 25, 50};
  std::printf("%-10s", "algorithm");
  for (uint32_t m : cutoffs) std::printf("  recall@%-3u  MAP@%-3u", m, m);
  std::printf("\n");
  for (Recommender* rec : {static_cast<Recommender*>(&ocular),
                           static_cast<Recommender*>(&wals)}) {
    Status st = rec->Fit(split.train);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", rec->name().c_str(),
                   st.ToString().c_str());
      continue;
    }
    auto rows = EvaluateRanking(*rec, split.train, split.test, cutoffs);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
      continue;
    }
    std::printf("%-10s", rec->name().c_str());
    for (const auto& row : *rows) {
      std::printf("  %9.4f  %7.4f", row.recall, row.map);
    }
    std::printf("\n");
  }
  return 0;
}
