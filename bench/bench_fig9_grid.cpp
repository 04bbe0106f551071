// Reproduces Figure 9: fine (K, lambda) grid search for the B2B-like
// dataset, rendered as a recall@50 heatmap. The paper distributed 625
// parameter pairs over 8 GPUs with Spark; we run a scaled-down grid
// through the same GridSearch driver on one node.
// Expected shape: a hot band at moderate K and lambda, cooling toward the
// extremes — and the best cell typically OUTSIDE a naive small search
// range, which is the paper's argument for fast hyper-parameter search.

#include <cstdio>

#include "bench/bench_util.h"
#include "eval/grid_search.h"

int main(int argc, char** argv) {
  using namespace ocular;
  const double scale = ParseFlagsOrExit(
      {"bench_fig9_grid", "Figure 9: (K, lambda) grid search heatmap.",
       {RealFlag("scale", 0.0, 1.0, "0.03", "B2B-like dataset scale")}},
      argc, argv).Real("scale");
  std::printf("=== Figure 9: (K, lambda) grid search heatmap "
              "(B2B-like, scale=%.3f) ===\n", scale);

  Rng rng(41);
  auto data = MakeB2BLike(scale, &rng).value();
  std::printf("%s\n\n", data.dataset.Summary().c_str());
  Rng split_rng(43);
  auto split =
      SplitInteractions(data.dataset.interactions(), 0.75, &split_rng)
          .value();

  auto factory = [](const GridPoint& p) -> std::unique_ptr<Recommender> {
    OcularConfig cfg;
    cfg.k = p.k;
    cfg.lambda = p.lambda;
    cfg.max_sweeps = 30;
    return std::make_unique<OcularRecommender>(cfg);
  };

  const std::vector<uint32_t> ks{4, 6, 8, 12, 16, 24, 32};
  const std::vector<double> lambdas{0.0, 0.1, 0.5, 1.0, 5.0, 20.0, 100.0};
  auto result =
      GridSearch(factory, ks, lambdas, split.train, split.test, 50).value();

  std::printf("%s\n", RenderGridHeatmap(result).c_str());

  double total_seconds = 0.0;
  for (const auto& cell : result.cells) total_seconds += cell.train_seconds;
  std::printf("grid of %zu points trained in %.2fs total on one core "
              "(paper: 625 points, 8 GPUs, ~8 minutes; >2 days on one "
              "CPU at full scale)\n",
              result.cells.size(), total_seconds);
  return 0;
}
