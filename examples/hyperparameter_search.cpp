// Hyper-parameter search walkthrough (Sections IV-B, VI, VII-C): pick
// (K, lambda) by cross-validated grid search (OcularRecommender, each point
// trained on one thread), then refit on the full training data with the
// winning pair and report held-out performance — the practical recipe
// behind Figure 9.

#include <cstdio>
#include <memory>

#include "common/strings.h"
#include "core/ocular_recommender.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/grid_search.h"
#include "eval/metrics.h"

int main() {
  using namespace ocular;

  Rng rng(77);
  auto synth = MakeB2BLike(/*scale=*/0.02, &rng);
  if (!synth.ok()) {
    std::fprintf(stderr, "%s\n", synth.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(synth).value().dataset;
  std::printf("%s\n\n", dataset.Summary().c_str());

  // Outer split: keep a final test set untouched by model selection.
  Rng split_rng(78);
  auto outer =
      SplitInteractions(dataset.interactions(), 0.8, &split_rng).value();
  // Inner split: carve validation data out of the training set.
  auto inner = SplitInteractions(outer.train, 0.8, &split_rng).value();

  auto factory = [](const GridPoint& p) -> std::unique_ptr<Recommender> {
    OcularConfig cfg;
    cfg.k = p.k;
    cfg.lambda = p.lambda;
    cfg.max_sweeps = 30;
    return std::make_unique<OcularRecommender>(cfg);
  };
  const std::vector<uint32_t> ks{4, 8, 12, 16};
  const std::vector<double> lambdas{0.1, 0.5, 2.0, 10.0};
  auto grid =
      GridSearch(factory, ks, lambdas, inner.train, inner.test, 50);
  if (!grid.ok()) {
    std::fprintf(stderr, "%s\n", grid.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", RenderGridHeatmap(*grid).c_str());

  // Refit with the winner on the full outer training data.
  OcularConfig best;
  best.k = grid->best().point.k;
  best.lambda = grid->best().point.lambda;
  best.max_sweeps = 60;
  OcularRecommender final_model(best);
  Status st = final_model.Fit(outer.train);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto metrics =
      EvaluateRankingAtM(final_model, outer.train, outer.test, 50).value();
  std::printf("final model (K=%u, lambda=%s): held-out recall@50=%.4f "
              "MAP@50=%.4f over %u users\n",
              best.k, FormatDouble(best.lambda, 2).c_str(), metrics.recall,
              metrics.map, metrics.num_users);
  return 0;
}
