// Ablation bench for the design choices behind OCuLaR:
//
//  A. One projected-gradient step per block per sweep (Section IV-B:
//     "solving the subproblems exactly may slow down convergence ...
//     performing only one gradient descent step significantly speeds up
//     the algorithm") — compares objective-vs-wall-clock for
//     block_steps in {1, 5, 20}.
//  B. The Σf complement-sum trick (Section IV-D) — times one item-gradient
//     pass with the trick vs the naive sum over all unknown cells.
//  C. User/item bias terms (Section IV-A: "fitting the corresponding
//     model does not increase the recommendation performance") —
//     recall@50 with and without biases.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/coclust.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "parallel/gradient_kernel.h"

namespace ocular {
namespace {

/// Naive item gradient: forms Σ_{u: r_ui = 0} f_u by iterating ALL users
/// per item — the O(n_u · n_i · K) computation the paper's trick avoids.
void NaiveItemGradients(const CsrMatrix& r, const DenseMatrix& fu,
                        const DenseMatrix& fi, double lambda,
                        DenseMatrix* gradients) {
  const uint32_t k = fu.cols();
  *gradients = DenseMatrix(fi.rows(), k);
  const CsrMatrix rt = r.Transpose();
  for (uint32_t i = 0; i < fi.rows(); ++i) {
    auto g = gradients->Row(i);
    auto fi_row = fi.Row(i);
    for (uint32_t d = 0; d < k; ++d) g[d] = 2.0 * lambda * fi_row[d];
    for (uint32_t u = 0; u < fu.rows(); ++u) {
      auto fu_row = fu.Row(u);
      if (r.HasEntry(u, i)) {
        // Positive: contributes -f_u / (e^{<f_u,f_i>} - 1)  (eq. 6).
        const double dot = std::max(vec::Dot(fu_row, fi_row), 1e-12);
        const double coef = 1.0 / std::expm1(dot);
        for (uint32_t d = 0; d < k; ++d) g[d] -= coef * fu_row[d];
      } else {
        for (uint32_t d = 0; d < k; ++d) g[d] += fu_row[d];
      }
    }
  }
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) {
  using namespace ocular;
  const double scale = ParseFlagsOrExit(
      {"bench_ablation", "Ablations: block steps, complement trick, biases.",
       {RealFlag("scale", 0.0, 1.0, "0.04", "MovieLens-like dataset scale")}},
      argc, argv).Real("scale");
  std::printf("=== Ablations: block steps, complement trick, biases "
              "(MovieLens-like, scale=%.3f) ===\n", scale);

  Rng rng(51);
  auto data = MakeMovieLensLike(scale, &rng).value();
  const CsrMatrix& r = data.dataset.interactions();
  std::printf("%s\n", data.dataset.Summary().c_str());
  Rng split_rng(52);
  auto split = SplitInteractions(r, 0.75, &split_rng).value();

  // ---- A. block_steps: progress vs wall clock. ----
  std::printf("\n[A] projected-gradient steps per block per sweep\n");
  std::printf("%-12s %10s %10s %16s %14s\n", "block_steps", "sweeps",
              "time(s)", "final Q", "recall@50");
  for (uint32_t steps : {1u, 5u, 20u}) {
    OcularConfig cfg;
    cfg.k = 12;
    cfg.lambda = 0.5;
    cfg.block_steps = steps;
    cfg.max_sweeps = 60;
    cfg.tolerance = 1e-5;
    OcularRecommender rec(cfg);
    Stopwatch watch;
    Status st = rec.Fit(split.train);
    const double seconds = watch.ElapsedSeconds();
    if (!st.ok()) {
      OCULAR_LOG(kWarning) << st.ToString();
      continue;
    }
    auto metrics =
        EvaluateRankingAtM(rec, split.train, split.test, 50).value();
    std::printf("%-12u %10zu %10.3f %16.2f %14.4f\n", steps,
                rec.trace().size(), seconds,
                rec.trace().back().objective, metrics.recall);
  }
  std::printf("Shape check: block_steps=1 reaches comparable Q and recall "
              "in the least wall-clock time (the paper's choice).\n");

  // ---- B. complement trick vs naive unknowns sum. ----
  std::printf("\n[B] Σf complement trick vs naive unknowns sum "
              "(one item-gradient pass)\n");
  {
    OcularConfig cfg;
    cfg.k = 12;
    cfg.lambda = 0.5;
    // Train to convergence so every positive has non-negligible affinity;
    // otherwise the clamped 1/(e^x - 1) terms reach ~1e12 and the
    // trick-vs-naive comparison drowns in float cancellation.
    cfg.max_sweeps = 40;
    OcularTrainer trainer(cfg);
    auto fit = trainer.Fit(split.train).value();
    const CsrMatrix rt = split.train.Transpose();
    DenseMatrix g_trick, g_naive;
    Stopwatch w1;
    ComputeItemGradientsSerial(rt, fit.model.user_factors(),
                               fit.model.item_factors(), cfg.lambda,
                               &g_trick);
    const double t_trick = w1.ElapsedSeconds();
    Stopwatch w2;
    NaiveItemGradients(split.train, fit.model.user_factors(),
                       fit.model.item_factors(), cfg.lambda, &g_naive);
    const double t_naive = w2.ElapsedSeconds();
    double max_rel_err = 0.0;
    for (uint32_t i = 0; i < g_trick.rows(); ++i) {
      for (uint32_t c = 0; c < g_trick.cols(); ++c) {
        const double a = g_trick.At(i, c);
        const double b = g_naive.At(i, c);
        max_rel_err = std::max(
            max_rel_err, std::abs(a - b) / (1.0 + std::abs(a) + std::abs(b)));
      }
    }
    std::printf("  trick %.4fs, naive %.4fs -> %.1fx speedup "
                "(max relative gradient disagreement %.2e)\n",
                t_trick, t_naive, t_naive / t_trick, max_rel_err);
  }

  // ---- C. biases on/off. ----
  std::printf("\n[C] user/item bias terms (Section IV-A extension)\n");
  std::printf("%-10s %12s %12s\n", "biases", "recall@50", "MAP@50");
  for (bool biases : {false, true}) {
    OcularConfig cfg;
    cfg.k = 12;
    cfg.lambda = 0.5;
    cfg.use_biases = biases;
    cfg.max_sweeps = 40;
    OcularRecommender rec(cfg);
    Status st = rec.Fit(split.train);
    if (!st.ok()) {
      OCULAR_LOG(kWarning) << st.ToString();
      continue;
    }
    auto metrics =
        EvaluateRankingAtM(rec, split.train, split.test, 50).value();
    std::printf("%-10s %12.4f %12.4f\n", biases ? "on" : "off",
                metrics.recall, metrics.map);
  }
  std::printf("Shape check: biases give no material improvement — the "
              "paper's reason for dropping them.\n");

  // ---- D. overlapping vs non-overlapping co-clustering. ----
  // Section II's core claim: restricting co-clusters to be non-overlapping
  // (George & Merugu-style CF) loses accuracy on data whose users have
  // several interests.
  std::printf("\n[D] overlapping (OCuLaR) vs non-overlapping (coclust) "
              "co-clustering\n");
  std::printf("%-10s %12s %12s\n", "model", "recall@50", "MAP@50");
  {
    OcularConfig cfg;
    cfg.k = 12;
    cfg.lambda = 0.5;
    cfg.max_sweeps = 40;
    OcularRecommender ocular(cfg);
    Status st = ocular.Fit(split.train);
    OCULAR_CHECK(st.ok()) << st.ToString();
    auto m = EvaluateRankingAtM(ocular, split.train, split.test, 50).value();
    std::printf("%-10s %12.4f %12.4f\n", "OCuLaR", m.recall, m.map);

    // Same co-cluster budget, grid over (g, h) splits of ~12 clusters.
    double best_recall = 0.0, best_map = 0.0;
    for (uint32_t g : {3u, 4u, 6u}) {
      CoclustConfig cc;
      cc.user_clusters = g;
      cc.item_clusters = 12 / g;
      cc.iterations = 25;
      CoclustRecommender coclust(cc);
      st = coclust.Fit(split.train);
      OCULAR_CHECK(st.ok()) << st.ToString();
      auto cm =
          EvaluateRankingAtM(coclust, split.train, split.test, 50).value();
      if (cm.map > best_map) {
        best_map = cm.map;
        best_recall = cm.recall;
      }
    }
    std::printf("%-10s %12.4f %12.4f\n", "coclust", best_recall, best_map);
  }
  std::printf("Shape check: the overlapping model wins — the motivation "
              "for OCuLaR over classic co-clustering CF.\n");
  return 0;
}
