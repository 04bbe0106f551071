// Reproduces Figure 7: training time per sweep of OCuLaR on increasing
// fractions of the Netflix-like dataset, for K in {10, 50, 100}.
// Expected shape: time per sweep is LINEAR in the number of positive
// examples and LINEAR in K (Section IV-D complexity analysis).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"

namespace ocular {
namespace {

double SecondsPerSweep(const CsrMatrix& r, uint32_t k, uint32_t sweeps) {
  OcularConfig cfg;
  cfg.k = k;
  cfg.lambda = 0.5;
  cfg.max_sweeps = sweeps;
  cfg.tolerance = 0.0;        // never early-stop
  cfg.track_objective = false;  // pure sweep cost, like the paper's sec/it
  OcularTrainer trainer(cfg);
  Stopwatch watch;
  auto fit = trainer.Fit(r).value();
  return watch.ElapsedSeconds() / fit.sweeps_run;
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) {
  using namespace ocular;
  // Netflix is 480k x 17.8k with ~56M positives; the default scale keeps
  // the run in seconds. Raise --scale to stress.
  const double scale = ParseFlagsOrExit(
      {"bench_fig7_scaling", "Figure 7: seconds per sweep versus data size.",
       {RealFlag("scale", 0.0, 1.0, "0.015", "Netflix-like dataset scale")}},
      argc, argv).Real("scale");
  std::printf("=== Figure 7: running time per sweep vs dataset fraction "
              "(Netflix-like, scale=%.4f) ===\n", scale);

  Rng rng(23);
  auto data = MakeNetflixLike(scale, &rng).value();
  std::printf("%s\n\n", data.dataset.Summary().c_str());

  const std::vector<double> fractions{0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<uint32_t> ks{10, 50, 100};

  std::printf("%-10s %14s", "fraction", "positives");
  for (uint32_t k : ks) std::printf("   K=%-3u (s/sweep)", k);
  std::printf("\n");

  std::vector<std::vector<double>> times(ks.size());
  std::vector<double> nnzs;
  for (double frac : fractions) {
    Rng sample_rng(31);
    CsrMatrix sub =
        SampleFraction(data.dataset.interactions(), frac, &sample_rng)
            .value();
    nnzs.push_back(static_cast<double>(sub.nnz()));
    std::printf("%-10.2f %14s", frac, FormatCount(sub.nnz()).c_str());
    for (size_t ki = 0; ki < ks.size(); ++ki) {
      const double sps = SecondsPerSweep(sub, ks[ki], 3);
      times[ki].push_back(sps);
      std::printf("   %16.4f", sps);
    }
    std::printf("\n");
  }

  // Linearity check: time(f=1.0)/time(f=0.2) should be ~nnz ratio, and
  // time should scale ~K.
  std::printf("\nLinearity diagnostics (paper claims O(nnz * K)):\n");
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    const double ratio = times[ki].back() / times[ki].front();
    const double nnz_ratio = nnzs.back() / nnzs.front();
    std::printf("  K=%-3u  time ratio (full/0.2) = %.2f  vs nnz ratio %.2f\n",
                ks[ki], ratio, nnz_ratio);
  }
  // At K=10 the per-neighbor loop overhead is comparable to the K
  // multiply-adds themselves, so the clean ∝K regime shows between the
  // larger K values.
  const double k_ratio_small = times[2].back() / times[0].back();
  const double k_ratio_large = times[2].back() / times[1].back();
  std::printf("  K ratio 100/10 -> time ratio = %.2f (expect <10: small-K "
              "runs are loop-overhead bound)\n", k_ratio_small);
  std::printf("  K ratio 100/50 -> time ratio = %.2f (expect ~2)\n",
              k_ratio_large);
  return 0;
}
