// Reproduces Figure 8: distance to the optimal training likelihood versus
// wall-clock time, here for the one OCuLaR trainer at 1, 2 and 4
// threads. Also reports the memory-footprint accounting of Section VI
// (O(max(nnz, n_u*K, n_i*K))).
//
// Substitution note: the paper measured a 57x speedup of its CUDA
// implementation on a GeForce TITAN X against a Xeon core. Its
// per-positive kernel (Section VI-A: one task per positive rating, each
// accumulating into its item's gradient with atomics) is described, not
// reproduced. An earlier CPU version of that plan lost on every count: on
// this bench at scale 0.01 with 4 workers (4-vCPU host, Release) it took
// 9.0 s where the row-split trainer took 5.6 s, its item-gradient pass ran
// at 0.45x the speed of the row-wise one, and it ended at Q - Q* = 3.04
// where the serial run reached 0, because atomic accumulation reorders the
// floating-point sums. What the bench does reproduce is the structure the
// kernel exploits: the rows of a half-sweep are independent given the
// other side, so the trainer splits them over threads and every factor and
// every traced Q stays bit-identical. The wall-clock gain is bounded by
// the host's cores, not a GPU's. Exits 1 if any thread count's factors or
// trace differ from the 1-thread run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace ocular;
  const Flags flags = ParseFlagsOrExit(
      {"bench_fig8_gpu",
       "Figure 8: distance to the optimal likelihood versus time at 1, 2 "
       "and 4 threads;\nexits 1 unless every thread count fits the same "
       "model.",
       {RealFlag("scale", 0.0, 1.0, "0.01", "Netflix-like dataset scale"),
        IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)")}},
      argc, argv);
  const double scale = flags.Real("scale");
  const auto k = flags.Int<uint32_t>("k");
  std::printf("=== Figure 8: distance to optimal likelihood vs time, "
              "1, 2 and 4 threads (Netflix-like, scale=%.4f, K=%u) ===\n",
              scale, k);

  Rng rng(37);
  auto data = MakeNetflixLike(scale, &rng).value();
  const CsrMatrix& r = data.dataset.interactions();
  std::printf("%s\n", data.dataset.Summary().c_str());
  std::printf("usable CPUs: %zu\n", UsableCpus());

  OcularConfig cfg;
  cfg.k = k;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 25;
  cfg.tolerance = 1e-7;

  const size_t thread_counts[] = {1, 2, 4};
  std::vector<OcularFitResult> fits;
  for (size_t threads : thread_counts) {
    fits.push_back(OcularTrainer(cfg, threads).Fit(r).value());
  }

  // Every run must reproduce the 1-thread run exactly.
  bool identical = true;
  for (size_t n = 1; n < fits.size(); ++n) {
    const OcularFitResult& a = fits[0];
    const OcularFitResult& b = fits[n];
    bool same = a.model.user_factors() == b.model.user_factors() &&
                a.model.item_factors() == b.model.item_factors() &&
                a.sweeps_run == b.sweeps_run && a.converged == b.converged &&
                a.trace.size() == b.trace.size();
    for (size_t s = 0; same && s < a.trace.size(); ++s) {
      same = a.trace[s].objective == b.trace[s].objective;
    }
    if (!same) {
      std::printf("MISMATCH: %zu threads differ from the 1-thread run\n",
                  thread_counts[n]);
      identical = false;
    }
  }

  // "Optimal" likelihood = the best objective reached by any run.
  double q_opt = fits[0].trace.back().objective;
  for (const auto& fit : fits) {
    for (const auto& s : fit.trace) q_opt = std::min(q_opt, s.objective);
  }

  std::printf("\n%-6s", "sweep");
  for (size_t threads : thread_counts) {
    std::printf(" %12s %14s", ("t(s) T=" + std::to_string(threads)).c_str(),
                ("Q-Q* T=" + std::to_string(threads)).c_str());
  }
  std::printf("\n");
  for (size_t s = 0; s < fits[0].trace.size(); ++s) {
    std::printf("%-6zu", s);
    for (const auto& fit : fits) {
      std::printf(" %12s %14s",
                  FormatDouble(fit.trace[s].seconds_elapsed, 4).c_str(),
                  FormatDouble(fit.trace[s].objective - q_opt, 4).c_str());
    }
    std::printf("\n");
  }

  const double serial_per_sweep =
      fits[0].trace.back().seconds_elapsed / fits[0].sweeps_run;
  std::printf("\n");
  for (size_t n = 0; n < fits.size(); ++n) {
    const double per_sweep =
        fits[n].trace.back().seconds_elapsed / fits[n].sweeps_run;
    std::printf("%zu thread(s): %u sweeps, %.4f s per sweep, %.2fx the "
                "1-thread run\n",
                thread_counts[n], fits[n].sweeps_run, per_sweep,
                serial_per_sweep / per_sweep);
  }
  std::printf("factors and traces identical at every thread count: %s\n",
              identical ? "yes" : "NO");

  // Section VI memory accounting.
  const size_t nnz_bytes = r.nnz() * sizeof(uint32_t) +
                           (r.num_rows() + 1) * sizeof(uint64_t);
  const size_t fu_bytes =
      static_cast<size_t>(r.num_rows()) * k * sizeof(double);
  const size_t fi_bytes =
      static_cast<size_t>(r.num_cols()) * k * sizeof(double);
  std::printf("\nmemory model O(max(nnz, nu*K, ni*K)): data %s B, "
              "user factors %s B, item factors %s B\n",
              FormatCount(nnz_bytes).c_str(), FormatCount(fu_bytes).c_str(),
              FormatCount(fi_bytes).c_str());
  std::printf("(paper: Netflix at K=200 fits in ~2.7 GB of GPU memory; "
              "extrapolating our accounting to full Netflix gives %.2f GB)\n",
              (56.0e6 * 4 + 480189.0 * 200 * 8 + 17770.0 * 200 * 8) / 1e9);
  return identical ? 0 : 1;
}
