// Reproduces Figure 8: distance to the optimal training likelihood versus
// wall-clock time for the serial ("CPU") trainer and the parallel
// executor that stands in for the paper's GPU implementation (Section VI).
// Also reports the memory-footprint accounting of Section VI
// (O(max(nnz, n_u*K, n_i*K))).
//
// Substitution note: the paper measured a 57x speedup on a GeForce TITAN X
// vs a Xeon core. The parallel executor here runs on CPU threads (one per
// hardware thread, printed with the results), so its wall-clock gain is
// bounded by the host's core count, not a GPU's; the bench demonstrates
// (a) identical convergence trajectories in sweep space and (b) the
// per-positive-example kernel decomposition cost, which is the
// GPU-portable part.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "parallel/gradient_kernel.h"
#include "parallel/kernel_trainer.h"
#include "parallel/parallel_trainer.h"

int main(int argc, char** argv) {
  using namespace ocular;
  const double scale = bench::FlagDouble(argc, argv, "scale", 0.01);
  const uint32_t k =
      static_cast<uint32_t>(bench::FlagDouble(argc, argv, "k", 50));
  std::printf("=== Figure 8: distance to optimal likelihood vs time, "
              "serial vs parallel (Netflix-like, scale=%.4f, K=%u) ===\n",
              scale, k);

  Rng rng(37);
  auto data = MakeNetflixLike(scale, &rng).value();
  const CsrMatrix& r = data.dataset.interactions();
  std::printf("%s\n", data.dataset.Summary().c_str());

  OcularConfig cfg;
  cfg.k = k;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 25;
  cfg.tolerance = 1e-7;

  OcularTrainer serial(cfg);
  auto fit_serial = serial.Fit(r).value();
  ParallelOcularTrainer parallel(cfg, 0);
  auto fit_parallel = parallel.Fit(r).value();

  // "Optimal" likelihood = the best objective reached by either run.
  double q_opt = fit_serial.trace.back().objective;
  for (const auto& s : fit_parallel.trace) {
    if (s.objective < q_opt) q_opt = s.objective;
  }

  std::printf("\nworkers (parallel executor): %zu\n",
              parallel.num_threads());
  std::printf("%-8s %16s %16s %18s %18s\n", "sweep", "serial t(s)",
              "parallel t(s)", "serial Q-Q*", "parallel Q-Q*");
  const size_t rows =
      std::max(fit_serial.trace.size(), fit_parallel.trace.size());
  for (size_t s = 0; s < rows; ++s) {
    auto cell = [&](const std::vector<SweepStats>& t, bool time) {
      if (s >= t.size()) return std::string("-");
      return FormatDouble(time ? t[s].seconds_elapsed
                               : t[s].objective - q_opt, 4);
    };
    std::printf("%-8zu %16s %16s %18s %18s\n", s,
                cell(fit_serial.trace, true).c_str(),
                cell(fit_parallel.trace, true).c_str(),
                cell(fit_serial.trace, false).c_str(),
                cell(fit_parallel.trace, false).c_str());
  }

  // Full kernel-structured training run (gradients by per-positive
  // decomposition + bulk Armijo updates — the closest analogue of the
  // CUDA execution plan).
  KernelOcularTrainer kernel_trainer(cfg, 0);
  Stopwatch kw;
  auto fit_kernel = kernel_trainer.Fit(r).value();
  std::printf("\nkernel-structured trainer: %u sweeps in %.2fs, "
              "final Q-Q* = %s (serial: %s)\n",
              fit_kernel.sweeps_run, kw.ElapsedSeconds(),
              FormatDouble(fit_kernel.trace.back().objective - q_opt, 4)
                  .c_str(),
              FormatDouble(fit_serial.trace.back().objective - q_opt, 4)
                  .c_str());

  // GPU-kernel micro-benchmark: per-positive-example decomposition with
  // atomic accumulation vs the serial reference.
  const CsrMatrix rt = r.Transpose();
  DenseMatrix grads;
  Stopwatch w1;
  ComputeItemGradientsSerial(rt, fit_serial.model.user_factors(),
                             fit_serial.model.item_factors(), cfg.lambda,
                             &grads);
  const double t_serial = w1.ElapsedSeconds();
  ThreadPool pool(0);
  Stopwatch w2;
  ComputeItemGradientsKernel(rt, fit_serial.model.user_factors(),
                             fit_serial.model.item_factors(), cfg.lambda,
                             &pool, &grads);
  const double t_kernel = w2.ElapsedSeconds();
  std::printf("\nitem-gradient pass: serial %.4fs, per-positive kernel "
              "(%zu workers) %.4fs, speedup %.2fx\n",
              t_serial, pool.num_threads(), t_kernel, t_serial / t_kernel);

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
  return 0;
}
