// Hot-path training benchmark: the steady-state wall clock of one OCuLaR
// sweep (the O(nnz·K) block-coordinate pass of Section IV-D) against one
// ObjectiveQ pass over the fitted model, on the synthetic two-block
// workload at K=50.
//
// Both sides are product code and both walk every positive's K-dot: a
// sweep in its item and user phases and in its line searches' trial
// points, ObjectiveQ once. Their ratio is how many objective passes one
// sweep costs, so it holds across machines, and it rises when the sweep
// does more work per positive (a lost dot cache, a cold line search, a
// second objective pass).
//
// Each of kReps reps fits --warmup + --sweeps sweeps from the same initial
// model, timing the --sweeps steady-state sweeps from the trace (the first
// sweeps, where the line searches walk the step size down, are warm-up),
// then times --sweeps ObjectiveQ passes on the fitted model. The gated
// value is the median of the per-rep ratios (lower is better).
//
// The fused tracked Q must reproduce the ObjectiveQ oracle on the final
// model to 1e-9 relative (exit 1 otherwise). --json writes the record
// (bench/bench_util.h) to --out; --baseline gates it.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/ocular_model.h"
#include "core/ocular_trainer.h"
#include "sparse/csr.h"
#include "sparse/dense.h"

namespace ocular {
namespace bench {
namespace {

constexpr uint32_t kReps = 5;

const FlagTable kFlags = {
    "bench_train_hot",
    "Steady-state seconds per sweep over seconds per ObjectiveQ pass.",
    WithRecordFlags(
        {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
         IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
         IntFlag("sweeps", 1, UINT32_MAX, "8", "timed sweeps"),
         IntFlag("warmup", 0, UINT32_MAX, "3", "untimed warm-up sweeps"),
         IntFlag("seed", 0, INT64_MAX, "1", "workload seed")},
        "BENCH_train.json")};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t sweeps = flags.Int<uint32_t>("sweeps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");
  const uint64_t seed = flags.Int<uint64_t>("seed");

  OcularConfig config;
  config.k = flags.Int<uint32_t>("k");
  config.lambda = 1.0;
  config.max_sweeps = warmup + sweeps;
  config.tolerance = 0.0;  // stops only if Q stops decreasing entirely
  config.track_objective = true;

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  std::printf(
      "train_hot: %u users x %u items, nnz=%zu, K=%u, %u sweeps (+%u "
      "warmup), %u reps\n",
      r.num_rows(), r.num_cols(), r.nnz(), config.k, sweeps, warmup, kReps);

  Rng rng(seed + 1);
  const double init = 1.0 / std::sqrt(static_cast<double>(config.k));
  DenseMatrix fu(r.num_rows(), config.k);
  DenseMatrix fi(r.num_cols(), config.k);
  fu.FillUniform(&rng, 0.0, init);
  fi.FillUniform(&rng, 0.0, init);
  const OcularModel initial(std::move(fu), std::move(fi));
  const OcularTrainer trainer(config);

  std::vector<double> sweep_seconds, objective_seconds, ratios;
  double final_q = 0.0;
  double oracle = 0.0;
  for (uint32_t rep = 0; rep < kReps; ++rep) {
    const OcularFitResult fit = trainer.FitFrom(r, initial).value();
    // tolerance 0 still stops when Q plateaus to within floating-point
    // noise, so the trace may be shorter than asked for: time the
    // steady-state sweeps that ran.
    if (fit.sweeps_run <= warmup) {
      std::fprintf(stderr,
                   "train_hot: converged within the %u warmup sweeps — "
                   "reduce --warmup or the workload is degenerate\n",
                   warmup);
      return 1;
    }
    const uint32_t timed = fit.sweeps_run - warmup;
    const double t0 = warmup == 0 ? 0.0 : fit.trace[warmup - 1].seconds_elapsed;
    const double per_sweep = (fit.trace.back().seconds_elapsed - t0) / timed;
    Stopwatch watch;
    for (uint32_t pass = 0; pass < timed; ++pass) {
      oracle = ObjectiveQ(fit.model, r, config.lambda);
    }
    const double per_pass = watch.ElapsedSeconds() / timed;
    sweep_seconds.push_back(per_sweep);
    objective_seconds.push_back(per_pass);
    ratios.push_back(per_sweep / std::max(per_pass, 1e-12));
    final_q = fit.trace.back().objective;
  }
  const double oracle_rel_err =
      std::abs(final_q - oracle) / std::max(1.0, std::abs(oracle));
  const double ratio = Median(ratios);

  std::printf("  sweep    : %8.2f ms  (median of %u reps, final Q %.6e)\n",
              1e3 * Median(sweep_seconds), kReps, final_q);
  std::printf("  ObjectiveQ: %7.2f ms  (one pass on the fitted model)\n",
              1e3 * Median(objective_seconds));
  std::printf("  ratio    : %8.2f    (median per-rep sweep / pass; tracked Q "
              "vs oracle %.2e)\n",
              ratio, oracle_rel_err);

  // The fused tracked Q must reproduce the ObjectiveQ oracle on the final
  // model: the correctness contract of fused tracking.
  if (oracle_rel_err > 1e-9) {
    std::fprintf(stderr, "FAIL: fused Q vs ObjectiveQ oracle rel err %.3e\n",
                 oracle_rel_err);
    return 1;
  }

  Record record("train_hot");
  record.Workload("kind", "two_block");
  record.Workload("scale", scale);
  record.Workload("users", r.num_rows());
  record.Workload("items", r.num_cols());
  record.Workload("nnz", r.nnz());
  record.Workload("k", config.k);
  record.Workload("lambda", config.lambda);
  record.Workload("sweeps", sweeps);
  record.Workload("warmup", warmup);
  record.Workload("reps", kReps);
  record.Info("seconds_per_sweep", Median(sweep_seconds));
  record.Info("seconds_per_objective_pass", Median(objective_seconds));
  record.Info("final_q", final_q);
  record.Info("oracle_rel_err", oracle_rel_err);
  record.AtMost("sweep_over_objective_pass", ratio, 1.25, 0.0);
  return FinishRecord(record, flags);
}

}  // namespace
}  // namespace bench
}  // namespace ocular

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
