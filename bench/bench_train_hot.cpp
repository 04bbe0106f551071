// Hot-path training benchmark: measures per-sweep wall clock of the
// OCuLaR block-coordinate sweep, new (workspace + dot-caching + fused
// objective) vs legacy (the pre-refactor kernel, reproduced below), on a
// synthetic two-block workload at K=50.
//
// Each path runs --warmup untimed sweeps followed by --sweeps timed ones
// (training runs 40-60 sweeps in practice, so the steady-state per-sweep
// cost is the number that matters; the first sweeps, where both line
// searches walk the step size down from initial_step, are identical noise).
//
// --json writes a machine-readable record (see README "Performance") to
// --out. --min-speedup fails (exit 2) if the measured speedup is below X.
// --baseline fails (exit 2) if the measured speedup regresses more than
// 25% below the "speedup" recorded in the given BENCH_*.json — the CI
// regression gate against the checked-in baseline.
//
// Both code paths run the same math from the same initial model. The
// warm-started boundary search may pick a different (equally valid) Armijo
// step where acceptance is non-monotone, so trajectories can drift
// slightly; the bench aborts if the final objectives disagree beyond that
// drift (1e-2 relative), and separately verifies the fused tracked Q
// against the ObjectiveQ oracle at 1e-9 relative.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/ocular_model.h"
#include "core/ocular_trainer.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/dense.h"

namespace ocular {
namespace bench {
namespace {

// ------------------------------------------------------- legacy kernel
// Faithful reproduction of the pre-refactor training inner loop (the
// before side of the before/after table): per-call heap allocations for
// complement/grad/trial, a separate BlockObjective pass for the Armijo q0,
// per-sweep re-gather of nothing (absolute variant), and a full ObjectiveQ
// pass per sweep for tracking.

constexpr double kAffinityFloor = 1e-12;
constexpr double kProbFloor = 1e-12;

double LegacyBlockObjective(std::span<const double> f,
                            std::span<const uint32_t> neighbors,
                            const DenseMatrix& other,
                            std::span<const double> complement_sum,
                            double lambda) {
  double q = 0.0;
  for (size_t n = 0; n < neighbors.size(); ++n) {
    const double dot = vec::Dot(other.Row(neighbors[n]), f);
    const double p = std::max(-std::expm1(-dot), kProbFloor);
    q -= std::log(p);
  }
  q += vec::Dot(f, complement_sum);
  q += lambda * vec::SquaredNorm(f);
  return q;
}

int LegacyArmijoStep(std::span<double> f, std::span<const double> grad,
                     std::span<const uint32_t> neighbors,
                     const DenseMatrix& other,
                     std::span<const double> complement_sum, double lambda,
                     const OcularConfig& config) {
  const size_t k = f.size();
  const double q0 =
      LegacyBlockObjective(f, neighbors, other, complement_sum, lambda);
  std::vector<double> trial(k);
  double alpha = config.initial_step;
  for (uint32_t t = 0; t <= config.max_backtracks; ++t) {
    for (size_t c = 0; c < k; ++c) {
      trial[c] = std::max(0.0, f[c] - alpha * grad[c]);
    }
    const double q1 =
        LegacyBlockObjective(trial, neighbors, other, complement_sum, lambda);
    double descent = 0.0;
    for (size_t c = 0; c < k; ++c) descent += grad[c] * (trial[c] - f[c]);
    if (q1 - q0 <= config.armijo_sigma * descent) {
      std::copy(trial.begin(), trial.end(), f.begin());
      return static_cast<int>(t);
    }
    alpha *= config.armijo_beta;
  }
  return -1;
}

void LegacyProjectedGradientStep(std::span<double> f,
                                 std::span<const uint32_t> neighbors,
                                 const DenseMatrix& other,
                                 std::span<const double> other_sums,
                                 double lambda, const OcularConfig& config) {
  const size_t k = f.size();
  std::vector<double> complement(other_sums.begin(), other_sums.end());
  for (uint32_t n : neighbors) {
    auto row = other.Row(n);
    for (size_t c = 0; c < k; ++c) complement[c] -= row[c];
  }
  std::vector<double> grad(complement.begin(), complement.end());
  for (size_t c = 0; c < k; ++c) grad[c] += 2.0 * lambda * f[c];
  for (size_t n = 0; n < neighbors.size(); ++n) {
    auto row = other.Row(neighbors[n]);
    const double dot = std::max(vec::Dot(row, f), kAffinityFloor);
    const double coef = 1.0 / std::expm1(dot);
    for (size_t c = 0; c < k; ++c) grad[c] -= coef * row[c];
  }
  LegacyArmijoStep(f, grad, neighbors, other, complement, lambda, config);
}

/// One legacy sweep (item phase, user phase, tracked ObjectiveQ pass).
/// Returns the tracked Q.
double LegacySweep(const CsrMatrix& r, const CsrMatrix& rt, OcularModel* model,
                   const OcularConfig& config) {
  DenseMatrix& fu = *model->mutable_user_factors();
  DenseMatrix& fi = *model->mutable_item_factors();
  const std::vector<double> user_sums = fu.ColumnSums();
  for (uint32_t i = 0; i < r.num_cols(); ++i) {
    LegacyProjectedGradientStep(fi.Row(i), rt.Row(i), fu, user_sums,
                                config.lambda, config);
  }
  const std::vector<double> item_sums = fi.ColumnSums();
  for (uint32_t u = 0; u < r.num_rows(); ++u) {
    LegacyProjectedGradientStep(fu.Row(u), r.Row(u), fi, item_sums,
                                config.lambda, config);
  }
  return ObjectiveQ(*model, r, config.lambda);
}

// ------------------------------------------------------------ benchmark

struct HotBenchResult {
  double legacy_seconds_per_sweep = 0.0;
  double fused_seconds_per_sweep = 0.0;
  double speedup = 0.0;
  double legacy_final_q = 0.0;
  double fused_final_q = 0.0;
  double final_q_rel_err = 0.0;
  double fused_oracle_rel_err = 0.0;  // fused tracked Q vs ObjectiveQ
  uint32_t sweeps = 0;
  uint32_t warmup = 0;
};

HotBenchResult RunHotBench(const CsrMatrix& r, const OcularConfig& config,
                           uint32_t sweeps, uint32_t warmup, uint64_t seed) {
  // Common initial model so both paths perform the same math.
  Rng rng(seed);
  const double scale = 1.0 / std::sqrt(static_cast<double>(config.k));
  DenseMatrix fu(r.num_rows(), config.k);
  DenseMatrix fi(r.num_cols(), config.k);
  fu.FillUniform(&rng, 0.0, scale);
  fi.FillUniform(&rng, 0.0, scale);
  const OcularModel initial(std::move(fu), std::move(fi));

  HotBenchResult out;
  out.sweeps = sweeps;
  out.warmup = warmup;

  // Legacy path: `warmup` untimed sweeps, then `sweeps` timed ones.
  {
    OcularModel model = initial;
    const CsrMatrix rt = r.Transpose();
    double q = 0.0;
    for (uint32_t s = 0; s < warmup; ++s) q = LegacySweep(r, rt, &model, config);
    Stopwatch watch;
    for (uint32_t s = 0; s < sweeps; ++s) q = LegacySweep(r, rt, &model, config);
    out.legacy_seconds_per_sweep = watch.ElapsedSeconds() / sweeps;
    out.legacy_final_q = q;
  }

  // Fused path: the production serial trainer (workspace kernels, cached
  // dots, warm-started line searches, fused objective tracking). One
  // continuous fit — the per-sweep trace timestamps give the steady-state
  // window exactly, without resetting the adaptive step state.
  {
    OcularConfig cfg = config;
    cfg.max_sweeps = warmup + sweeps;
    cfg.tolerance = 0.0;  // stops only if Q stops decreasing entirely
    cfg.track_objective = true;
    OcularTrainer trainer(cfg);
    auto fit = trainer.FitFrom(r, initial).value();
    // tolerance 0 still declares convergence if Q plateaus to within
    // floating-point noise (rel_drop < 0), so the trace may be shorter
    // than requested; time whatever steady-state sweeps actually ran.
    const uint32_t timed = fit.sweeps_run > warmup ? fit.sweeps_run - warmup
                                                   : 0;
    if (timed == 0) {
      std::fprintf(stderr,
                   "train_hot: converged within the %u warmup sweeps — "
                   "reduce --warmup or the workload is degenerate\n", warmup);
      std::exit(1);
    }
    const double t0 = warmup == 0 ? 0.0 : fit.trace[warmup - 1].seconds_elapsed;
    out.fused_seconds_per_sweep =
        (fit.trace.back().seconds_elapsed - t0) / timed;
    out.fused_final_q = fit.trace.back().objective;
    const double oracle = ObjectiveQ(fit.model, r, cfg.lambda);
    out.fused_oracle_rel_err = std::abs(out.fused_final_q - oracle) /
                               std::max(1.0, std::abs(oracle));
  }

  out.speedup = out.legacy_seconds_per_sweep /
                std::max(out.fused_seconds_per_sweep, 1e-12);
  out.final_q_rel_err =
      std::abs(out.fused_final_q - out.legacy_final_q) /
      std::max(1.0, std::abs(out.legacy_final_q));
  return out;
}

std::string ToJson(const HotBenchResult& res, const CsrMatrix& r,
                   const OcularConfig& config, double scale) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("train_hot");
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
  w.UInt(config.k);
  w.Key("lambda");
  w.Double(config.lambda);
  w.Key("sweeps");
  w.UInt(res.sweeps);
  w.Key("warmup");
  w.UInt(res.warmup);
  w.EndObject();
  w.Key("legacy");
  w.BeginObject();
  w.Key("seconds_per_sweep");
  w.Double(res.legacy_seconds_per_sweep);
  w.Key("final_q");
  w.Double(res.legacy_final_q);
  w.EndObject();
  w.Key("fused");
  w.BeginObject();
  w.Key("seconds_per_sweep");
  w.Double(res.fused_seconds_per_sweep);
  w.Key("final_q");
  w.Double(res.fused_final_q);
  w.EndObject();
  w.Key("speedup");
  w.Double(res.speedup);
  w.Key("final_q_rel_err");
  w.Double(res.final_q_rel_err);
  w.Key("fused_oracle_rel_err");
  w.Double(res.fused_oracle_rel_err);
  w.EndObject();
  return w.str();
}

const FlagTable kFlags = {
    "bench_train_hot",
    "Per-sweep training time of the fused kernel against the legacy one.",
    {RealFlag("scale", 0.0, kNoUpperBound, "1", "two-block workload scale"),
     IntFlag("k", 0, UINT32_MAX, "50", "co-clusters (K)"),
     IntFlag("sweeps", 0, UINT32_MAX, "8", "timed sweeps"),
     IntFlag("warmup", 0, UINT32_MAX, "3", "untimed warm-up sweeps"),
     IntFlag("seed", 0, INT64_MAX, "1", "workload seed"),
     BoolFlag("json", false, "write the JSON record to --out"),
     StringFlag("out", "BENCH_train.json", "JSON record path"),
     RealFlag("min-speedup", 0.0, kNoUpperBound, "0",
              "fail below this speedup; 0 = no floor"),
     StringFlag("baseline", "", "checked-in record to gate this run against")}};

int Main(int argc, char** argv) {
  const Flags flags = ParseFlagsOrExit(kFlags, argc, argv);
  const double scale = flags.Real("scale");
  const uint32_t k = flags.Int<uint32_t>("k");
  const uint32_t sweeps = flags.Int<uint32_t>("sweeps");
  const uint32_t warmup = flags.Int<uint32_t>("warmup");
  const uint64_t seed = flags.Int<uint64_t>("seed");

  OcularConfig config;
  config.k = k;
  config.lambda = 1.0;

  const CsrMatrix r = TwoBlockWorkload(scale, seed);
  std::printf(
      "train_hot: %u users x %u items, nnz=%zu, K=%u, %u sweeps (+%u warmup)\n",
      r.num_rows(), r.num_cols(), r.nnz(), k, sweeps, warmup);

  const HotBenchResult res = RunHotBench(r, config, sweeps, warmup, seed + 1);

  std::printf("  legacy : %8.2f ms/sweep  (final Q %.6e)\n",
              1e3 * res.legacy_seconds_per_sweep, res.legacy_final_q);
  std::printf("  fused  : %8.2f ms/sweep  (final Q %.6e)\n",
              1e3 * res.fused_seconds_per_sweep, res.fused_final_q);
  std::printf("  speedup: %8.2fx          (|dQ|/|Q| = %.2e, oracle %.2e)\n",
              res.speedup, res.final_q_rel_err, res.fused_oracle_rel_err);

  // The fused tracked Q must reproduce the ObjectiveQ oracle on the final
  // model — this is the correctness contract of fused tracking.
  if (res.fused_oracle_rel_err > 1e-9) {
    std::fprintf(stderr, "FAIL: fused Q vs ObjectiveQ oracle rel err %.3e\n",
                 res.fused_oracle_rel_err);
    return 1;
  }
  // Both paths optimize the same objective from the same start; they may
  // pick different (equally valid) Armijo steps where acceptance is
  // non-monotone, so allow small trajectory drift — more means a bug.
  if (res.final_q_rel_err > 1e-2) {
    std::fprintf(stderr,
                 "FAIL: legacy/fused objective mismatch (rel err %.3e)\n",
                 res.final_q_rel_err);
    return 1;
  }

  if (flags.Bool("json")) {
    const std::string out_path = flags.String("out");
    const std::string json = ToJson(res, r, config, scale);
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
    // to gate against a baseline recorded at a different scale/K/nnz.
    double base_scale = 0.0, base_k = 0.0, base_nnz = 0.0;
    if (!FindJsonNumber(buf.str(), "scale", &base_scale) ||
        !FindJsonNumber(buf.str(), "k", &base_k) ||
        !FindJsonNumber(buf.str(), "nnz", &base_nnz) ||
        std::abs(base_scale - scale) > 1e-12 ||
        static_cast<uint32_t>(base_k) != k ||
        static_cast<size_t>(base_nnz) != r.nnz()) {
      std::fprintf(stderr,
                   "FAIL: baseline %s records a different workload "
                   "(scale=%g k=%g nnz=%.0f vs scale=%g k=%u nnz=%zu) — "
                   "regenerate it with the current bench flags\n",
                   baseline_path.c_str(), base_scale, base_k, base_nnz,
                   scale, k, r.nnz());
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
