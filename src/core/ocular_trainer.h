#ifndef OCULAR_CORE_OCULAR_TRAINER_H_
#define OCULAR_CORE_OCULAR_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/ocular_model.h"
#include "sparse/csr.h"

namespace ocular {

/// Which likelihood the trainer optimizes.
enum class OcularVariant {
  /// Absolute preferences — the OCuLaR objective of Section IV-B.
  kAbsolute,
  /// Relative preferences — R-OCuLaR (Section V): positive log-likelihood
  /// terms of user u are weighted by w_u = |{i: r_ui=0}| / |{i: r_ui=1}|.
  kRelative,
};

/// Hyper-parameters and knobs of the OCuLaR trainer.
struct OcularConfig {
  /// Number of co-clusters K (at most UINT32_MAX - 2, so that
  /// TotalDims() cannot wrap).
  uint32_t k = 50;
  /// l2 regularization weight lambda (> 0 makes the block subproblems
  /// strongly convex; Section IV-B).
  double lambda = 1.0;
  /// The likelihood to optimize: OCuLaR or R-OCuLaR.
  OcularVariant variant = OcularVariant::kAbsolute;

  /// Maximum number of full sweeps (one sweep = update all f_i, then all
  /// f_u, each by `block_steps` projected-gradient steps).
  uint32_t max_sweeps = 60;

  /// Projected-gradient steps per block per sweep. 1 is the paper's
  /// choice ("performing only one gradient descent step significantly
  /// speeds up the algorithm"); larger values approximate solving each
  /// block subproblem exactly (the classic non-linear Gauss-Seidel
  /// setting, [Bertsekas Prop. 2.7.1]). The ablation bench compares
  /// convergence-per-second across values.
  uint32_t block_steps = 1;
  /// Convergence: stop when the relative decrease of Q over a sweep falls
  /// below this ("convergence is declared if Q stops decreasing").
  double tolerance = 1e-4;

  /// Armijo backtracking line search along the projection arc
  /// (Bertsekas; Section IV-D): step alpha = initial_step * beta^t with the
  /// smallest t >= 0 satisfying
  ///   Q(f+) - Q(f) <= sigma * <grad Q(f), f+ - f>.
  /// This is beta, the factor each backtrack shrinks the step by, in (0, 1).
  double armijo_beta = 0.5;
  /// Sigma of the sufficient-decrease test above, in (0, 1).
  double armijo_sigma = 0.1;
  /// Alpha at t = 0, the largest step a search tries (positive).
  double initial_step = 1.0;
  /// Largest exponent t a line search tries before it gives up and leaves
  /// the row unchanged.
  uint32_t max_backtracks = 40;

  /// Factors are initialized iid Uniform(0, init_scale / sqrt(K)).
  double init_scale = 1.0;
  /// Seed of the factor initialization.
  uint64_t seed = 1;

  /// Optional user/item bias terms (Section IV-A):
  ///   P[r_ui = 1] = 1 - exp(-<f_u,f_i> - b_u - b_i).
  /// Implemented as two extra factor dimensions with the counterpart
  /// coordinate frozen at 1, so every update path (training at any thread
  /// count, fold-in) works unchanged. The paper reports biases did not
  /// improve accuracy on its datasets; the ablation bench quantifies this.
  bool use_biases = false;

  /// Total factor dimensions including bias dimensions.
  uint32_t TotalDims() const { return k + (use_biases ? 2 : 0); }

  /// Record Q after every sweep (needed for the Fig. 8 convergence traces
  /// and the stopping rule). Tracking is FUSED into the sweep: the user
  /// phase accumulates the per-block objectives its line searches computed
  /// anyway, so the only extra cost is O(n_i·K) for the item-side l2 term —
  /// no separate O(nnz·K) ObjectiveQ pass (ObjectiveQ remains the oracle in
  /// tests).
  bool track_objective = true;

  /// Validates ranges; returns InvalidArgument on nonsense, NaN and
  /// infinities included.
  Status Validate() const;
};

/// Per-sweep progress record.
struct SweepStats {
  uint32_t sweep = 0;            ///< 0-based sweep index
  double objective = 0.0;        ///< Q after this sweep (if tracked)
  double seconds_elapsed = 0.0;  ///< wall clock since training start
};

/// Training output: the fitted model plus the convergence trace.
struct OcularFitResult {
  OcularModel model;              ///< the fitted factors
  std::vector<SweepStats> trace;  ///< one record per sweep, if tracked
  uint32_t sweeps_run = 0;        ///< sweeps actually run
  bool converged = false;         ///< true if the tolerance test stopped it
};

/// Fits the OCuLaR (or R-OCuLaR) model to a binary interaction matrix by
/// cyclic block coordinate descent with single projected-gradient-step
/// block updates (Section IV-B, IV-D). Cost per sweep: O(nnz·K + (n_u+n_i)·K).
///
/// The trainer owns the Σ_u f_u / Σ_i f_i precomputation trick: the
/// unknowns part of every block gradient is formed from column sums minus
/// the positive entries' factors, never by touching the zero cells.
///
/// This is the only sweep loop, at any thread count. Within a half-sweep
/// every row update reads only the fixed other side and its column sums,
/// so the rows are independent (Section VI parallelizes exactly this).
/// Each phase splits its rows into nnz-balanced ranges (BalancedRowRanges),
/// every thread keeps its own workspace, and the fused Q is summed in row
/// order: factors, trace, sweeps_run and converged are bit-identical at
/// every thread count.
class OcularTrainer {
 public:
  /// A trainer that runs each half-sweep on `num_threads` threads (0 counts
  /// as 1). One thread, the default, runs every row inline on the calling
  /// thread: no thread starts and no pool is built. More threads share a
  /// pool that lives only as long as one fit.
  explicit OcularTrainer(OcularConfig config, size_t num_threads = 1);

  /// The hyper-parameters this trainer fits with.
  const OcularConfig& config() const { return config_; }
  /// Threads a fit runs its half-sweeps on (at least 1).
  size_t num_threads() const { return num_threads_; }

  /// Trains from scratch on `interactions`. Fails with OutOfRange, naming
  /// K and the bytes, when the factor matrices cannot be allocated.
  Result<OcularFitResult> Fit(const CsrMatrix& interactions) const;

  /// Trains starting from an existing model (warm start). The model shape
  /// must match `interactions` and config().k.
  Result<OcularFitResult> FitFrom(const CsrMatrix& interactions,
                                  OcularModel initial) const;

  /// Computes the R-OCuLaR per-user weights w_u for `interactions`
  /// (kAbsolute returns all-ones).
  std::vector<double> UserWeights(const CsrMatrix& interactions) const;

 private:
  OcularConfig config_;
  size_t num_threads_;
};

namespace internal {

/// Reusable scratch for one block update. All heap storage the kernels need
/// lives here; after Reserve() the kernels perform ZERO allocations per
/// block update (verified by an allocator hook in tests), so one workspace
/// per thread turns the whole sweep allocation-free.
///
/// The workspace also caches the per-neighbor dot products d_n = <f_n, f>
/// and the block objective at the CURRENT point f. Within one block (same
/// row, same fixed side) consecutive projected-gradient steps reuse them:
/// the gradient coefficients w_n/expm1(d_n) come from the cache and the
/// Armijo q0 needs no recomputation at all. Callers must Invalidate() when
/// moving to a different row (or after the fixed side changed).
struct BlockWorkspace {
  std::vector<double> grad;            ///< K: the block gradient
  std::vector<double> trial;           ///< K: line-search candidate
  std::vector<double> trial_alt;       ///< K: second candidate
  std::vector<double> dots;            ///< deg(row): <f_n, f> at current f
  std::vector<double> trial_dots;      ///< deg(row): dots at `trial`
  std::vector<double> trial_dots_alt;  ///< deg(row): dots at `trial_alt`

  /// True when `dots`/`objective` describe the current f of the block this
  /// workspace was last used on.
  bool dots_valid = false;
  /// Block objective Q_b(f) at the current f (valid with dots_valid).
  double objective = 0.0;

  /// Pre-sizes every buffer so later (re)use never reallocates. `k` is the
  /// factor dimension, `max_neighbors` the maximum row degree the kernels
  /// will see (max over both R and R^T when shared across phases).
  ///
  /// Memory trade-off: the three degree-sized buffers cost
  /// 3*max_neighbors doubles per workspace, which a fit on T > 1 threads
  /// multiplies by (T + 1). On heavily skewed data (one blockbuster row of
  /// degree d) that is 24*d*(T+1) bytes of mostly-idle scratch — but such a
  /// row implies >= d counterpart factor rows, so the scratch stays small
  /// relative to the model itself.
  void Reserve(size_t k, size_t max_neighbors);

  /// Marks the dot/objective cache stale (switching to another block).
  void Invalidate() { dots_valid = false; }
};

/// Outcome of one block update.
struct BlockStepResult {
  /// Backtracking steps taken, or -1 if the line search failed (f
  /// unchanged).
  int backtracks = -1;
  /// Block objective Q_b(f) AFTER the update — the accepted trial's value
  /// (or the unchanged point's value on failure). Computed as a byproduct
  /// of the line search, so per-sweep objective tracking fused from these
  /// is free.
  double objective = 0.0;
};

/// One projected-gradient update of a single factor row, shared by the
/// item and user phases of OcularTrainer and by fold-in. Updates `f` in
/// place: the gradient, then an Armijo backtracking line search along the
/// projection arc.
///
/// `neighbors`   — positive counterparts of this row (users of an item, or
///                 items of a user);
/// `other`       — the opposite factor matrix (a borrowed view, so the
///                 kernels run equally over an owned DenseMatrix or the
///                 mmapped factor section of a ModelStore);
/// `other_sums`  — column sums of `other` (Σ f over the opposite side).
///                 The complement Σ_{r=0} f_n is never materialized: both
///                 the gradient and the objective only need it through
///                 <x, complement> = <x, other_sums> − Σ_n <x, f_n>, and the
///                 per-neighbor dots are computed (once) anyway;
/// `pos_weight`  — weight multiplying every positive log-likelihood term
///                 (w_u for user rows under R-OCuLaR, 1 otherwise). For an
///                 ITEM row under R-OCuLaR, pass `per_neighbor_weights`
///                 instead (weights differ per positive example);
/// `frozen_coord`— coordinate of `f` held fixed during the step (-1 for
///                 none); used by the bias extension where the counterpart
///                 bias coordinate is pinned at 1;
/// `ws`          — per-thread scratch (see BlockWorkspace); must be
///                 Reserve()d large enough and Invalidate()d when switching
///                 rows. The q0 evaluation reuses ws->dots/objective when
///                 valid; each backtrack computes dots only for the trial
///                 point;
/// `step_hint`   — optional per-ROW adaptive line-search state, persisted
///                 by the caller across sweeps and initialized to 0.0.
///                 nullptr restarts every search at config.initial_step.
///
/// `step_hint` warm-starts the search. It stores the row's last accepted
/// backtrack EXPONENT t (alpha = initial_step * beta^t, the same grid a
/// cold search walks): the search probes t-1 and walks to the acceptance
/// boundary from there instead of from t=0. The Armijo acceptance test
/// itself is unchanged, so every accepted step still satisfies the
/// sufficient-decrease condition, and under the (generic)
/// monotone-acceptance property the accepted step is exactly the cold
/// search's — this only removes the 4-7 rejected trials per block a cold
/// search spends walking alpha down, which is the single largest cost of
/// a sweep.
BlockStepResult ProjectedGradientStep(
    std::span<double> f, std::span<const uint32_t> neighbors,
    ConstMatrixView other, std::span<const double> other_sums,
    double lambda, double pos_weight,
    std::span<const double> per_neighbor_weights, const OcularConfig& config,
    int frozen_coord, BlockWorkspace* ws, double* step_hint = nullptr);

/// The block objective Q(f) of eq. (5), up to terms constant in f:
///   -Σ_n w_n log(1-e^{-<f_n, f>}) + <f, Σ_{r=0} f_n> + lambda ||f||².
/// O(deg·K) with heap allocation — kept as the slow oracle for tests and
/// one-off evaluations; the hot path gets the same value from
/// BlockStepResult::objective.
double BlockObjective(std::span<const double> f,
                      std::span<const uint32_t> neighbors,
                      ConstMatrixView other,
                      std::span<const double> complement_sum, double lambda,
                      double pos_weight,
                      std::span<const double> per_neighbor_weights);

}  // namespace internal

}  // namespace ocular

#endif  // OCULAR_CORE_OCULAR_TRAINER_H_
