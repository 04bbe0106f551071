#include "core/ocular_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "parallel/partition.h"
#include "sparse/linalg.h"

namespace ocular {

namespace {
/// Floor on affinities inside log/ratio terms; keeps 1/(e^x - 1) finite as
/// x -> 0 (the gradient then pushes hard, but boundedly, toward explaining
/// the positive example).
constexpr double kAffinityFloor = 1e-12;
constexpr double kProbFloor = 1e-12;
}  // namespace

Status OcularConfig::Validate() const {
  // NaN fails every comparison below, so the real-valued knobs are first
  // required to be finite.
  const std::pair<double, const char*> reals[] = {
      {lambda, "lambda"},           {tolerance, "tolerance"},
      {armijo_beta, "armijo_beta"}, {armijo_sigma, "armijo_sigma"},
      {initial_step, "initial_step"}, {init_scale, "init_scale"}};
  for (const auto& [value, name] : reals) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(std::string(name) + " must be finite");
    }
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  // The bias extension adds two dimensions; TotalDims() must not wrap.
  if (k > std::numeric_limits<uint32_t>::max() - 2) {
    return Status::InvalidArgument("k must be at most 4294967293");
  }
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  if (max_sweeps == 0) {
    return Status::InvalidArgument("max_sweeps must be positive");
  }
  if (armijo_beta <= 0.0 || armijo_beta >= 1.0) {
    return Status::InvalidArgument("armijo_beta must be in (0,1)");
  }
  if (armijo_sigma <= 0.0 || armijo_sigma >= 1.0) {
    return Status::InvalidArgument("armijo_sigma must be in (0,1)");
  }
  if (initial_step <= 0.0) {
    return Status::InvalidArgument("initial_step must be positive");
  }
  if (init_scale <= 0.0) {
    return Status::InvalidArgument("init_scale must be positive");
  }
  if (tolerance < 0.0) {
    return Status::InvalidArgument("tolerance must be >= 0");
  }
  if (block_steps == 0) {
    return Status::InvalidArgument("block_steps must be positive");
  }
  return Status::OK();
}

namespace internal {

void BlockWorkspace::Reserve(size_t k, size_t max_neighbors) {
  grad.resize(k);
  trial.resize(k);
  trial_alt.resize(k);
  dots.resize(max_neighbors);
  trial_dots.resize(max_neighbors);
  trial_dots_alt.resize(max_neighbors);
  dots_valid = false;
}

double BlockObjective(std::span<const double> f,
                      std::span<const uint32_t> neighbors,
                      ConstMatrixView other,
                      std::span<const double> complement_sum, double lambda,
                      double pos_weight,
                      std::span<const double> per_neighbor_weights) {
  double q = 0.0;
  for (size_t n = 0; n < neighbors.size(); ++n) {
    const double w =
        per_neighbor_weights.empty() ? pos_weight : per_neighbor_weights[n];
    const double dot = vec::Dot(other.Row(neighbors[n]), f);
    const double p = std::max(-std::expm1(-dot), kProbFloor);
    q -= w * std::log(p);
  }
  q += vec::Dot(f, complement_sum);
  q += lambda * vec::SquaredNorm(f);
  return q;
}

namespace {

/// Evaluates the block objective at `x`, writing d_n = <f_n, x> into
/// `dots`. The complement term is recovered from the sums and the dots:
///   <x, Σ_{r=0} f_n> = <x, other_sums> − Σ_n d_n.
/// One O(deg·K) pass, no allocation.
double EvalBlockPoint(std::span<const double> x,
                      std::span<const uint32_t> neighbors,
                      ConstMatrixView other,
                      std::span<const double> other_sums, double lambda,
                      double pos_weight,
                      std::span<const double> per_neighbor_weights,
                      std::span<double> dots) {
  double q_pos = 0.0;
  double dot_sum = 0.0;
  for (size_t n = 0; n < neighbors.size(); ++n) {
    const double w =
        per_neighbor_weights.empty() ? pos_weight : per_neighbor_weights[n];
    const double d = vec::Dot(other.Row(neighbors[n]), x);
    dots[n] = d;
    dot_sum += d;
    q_pos -= w * std::log(std::max(-std::expm1(-d), kProbFloor));
  }
  double sq = 0.0;
  const double sums_dot = vec::DotAndSquaredNorm(x, other_sums, &sq);
  return q_pos + sums_dot - dot_sum + lambda * sq;
}

/// The line-search core: q0 and the gradient are already in hand.
///
/// The search runs on the exponent grid alpha(t) = initial_step * beta^t,
/// t in [0, max_backtracks], evaluated by the same repeated multiplication
/// a cold top-down search performs — the candidate points are BITWISE the
/// cold search's. A cold call (step_hint null) walks t upward from 0
/// exactly like the classic backtracking loop. With a hint (the row's
/// accepted exponent last sweep), the search starts at hint-1 and walks to
/// the acceptance boundary — downward while passing (bigger steps), upward
/// while failing (smaller steps) — accepting the t whose predecessor
/// fails. Armijo acceptance is monotone in t for these strongly convex
/// blocks, so this is the same t the cold search finds, at ~2 objective
/// evaluations instead of t+1.
///
/// On success swaps the accepted trial's dots into ws->dots so the next
/// step on the same block starts with a warm cache.
BlockStepResult ArmijoSearch(std::span<double> f, std::span<const double> grad,
                             std::span<const uint32_t> neighbors,
                             ConstMatrixView other,
                             std::span<const double> other_sums, double lambda,
                             double pos_weight,
                             std::span<const double> per_neighbor_weights,
                             const OcularConfig& config, double q0,
                             BlockWorkspace* ws, double* step_hint) {
  const int max_t = static_cast<int>(config.max_backtracks);

  // alpha(t) by the same multiply chain the cold loop uses, so candidate
  // points match it bitwise for every t.
  const auto alpha_at = [&config](int t) {
    double a = config.initial_step;
    for (int j = 0; j < t; ++j) a *= config.armijo_beta;
    return a;
  };

  // Evaluates grid point t into (*trial, *trial_dots, *q1). Returns
  // +1 pass, 0 fail, +2 stationary (trial == f exactly; see below).
  const auto eval_at = [&](int t, std::vector<double>* trial,
                           std::vector<double>* trial_dots, double* q1) {
    std::span<double> tr(trial->data(), f.size());
    const double descent = vec::ProjectedTrial(tr, f, grad, alpha_at(t));
    if (descent == 0.0) {
      // Every term of <grad, trial - f> is <= 0 on the projection arc, so
      // zero descent means trial == f exactly: the row is stationary at
      // this alpha and the (q1 == q0) trial is trivially acceptable.
      return 2;
    }
    *q1 = EvalBlockPoint(
        tr, neighbors, other, other_sums, lambda, pos_weight,
        per_neighbor_weights,
        std::span<double>(trial_dots->data(), neighbors.size()));
    return *q1 - q0 <= config.armijo_sigma * descent ? 1 : 0;
  };

  const auto accept = [&](int t, std::vector<double>* trial,
                          std::vector<double>* trial_dots,
                          double q1) -> BlockStepResult {
    std::copy(trial->begin(), trial->begin() + f.size(), f.begin());
    std::swap(ws->dots, *trial_dots);
    ws->dots_valid = true;
    ws->objective = q1;
    if (step_hint != nullptr) *step_hint = static_cast<double>(t);
    return {t, q1};
  };

  // Double-buffered candidates: `cur` holds the best passing trial seen,
  // `alt` receives the next probe.
  std::vector<double>* cur_trial = &ws->trial;
  std::vector<double>* cur_dots = &ws->trial_dots;
  std::vector<double>* alt_trial = &ws->trial_alt;
  std::vector<double>* alt_dots = &ws->trial_dots_alt;

  int t = 0;
  if (step_hint != nullptr) {
    t = std::clamp(static_cast<int>(*step_hint) - 1, 0, max_t);
  }

  double q_cur = 0.0;
  const int first = eval_at(t, cur_trial, cur_dots, &q_cur);
  if (first == 2) {
    if (step_hint != nullptr) *step_hint = static_cast<double>(t);
    return {t, q0};
  }
  if (first == 1) {
    // Passing: walk toward bigger steps while they keep passing.
    while (t > 0) {
      double q_alt = 0.0;
      const int r = eval_at(t - 1, alt_trial, alt_dots, &q_alt);
      if (r != 1) break;  // t-1 fails (or is degenerate): t is the boundary
      std::swap(cur_trial, alt_trial);
      std::swap(cur_dots, alt_dots);
      q_cur = q_alt;
      --t;
    }
    return accept(t, cur_trial, cur_dots, q_cur);
  }
  // Failing: walk toward smaller steps until one passes.
  for (++t; t <= max_t; ++t) {
    const int r = eval_at(t, cur_trial, cur_dots, &q_cur);
    if (r == 2) {
      if (step_hint != nullptr) *step_hint = static_cast<double>(t);
      return {t, q0};
    }
    if (r == 1) return accept(t, cur_trial, cur_dots, q_cur);
  }
  return {-1, q0};  // line search failed; f (and the dot cache) unchanged
}

}  // namespace

BlockStepResult ProjectedGradientStep(
    std::span<double> f, std::span<const uint32_t> neighbors,
    ConstMatrixView other, std::span<const double> other_sums,
    double lambda, double pos_weight,
    std::span<const double> per_neighbor_weights, const OcularConfig& config,
    int frozen_coord, BlockWorkspace* ws, double* step_hint) {
  const size_t k = f.size();
  const size_t m = neighbors.size();
  std::span<double> grad(ws->grad.data(), k);
  std::span<double> dots(ws->dots.data(), m);

  // Gradient (eq. 6) without materializing the complement:
  //   grad = (Σ_all f_n − Σ_pos f_n) + 2λf − Σ_pos w_n f_n / (e^{d_n} − 1)
  //        = Σ_all f_n + 2λf − Σ_pos (1 + w_n/(e^{d_n} − 1)) f_n.
  vec::GradientInit(grad, other_sums, f, 2.0 * lambda);
  if (ws->dots_valid) {
    // Same block, f unchanged since the last accepted trial: the dots (and
    // q0 = ws->objective) are already known; only the Axpy pass remains.
    for (size_t n = 0; n < m; ++n) {
      const double w =
          per_neighbor_weights.empty() ? pos_weight : per_neighbor_weights[n];
      const double coef = w / std::expm1(std::max(dots[n], kAffinityFloor));
      vec::Axpy(-(1.0 + coef), other.Row(neighbors[n]), grad);
    }
  } else {
    // Cold cache: one fused pass computes the dots, the q0 pieces, and the
    // gradient corrections together. A single expm1 serves both the
    // gradient coefficient and the log-likelihood term:
    //   1 − e^{−d} = E/(1+E) with E = e^{d} − 1  (exact; guards overflow).
    double q_pos = 0.0;
    double dot_sum = 0.0;
    for (size_t n = 0; n < m; ++n) {
      const double w =
          per_neighbor_weights.empty() ? pos_weight : per_neighbor_weights[n];
      auto row = other.Row(neighbors[n]);
      const double d = vec::Dot(row, f);
      dots[n] = d;
      dot_sum += d;
      const double e = std::expm1(std::max(d, kAffinityFloor));
      const double p = e < 1e300 ? e / (1.0 + e) : 1.0;
      q_pos -= w * std::log(std::max(p, kProbFloor));
      vec::Axpy(-(1.0 + w / e), row, grad);
    }
    double sq = 0.0;
    const double sums_dot = vec::DotAndSquaredNorm(f, other_sums, &sq);
    ws->objective = q_pos + sums_dot - dot_sum + lambda * sq;
    ws->dots_valid = true;
  }
  // A frozen coordinate (bias extension) never moves; masking its gradient
  // keeps the Armijo line search exact for the remaining coordinates.
  if (frozen_coord >= 0 && static_cast<size_t>(frozen_coord) < k) {
    grad[static_cast<size_t>(frozen_coord)] = 0.0;
  }

  return ArmijoSearch(f, grad, neighbors, other, other_sums, lambda,
                      pos_weight, per_neighbor_weights, config,
                      ws->objective, ws, step_hint);
}

}  // namespace internal

OcularTrainer::OcularTrainer(OcularConfig config, size_t num_threads)
    : config_(std::move(config)),
      num_threads_(std::max<size_t>(num_threads, 1)) {}

std::vector<double> OcularTrainer::UserWeights(
    const CsrMatrix& interactions) const {
  std::vector<double> w(interactions.num_rows(), 1.0);
  if (config_.variant != OcularVariant::kRelative) return w;
  const double n_items = interactions.num_cols();
  for (uint32_t u = 0; u < interactions.num_rows(); ++u) {
    const double pos = interactions.RowDegree(u);
    // w_u = |{i: r_ui = 0}| / |{i: r_ui = 1}|. Users with no positives
    // contribute no positive terms; leave their (unused) weight at 1.
    if (pos > 0.0) w[u] = (n_items - pos) / pos;
  }
  return w;
}

Result<OcularFitResult> OcularTrainer::Fit(
    const CsrMatrix& interactions) const {
  OCULAR_RETURN_IF_ERROR(config_.Validate());
  Rng rng(config_.seed);
  const double scale =
      config_.init_scale / std::sqrt(static_cast<double>(config_.k));
  const uint32_t dims = config_.TotalDims();
  // OcularConfig::Validate bounds K by 32 bits, not by memory: factor
  // matrices no allocator can hold are an error here, not an abort.
  DenseMatrix fu;
  DenseMatrix fi;
  try {
    fu = DenseMatrix(interactions.num_rows(), dims);
    fi = DenseMatrix(interactions.num_cols(), dims);
  } catch (const std::exception&) {  // bad_alloc, or past max_size()
    const double bytes = (static_cast<double>(interactions.num_rows()) +
                          interactions.num_cols()) *
                         dims * sizeof(double);
    char text[32];
    std::snprintf(text, sizeof(text), "%.0f", bytes);
    return Status::OutOfRange("K=" + std::to_string(config_.k) + " needs " +
                              text + " bytes of factor matrices, which " +
                              "cannot be allocated");
  }
  fu.FillUniform(&rng, 0.0, scale);
  fi.FillUniform(&rng, 0.0, scale);
  if (config_.use_biases) {
    // Dim k: user bias (item side pinned at 1). Dim k+1: item bias (user
    // side pinned at 1). Free bias coordinates start small.
    for (uint32_t u = 0; u < fu.rows(); ++u) {
      fu.At(u, config_.k) = rng.Uniform(0.0, 0.1);
      fu.At(u, config_.k + 1) = 1.0;
    }
    for (uint32_t i = 0; i < fi.rows(); ++i) {
      fi.At(i, config_.k) = 1.0;
      fi.At(i, config_.k + 1) = rng.Uniform(0.0, 0.1);
    }
  }
  return FitFrom(interactions, OcularModel(std::move(fu), std::move(fi)));
}

Result<OcularFitResult> OcularTrainer::FitFrom(const CsrMatrix& interactions,
                                               OcularModel initial) const {
  OCULAR_RETURN_IF_ERROR(config_.Validate());
  if (interactions.nnz() == 0) {
    return Status::InvalidArgument("interaction matrix has no positives");
  }
  if (initial.num_users() != interactions.num_rows() ||
      initial.num_items() != interactions.num_cols() ||
      initial.k() != config_.TotalDims()) {
    return Status::InvalidArgument("initial model shape mismatch");
  }
  // Coordinate pinned at 1 during item updates / user updates (bias
  // extension); -1 disables freezing.
  const int item_frozen = config_.use_biases ? static_cast<int>(config_.k)
                                             : -1;
  const int user_frozen =
      config_.use_biases ? static_cast<int>(config_.k) + 1 : -1;

  OcularFitResult out;
  out.model = std::move(initial);
  DenseMatrix& fu = *out.model.mutable_user_factors();
  DenseMatrix& fi = *out.model.mutable_item_factors();

  const CsrMatrix transposed = interactions.Transpose();
  const bool relative = config_.variant == OcularVariant::kRelative;
  // R-OCuLaR's per-user weights; the absolute variant weighs every
  // positive by 1 and builds none.
  const std::vector<double> weights =
      relative ? UserWeights(interactions) : std::vector<double>{};

  // R-OCuLaR item phase: gather the per-positive user weights ONCE — the
  // weights are constant across sweeps, and the flat layout aligns with
  // transposed.col_idx() so item i's weights are a contiguous span.
  std::vector<double> item_phase_weights;
  if (relative) {
    const std::vector<uint32_t>& users_flat = transposed.col_idx();
    item_phase_weights.resize(users_flat.size());
    for (size_t t = 0; t < users_flat.size(); ++t) {
      item_phase_weights[t] = weights[users_flat[t]];
    }
  }

  // The rows of a phase are independent given the other side, so a phase
  // runs as nnz-balanced row ranges (split once: the pattern is constant),
  // one workspace per thread. One thread runs each phase inline as one
  // range: no pool, one workspace.
  using Ranges = std::vector<std::pair<size_t, size_t>>;
  std::optional<ThreadPool> pool;
  if (num_threads_ > 1) pool.emplace(num_threads_);
  const auto split = [&](const CsrMatrix& pattern) {
    return pool ? BalancedRowRanges(pattern.row_ptr(), num_threads_)
                : Ranges{{0, pattern.num_rows()}};
  };
  const Ranges item_ranges = split(transposed);
  const Ranges user_ranges = split(interactions);
  // Pool workers take their own slot; a caller that runs a one-range phase
  // itself takes the last one (ThreadPool::ScratchSlot).
  std::vector<internal::BlockWorkspace> workspaces(pool ? num_threads_ + 1
                                                        : 1);
  for (auto& ws : workspaces) {
    ws.Reserve(config_.TotalDims(), std::max(interactions.MaxRowDegree(),
                                             transposed.MaxRowDegree()));
  }
  // Runs row_range(lo, hi, ws) over every range; returns when all are done.
  const auto run_phase = [&](const Ranges& ranges, const auto& row_range) {
    if (!pool) {
      for (const auto& [lo, hi] : ranges) row_range(lo, hi, workspaces[0]);
      return;
    }
    pool->ParallelForRanges(ranges, [&](size_t lo, size_t hi) {
      row_range(lo, hi, workspaces[ThreadPool::ScratchSlot(num_threads_)]);
    });
  };

  // Per-row adaptive line-search state (see ProjectedGradientStep's
  // step_hint): the last accepted backtrack exponent per row, so each
  // search resumes near its boundary instead of walking down from exponent
  // 0 every sweep. Every row belongs to exactly one range, so threads never
  // share an entry.
  std::vector<double> item_steps(interactions.num_cols(), 0.0);
  std::vector<double> user_steps(interactions.num_rows(), 0.0);

  Stopwatch watch;
  double prev_q = config_.track_objective
                      ? ObjectiveQ(out.model, interactions, config_.lambda,
                                   weights)
                      : 0.0;

  // Per-user block objectives of the sweep's user phase. Summed in row
  // order (not accumulation order), so the trace is bit-identical at every
  // thread count.
  std::vector<double> block_q(
      config_.track_objective ? interactions.num_rows() : 0, 0.0);

  for (uint32_t sweep = 0; sweep < config_.max_sweeps; ++sweep) {
    // ---- Item phase: update every f_i with f_u fixed. ----
    const std::vector<double> user_sums = fu.ColumnSums();
    const std::vector<uint64_t>& item_ptr = transposed.row_ptr();
    run_phase(item_ranges, [&](size_t lo, size_t hi,
                               internal::BlockWorkspace& ws) {
      for (size_t i = lo; i < hi; ++i) {
        auto users = transposed.Row(static_cast<uint32_t>(i));
        std::span<const double> wspan;
        if (relative) {
          wspan = {item_phase_weights.data() + item_ptr[i], users.size()};
        }
        ws.Invalidate();
        for (uint32_t step = 0; step < config_.block_steps; ++step) {
          internal::ProjectedGradientStep(
              fi.Row(static_cast<uint32_t>(i)), users, fu, user_sums,
              config_.lambda, 1.0, wspan, config_, item_frozen, &ws,
              &item_steps[i]);
        }
      }
    });

    // ---- User phase: update every f_u with f_i fixed. ----
    const std::vector<double> item_sums = fi.ColumnSums();
    run_phase(user_ranges, [&](size_t lo, size_t hi,
                               internal::BlockWorkspace& ws) {
      for (size_t u = lo; u < hi; ++u) {
        const double w = relative ? weights[u] : 1.0;
        ws.Invalidate();
        internal::BlockStepResult last;
        for (uint32_t step = 0; step < config_.block_steps; ++step) {
          last = internal::ProjectedGradientStep(
              fu.Row(static_cast<uint32_t>(u)),
              interactions.Row(static_cast<uint32_t>(u)), fi, item_sums,
              config_.lambda, w, {}, config_, user_frozen, &ws,
              &user_steps[u]);
        }
        if (config_.track_objective) block_q[u] = last.objective;
      }
    });

    out.sweeps_run = sweep + 1;
    if (config_.track_objective) {
      // Fused objective: Σ_u Q_u(f_u) already contains the positives, the
      // unknowns (via the per-block complement terms), and λ||F_u||²; only
      // the item-side regularizer is missing.
      const double q = std::accumulate(block_q.begin(), block_q.end(), 0.0) +
                       config_.lambda * fi.SquaredFrobeniusNorm();
      out.trace.push_back(SweepStats{sweep, q, watch.ElapsedSeconds()});
      // "Convergence is declared if Q stops decreasing."
      const double rel_drop = (prev_q - q) / std::max(std::abs(prev_q), 1e-12);
      if (rel_drop < config_.tolerance) {
        out.converged = true;
        break;
      }
      prev_q = q;
    }
  }
  return out;
}

}  // namespace ocular
