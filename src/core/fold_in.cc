#include "core/fold_in.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sparse/linalg.h"

namespace ocular {

namespace {

/// Shared validation of the factor views a context is built over.
Status ValidateContextShape(ConstMatrixView items, ConstMatrixView items_t,
                            const OcularConfig& config,
                            std::span<const double> popularity) {
  OCULAR_RETURN_IF_ERROR(config.Validate());
  if (config.TotalDims() != items.cols()) {
    return Status::InvalidArgument("config dimensions do not match model");
  }
  if (items_t.rows() != items.cols() || items_t.cols() != items.rows()) {
    return Status::InvalidArgument(
        "items_t must be the transposed layout of items");
  }
  if (!popularity.empty() && popularity.size() != items.rows()) {
    return Status::InvalidArgument(
        "popularity must have one entry per item");
  }
  return Status::OK();
}

/// Σ_i f_i read from the K x n_i layout. Row c of `items_t` is column c
/// of the row-major items, so each sum adds the same terms in the same
/// ascending item order as ColumnSums(items) — bit-identical — while
/// reading only the section stored-user requests keep resident anyway.
std::vector<double> ItemSums(ConstMatrixView items_t) {
  std::vector<double> sums(items_t.rows());
  for (uint32_t c = 0; c < items_t.rows(); ++c) {
    double s = 0.0;
    for (const double v : items_t.Row(c)) s += v;
    sums[c] = s;
  }
  return sums;
}

/// Fills ctx->popularity: the explicit ranking if given, else the expected
/// affinity <Σ_u f_u, f_i> — deterministic either way. The affinity runs
/// through the serving kernel over Vᵀ, which sums each item's terms in
/// ascending c exactly like vec::Dot over its row-major row.
void FillPopularity(std::span<const ConstMatrixView> user_blocks,
                    std::span<const double> popularity, FoldInContext* ctx) {
  ctx->popularity.assign(popularity.begin(), popularity.end());
  if (!ctx->popularity.empty()) return;
  ctx->popularity.resize(ctx->num_items());
  vec::AffinityBlock(ColumnSums(user_blocks, ctx->dims()), ctx->items_t, 0,
                     ctx->popularity);
}

}  // namespace

Result<FoldInContext> MakeFoldInContext(
    std::span<const ConstMatrixView> user_blocks, ConstMatrixView items,
    ConstMatrixView items_t, const OcularConfig& config,
    std::span<const double> popularity) {
  OCULAR_RETURN_IF_ERROR(
      ValidateContextShape(items, items_t, config, popularity));
  for (const ConstMatrixView& block : user_blocks) {
    if (popularity.empty() && block.cols() != items.cols()) {
      return Status::InvalidArgument(
          "user factors must match item dimensions (or pass popularity)");
    }
  }
  // Built from Vᵀ alone: a mapped store's row-major item section stays
  // out of memory until a fold-in solve reads one of its rows.
  FoldInContext ctx;
  ctx.config = config;
  ctx.items = items;
  ctx.items_t = items_t;
  ctx.item_sums = ItemSums(items_t);
  FillPopularity(user_blocks, popularity, &ctx);
  return ctx;
}

Result<FoldInContext> MakeFoldInContext(const OcularModel& model,
                                        const OcularConfig& config,
                                        std::span<const double> popularity) {
  DenseMatrix items_t = TransposedCopy(model.item_factors());
  const ConstMatrixView users = model.user_factors();
  OCULAR_ASSIGN_OR_RETURN(FoldInContext ctx,
                          MakeFoldInContext({&users, 1}, model.item_factors(),
                                            items_t, config, popularity));
  // Moving the matrix keeps its buffer, so ctx.items_t still views it.
  ctx.owned_items_t = std::move(items_t);
  return ctx;
}

HistorySanitizeResult SanitizeHistory(std::vector<uint32_t>* history,
                                      uint32_t num_items) {
  HistorySanitizeResult res;
  std::sort(history->begin(), history->end());
  const auto oor =
      std::lower_bound(history->begin(), history->end(), num_items);
  res.dropped_out_of_range =
      static_cast<size_t>(history->end() - oor);
  history->erase(oor, history->end());
  history->erase(std::unique(history->begin(), history->end()),
                 history->end());
  return res;
}

Status FoldInUserInto(const FoldInContext& ctx,
                      std::span<const uint32_t> history,
                      const FoldInOptions& options, FoldInWorkspace* ws) {
  for (size_t n = 0; n < history.size(); ++n) {
    if (history[n] >= ctx.num_items()) {
      return Status::InvalidArgument("history item out of range: " +
                                     std::to_string(history[n]));
    }
    if (n > 0 && history[n] <= history[n - 1]) {
      return Status::InvalidArgument("history must be strictly ascending");
    }
  }
  const uint32_t dims = ctx.dims();
  const OcularConfig& config = ctx.config;
  ws->f.assign(dims, 0.0);
  if (history.empty()) return Status::OK();

  // Start from the mean of the purchased items' factors — a feasible,
  // informed initial point.
  std::span<double> f(ws->f);
  for (uint32_t i : history) {
    auto row = ctx.items.Row(i);
    for (uint32_t c = 0; c < dims; ++c) {
      f[c] += row[c] / static_cast<double>(history.size());
    }
  }

  // Bias extension: the user-side coordinate k+1 is pinned at 1 (see
  // OcularConfig::use_biases).
  const int user_frozen =
      config.use_biases ? static_cast<int>(config.k) + 1 : -1;
  if (config.use_biases) f[config.k + 1] = 1.0;

  ws->complement.assign(ctx.item_sums.begin(), ctx.item_sums.end());
  for (uint32_t i : history) {
    auto row = ctx.items.Row(i);
    for (uint32_t c = 0; c < dims; ++c) ws->complement[c] -= row[c];
  }

  // The workspace is reused across requests: grow the solver scratch if
  // this history is the longest seen (no-op once warm), and invalidate the
  // dot cache left behind by the previous solve.
  if (ws->block.dots.size() < history.size()) {
    ws->block.Reserve(dims, history.size());
  }
  ws->block.Invalidate();

  // The history block never changes during the solve, so the dot cache
  // stays warm across steps and each step's objective comes out of the
  // line search for free.
  double prev = internal::BlockObjective(f, history, ctx.items,
                                         ws->complement, config.lambda, 1.0,
                                         {});
  // Accepted backtrack exponent (see ProjectedGradientStep's step_hint).
  double step_hint = 0.0;
  for (uint32_t step = 0; step < options.max_steps; ++step) {
    const internal::BlockStepResult res = internal::ProjectedGradientStep(
        f, history, ctx.items, ctx.item_sums, config.lambda, 1.0, {}, config,
        user_frozen, &ws->block, &step_hint);
    const double q = res.objective;
    const double rel = (prev - q) / std::max(std::abs(prev), 1e-12);
    if (rel < options.tolerance) break;
    prev = q;
  }
  return Status::OK();
}

Result<std::vector<double>> FoldInUser(const OcularModel& model,
                                       const OcularConfig& config,
                                       std::span<const uint32_t> history,
                                       const FoldInOptions& options) {
  OCULAR_RETURN_IF_ERROR(config.Validate());
  if (config.TotalDims() != model.k()) {
    return Status::InvalidArgument("config dimensions do not match model");
  }
  // One-off context without the transposed copy / popularity the serving
  // contexts carry — the solve only needs the row-major factors and sums.
  FoldInContext ctx;
  ctx.config = config;
  ctx.items = model.item_factors();
  ctx.items_t = ConstMatrixView(nullptr, model.k(), model.num_items());
  ctx.item_sums = ColumnSums(ctx.items);
  FoldInWorkspace ws;
  ws.Reserve(ctx.dims(), history.size());
  OCULAR_RETURN_IF_ERROR(FoldInUserInto(ctx, history, options, &ws));
  return std::move(ws.f);
}

double ScoreFoldedUser(const OcularModel& model,
                       std::span<const double> user_factor, uint32_t item) {
  return -std::expm1(-vec::Dot(user_factor, model.item_factors().Row(item)));
}

double FoldedUserRecommender::Score(uint32_t, uint32_t i) const {
  return -std::expm1(-vec::Dot(f_, ctx_->items.Row(i)));
}

void FoldedUserRecommender::RawScoreBlock(uint32_t, uint32_t item_begin,
                                          uint32_t item_end,
                                          std::span<double> out) const {
  (void)item_end;
  vec::AffinityBlock(f_, ctx_->items_t, item_begin, out);
}

void FoldedUserRecommender::ScoreBlock(uint32_t u, uint32_t item_begin,
                                       uint32_t item_end,
                                       std::span<double> out) const {
  RawScoreBlock(u, item_begin, item_end, out);
  for (double& s : out) s = -std::expm1(-s);
}

double FoldedUserRecommender::ScoreFromRaw(double raw) const {
  return -std::expm1(-raw);
}

Result<HistoryRecommendation> RecommendForHistoryInto(
    const FoldInContext& ctx, std::span<const uint32_t> history, uint32_t m,
    double min_score, uint32_t block_items, const FoldInOptions& options,
    FoldInWorkspace* ws, std::vector<double>* tile,
    std::vector<ScoredItem>* selection) {
  m = std::min(m, ctx.num_items());
  bool folded = !history.empty();
  if (folded) {
    OCULAR_RETURN_IF_ERROR(FoldInUserInto(ctx, history, options, ws));
    // Degenerate solve (all-zero factor, e.g. history items with all-zero
    // factors): every score is exactly 0 and top-M would return an
    // arbitrary tie-ordered catalog prefix — fall back to popularity.
    folded = vec::SquaredNorm(ws->f) > 0.0;
  }
  constexpr double kNoFloor = -std::numeric_limits<double>::infinity();
  if (!folded) {
    TopMInto(ctx.popularity, m, history, kNoFloor, selection);
    return HistoryRecommendation{{selection->data(), selection->size()},
                                 false};
  }
  FoldedUserRecommender rec(&ctx, ws->f);
  // Same min_score convention (and selector) as the ServeTopM path.
  RecommendBlockedInto(rec, 0, m, history,
                       min_score > 0.0 ? min_score : kNoFloor, block_items,
                       tile, selection);
  return HistoryRecommendation{{selection->data(), selection->size()}, true};
}

Result<std::vector<ScoredItem>> RecommendForHistory(
    const OcularModel& model, const OcularConfig& config,
    std::span<const uint32_t> history, uint32_t m,
    const FoldInOptions& options) {
  OCULAR_ASSIGN_OR_RETURN(FoldInContext ctx,
                          MakeFoldInContext(model, config));
  FoldInWorkspace ws;
  ws.Reserve(ctx.dims(), history.size());
  std::vector<double> tile;
  std::vector<ScoredItem> selection;
  OCULAR_ASSIGN_OR_RETURN(
      HistoryRecommendation rec,
      RecommendForHistoryInto(ctx, history, m, /*min_score=*/0.0,
                              kDefaultScoreBlockItems, options, &ws, &tile,
                              &selection));
  (void)rec;
  return selection;
}

}  // namespace ocular
