#include "core/fold_in.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sparse/linalg.h"

namespace ocular {

namespace {

/// Σ_i f_i read from the K x n_i layout. Row c of `items_t` is column c
/// of the row-major items, so each sum adds the same terms in the same
/// ascending item order as ColumnSums(items) — bit-identical.
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

/// Checks that a solve's neighbors are strictly ascending and below
/// `rows`, before any of their rows is read.
Status CheckNeighbors(std::span<const uint32_t> neighbors, uint32_t rows) {
  for (size_t n = 0; n < neighbors.size(); ++n) {
    if (neighbors[n] >= rows) {
      return Status::InvalidArgument("history item out of range: " +
                                     std::to_string(neighbors[n]));
    }
    if (n > 0 && neighbors[n] <= neighbors[n - 1]) {
      return Status::InvalidArgument("history must be strictly ascending");
    }
  }
  return Status::OK();
}

/// Gathers the item rows `history` (strictly ascending, each below
/// `num_items`) into ws->gathered, one row per entry, reading cell (i, c)
/// as `cell(i, c)` one item-factor column at a time, and numbers them
/// 0, 1, ... in ws->positions: the neighbors FoldInRowInto reads them at.
/// The solve reads only its neighbors' rows, so it gives the doubles it
/// would on the whole matrix. Allocation-free once ws is reserved.
template <typename Cell>
Result<ConstMatrixView> GatherHistoryRows(std::span<const uint32_t> history,
                                          uint32_t num_items, uint32_t dims,
                                          const Cell& cell,
                                          FoldInWorkspace* ws) {
  OCULAR_RETURN_IF_ERROR(CheckNeighbors(history, num_items));
  const auto length = static_cast<uint32_t>(history.size());
  ws->gathered.resize(size_t{length} * dims);
  ws->positions.resize(length);
  for (uint32_t h = 0; h < length; ++h) ws->positions[h] = h;
  for (uint32_t c = 0; c < dims; ++c) {
    for (uint32_t h = 0; h < length; ++h) {
      ws->gathered[size_t{h} * dims + c] = cell(history[h], c);
    }
  }
  return ConstMatrixView(ws->gathered.data(), length, dims);
}

}  // namespace

Result<FoldInContext> MakeFoldInContext(
    std::span<const ConstMatrixView> user_blocks, ConstMatrixView items_t,
    const OcularConfig& config, std::span<const double> popularity) {
  OCULAR_RETURN_IF_ERROR(config.Validate());
  if (config.TotalDims() != items_t.rows()) {
    return Status::InvalidArgument("config dimensions do not match model");
  }
  if (!popularity.empty() && popularity.size() != items_t.cols()) {
    return Status::InvalidArgument(
        "popularity must have one entry per item");
  }
  for (const ConstMatrixView& block : user_blocks) {
    if (popularity.empty() && block.cols() != items_t.rows()) {
      return Status::InvalidArgument(
          "user factors must match item dimensions (or pass popularity)");
    }
  }
  FoldInContext ctx;
  ctx.config = config;
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
  OCULAR_ASSIGN_OR_RETURN(
      FoldInContext ctx,
      MakeFoldInContext({&users, 1}, items_t, config, popularity));
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

Status FoldInRowInto(ConstMatrixView other,
                     std::span<const double> other_sums,
                     std::span<const uint32_t> neighbors,
                     const OcularConfig& config, int pinned_coord,
                     const FoldInOptions& options, FoldInWorkspace* ws) {
  OCULAR_RETURN_IF_ERROR(CheckNeighbors(neighbors, other.rows()));
  const uint32_t dims = other.cols();
  ws->f.assign(dims, 0.0);
  std::span<double> f(ws->f);
  if (neighbors.empty()) {
    if (pinned_coord >= 0) f[pinned_coord] = 1.0;
    return Status::OK();
  }

  // Start from the mean of the positives' factors — a feasible, informed
  // initial point.
  for (uint32_t i : neighbors) {
    auto row = other.Row(i);
    for (uint32_t c = 0; c < dims; ++c) {
      f[c] += row[c] / static_cast<double>(neighbors.size());
    }
  }
  if (pinned_coord >= 0) f[pinned_coord] = 1.0;

  ws->complement.assign(other_sums.begin(), other_sums.end());
  for (uint32_t i : neighbors) {
    auto row = other.Row(i);
    for (uint32_t c = 0; c < dims; ++c) ws->complement[c] -= row[c];
  }

  // The workspace is reused across requests: grow the solver scratch if
  // this history is the longest seen (no-op once warm), and invalidate the
  // dot cache left behind by the previous solve.
  if (ws->block.dots.size() < neighbors.size()) {
    ws->block.Reserve(dims, neighbors.size());
  }
  ws->block.Invalidate();

  // The positives never change during the solve, so the dot cache stays
  // warm across steps and each step's objective comes out of the line
  // search for free.
  double prev = internal::BlockObjective(f, neighbors, other, ws->complement,
                                         config.lambda, 1.0, {});
  // Accepted backtrack exponent (see ProjectedGradientStep's step_hint).
  double step_hint = 0.0;
  for (uint32_t step = 0; step < options.max_steps; ++step) {
    const internal::BlockStepResult res = internal::ProjectedGradientStep(
        f, neighbors, other, other_sums, config.lambda, 1.0, {}, config,
        pinned_coord, &ws->block, &step_hint);
    const double q = res.objective;
    const double rel = (prev - q) / std::max(std::abs(prev), 1e-12);
    if (rel < options.tolerance) break;
    prev = q;
  }
  return Status::OK();
}

Status FoldInUserInto(const FoldInContext& ctx,
                      std::span<const uint32_t> history,
                      const FoldInOptions& options, FoldInWorkspace* ws) {
  if (history.empty()) {
    ws->f.assign(ctx.dims(), 0.0);
    return Status::OK();
  }
  OCULAR_ASSIGN_OR_RETURN(
      const ConstMatrixView rows,
      GatherHistoryRows(
          history, ctx.num_items(), ctx.dims(),
          [&ctx](uint32_t i, uint32_t c) { return ctx.items_t.At(c, i); },
          ws));
  return FoldInRowInto(rows, ctx.item_sums, ws->positions, ctx.config,
                       UserPinnedCoord(ctx.config), options, ws);
}

Result<std::vector<double>> FoldInUser(const OcularModel& model,
                                       const OcularConfig& config,
                                       std::span<const uint32_t> history,
                                       const FoldInOptions& options) {
  OCULAR_RETURN_IF_ERROR(config.Validate());
  if (config.TotalDims() != model.k()) {
    return Status::InvalidArgument("config dimensions do not match model");
  }
  FoldInWorkspace ws;
  ws.Reserve(model.k(), history.size());
  if (history.empty()) return std::move(ws.f);
  // The model's own rows: the solve needs no context, transposed copy or
  // popularity ranking.
  const ConstMatrixView items = model.item_factors();
  OCULAR_RETURN_IF_ERROR(FoldInRowInto(items, ColumnSums(items), history,
                                       config, UserPinnedCoord(config),
                                       options, &ws));
  return std::move(ws.f);
}

std::span<const double> FoldedUpdate::UserRow(uint32_t u) const {
  const auto it = std::lower_bound(users.begin(), users.end(), u);
  if (it == users.end() || *it != u) return {};
  return user_rows.Row(static_cast<uint32_t>(it - users.begin()));
}

Result<FoldedUpdate> FoldInUpdate(
    const FoldInContext& ctx, std::span<const ConstMatrixView> user_blocks,
    const PackedRows& merged,
    std::span<const std::pair<uint32_t, uint32_t>> adds, uint32_t num_users,
    uint32_t num_items, const FoldInOptions& options) {
  const uint32_t old_items = ctx.num_items();
  const uint32_t dims = ctx.dims();
  uint32_t old_users = 0;
  for (const ConstMatrixView& block : user_blocks) old_users += block.rows();
  if (num_users < old_users || num_items < old_items ||
      merged.num_rows() < num_users || merged.num_cols() != num_items) {
    return Status::InvalidArgument(
        "update shape does not match the model and the merged matrix");
  }
  if (num_items > old_items && user_blocks.size() != 1) {
    return Status::InvalidArgument(
        "new items are folded in against the users as one block");
  }
  for (auto [u, i] : adds) {
    if (u >= num_users || i >= num_items) {
      return Status::InvalidArgument("add (" + std::to_string(u) + ", " +
                                     std::to_string(i) +
                                     ") is outside the update's shape");
    }
  }
  FoldedUpdate out;
  FoldInWorkspace ws;
  std::vector<uint32_t> row_ids;  // the decoded row being read

  // New items first, against the serving users and Σ_u f_u: their buyers
  // are the merged column's serving users (new users have no factors yet).
  out.new_items = DenseMatrix(num_items - old_items, dims);
  std::vector<double> item_sums = ctx.item_sums;
  if (num_items > old_items) {
    const ConstMatrixView users = user_blocks.front();
    const std::vector<double> user_sums = ColumnSums(users);
    std::vector<std::pair<uint32_t, uint32_t>> bought;  // (item, user)
    for (uint32_t u = 0; u < old_users; ++u) {
      const std::span<const uint32_t> row = merged.DecodeRow(u, &row_ids);
      for (auto i = std::lower_bound(row.begin(), row.end(), old_items);
           i != row.end(); ++i) {
        bought.emplace_back(*i, u);
      }
    }
    std::sort(bought.begin(), bought.end());
    std::vector<uint32_t> buyers;
    for (uint32_t i = old_items, n = 0; i < num_items; ++i) {
      buyers.clear();
      for (; n < bought.size() && bought[n].first == i; ++n) {
        buyers.push_back(bought[n].second);
      }
      OCULAR_RETURN_IF_ERROR(FoldInRowInto(users, user_sums, buyers,
                                           ctx.config,
                                           ItemPinnedCoord(ctx.config),
                                           options, &ws));
      std::copy(ws.f.begin(), ws.f.end(),
                out.new_items.Row(i - old_items).begin());
      // Σ_i f_i continued in ascending item order, as ColumnSums of the
      // grown matrix would add it.
      for (uint32_t c = 0; c < dims; ++c) item_sums[c] += ws.f[c];
    }
  }

  // Then every touched user and every new row, each against its history's
  // rows gathered from Vᵀ and the new items.
  for (auto [u, i] : adds) out.users.push_back(u);
  for (uint32_t u = old_users; u < num_users; ++u) out.users.push_back(u);
  std::sort(out.users.begin(), out.users.end());
  out.users.erase(std::unique(out.users.begin(), out.users.end()),
                  out.users.end());
  out.user_rows = DenseMatrix(static_cast<uint32_t>(out.users.size()), dims);
  const auto item_cell = [&out, &ctx](uint32_t i, uint32_t c) {
    return out.ItemCell(ctx, i, c);
  };
  for (uint32_t n = 0; n < out.users.size(); ++n) {
    const std::span<const uint32_t> history =
        merged.DecodeRow(out.users[n], &row_ids);
    OCULAR_ASSIGN_OR_RETURN(
        const ConstMatrixView rows,
        GatherHistoryRows(history, num_items, dims, item_cell, &ws));
    OCULAR_RETURN_IF_ERROR(FoldInRowInto(rows, item_sums, ws.positions,
                                         ctx.config,
                                         UserPinnedCoord(ctx.config),
                                         options, &ws));
    std::copy(ws.f.begin(), ws.f.end(), out.user_rows.Row(n).begin());
  }
  return out;
}

double ScoreFoldedUser(const OcularModel& model,
                       std::span<const double> user_factor, uint32_t item) {
  return -std::expm1(-vec::Dot(user_factor, model.item_factors().Row(item)));
}

double FoldedUserRecommender::Score(uint32_t u, uint32_t i) const {
  // Column i of Vᵀ, summed in ascending c as vec::Dot sums a row.
  double raw = 0.0;
  RawScoreBlock(u, i, i + 1, {&raw, 1});
  return ScoreFromRaw(raw);
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
