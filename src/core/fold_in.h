#ifndef OCULAR_CORE_FOLD_IN_H_
#define OCULAR_CORE_FOLD_IN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/ocular_trainer.h"
#include "eval/recommender.h"
#include "sparse/packed_rows.h"

namespace ocular {

/// Fold-in inference: compute the affiliation vector of a NEW user from
/// their purchase history, holding the fitted item factors fixed.
///
/// This is the production-serving counterpart of training (in the paper's
/// B2B deployment a new client's history must be scorable without
/// retraining the whole model): the user block subproblem of Section IV-B
/// is solved for one row, by iterating the same projected-gradient step
/// the trainer uses until the block objective converges. With lambda > 0
/// the subproblem is strongly convex, so this converges to its unique
/// minimizer.
struct FoldInOptions {
  /// Projected-gradient iterations cap for the single-row solve.
  uint32_t max_steps = 200;
  /// Stop when the block objective's relative decrease falls below this.
  double tolerance = 1e-8;
};

/// Per-model fold-in state, built ONCE per published model generation and
/// shared (read-only) by every fold-in request against it: the item
/// factors in their one layout, Vᵀ, the Σ_i f_i column sums the single-row
/// solve needs, and the deterministic popularity ranking used as the
/// fallback for histories that carry no signal. The viewed factor memory
/// (an OcularModel's transposed copy or an mmapped ModelStore section)
/// must outlive the context.
struct FoldInContext {
  OcularConfig config;
  /// Item factors transposed, dims x n_i (dims == config.TotalDims()) —
  /// the serving-layout view the blocked affinity kernel streams, and the
  /// source a fold-in solve gathers its history's rows from.
  ConstMatrixView items_t;
  /// ColumnSums(items): Σ_i f_i, shared by every fold-in solve.
  std::vector<double> item_sums;
  /// Fallback ranking scores, length n_i: interaction counts when built
  /// from a training matrix, otherwise the expected affinity
  /// <Σ_u f_u, f_i>. Ranked with the engine's deterministic tie-break.
  std::vector<double> popularity;
  /// Backing storage for `items_t` when the caller has no transposed
  /// layout (contexts built from an OcularModel).
  DenseMatrix owned_items_t;

  uint32_t num_items() const { return items_t.cols(); }
  uint32_t dims() const { return items_t.rows(); }
};

/// Builds a context from borrowed factor views (e.g. the mmapped sections
/// of a ModelStore — zero copies). `popularity` (length items_t.cols()) is
/// the fallback ranking source; pass empty to derive the expected-affinity
/// ranking from `user_blocks`: the user factors as consecutive row blocks
/// in global row order (one per shard of a shardset), summed exactly as
/// one matrix would be. The item sums and that ranking are bit-identical
/// to the ones a row-major copy of the item factors would give.
Result<FoldInContext> MakeFoldInContext(
    std::span<const ConstMatrixView> user_blocks, ConstMatrixView items_t,
    const OcularConfig& config, std::span<const double> popularity = {});

/// Builds a context from an in-memory model (owns a transposed copy of the
/// item factors). The model must outlive the context.
Result<FoldInContext> MakeFoldInContext(const OcularModel& model,
                                        const OcularConfig& config,
                                        std::span<const double> popularity = {});

/// Statistics of one SanitizeHistory pass.
struct HistorySanitizeResult {
  /// Ids >= num_items removed (surfaced as a warning count in serving
  /// stats — silently scoring a phantom item would hide client bugs).
  size_t dropped_out_of_range = 0;
};

/// Normalizes a client-supplied history into the solver's contract: sorts
/// ascending, drops ids outside [0, num_items), and removes duplicates —
/// all in place, allocation-free. Wire input is untrusted; the strict
/// FoldInUser precondition (strictly ascending, in range) is an internal
/// invariant, not a reasonable client contract.
HistorySanitizeResult SanitizeHistory(std::vector<uint32_t>* history,
                                      uint32_t num_items);

/// Per-request fold-in scratch. After Reserve() (or one warm-up request of
/// maximal history length) repeated solves perform zero heap allocations.
struct FoldInWorkspace {
  std::vector<double> f;            ///< the folded user factor, dims
  std::vector<double> complement;   ///< Σ_{r=0} f_i scratch, dims
  std::vector<double> gathered;     ///< the history's item rows, row-major
  std::vector<uint32_t> positions;  ///< 0, 1, ...: rows of `gathered`
  internal::BlockWorkspace block;   ///< single-row solver scratch

  void Reserve(uint32_t dims, size_t max_history) {
    f.resize(dims);
    complement.resize(dims);
    gathered.reserve(size_t{dims} * max_history);
    positions.reserve(max_history);
    block.Reserve(dims, max_history);
  }
};

/// The coordinate of a user row that the bias extension pins at 1
/// (OcularConfig::use_biases), or -1 without biases.
inline int UserPinnedCoord(const OcularConfig& config) {
  return config.use_biases ? static_cast<int>(config.k) + 1 : -1;
}

/// The coordinate of an item row that the bias extension pins at 1, or -1.
inline int ItemPinnedCoord(const OcularConfig& config) {
  return config.use_biases ? static_cast<int>(config.k) : -1;
}

/// The single-row block solve of Section IV-B for either side of the
/// model: folds one row in against the fixed opposite factors `other`,
/// whose rows `neighbors` (strictly ascending, in range) are the row's
/// positives, with `other_sums` = Σ over every row of `other`'s side.
/// A user row passes the item factors and UserPinnedCoord; a new item
/// passes the user factors, Σ_u f_u, its buyers and ItemPinnedCoord (the
/// roles swapped). `pinned_coord` (-1 for none) is held at exactly 1. Result
/// in ws->f; an empty `neighbors` yields zeros, the pinned coordinate
/// at 1. Positives are weighted 1 under either variant, as for every
/// fold-in. The solve reads only the `neighbors` rows of `other`, so a
/// caller may pass a matrix of just those rows (neighbors 0, 1, ...)
/// and get the same doubles.
Status FoldInRowInto(ConstMatrixView other,
                     std::span<const double> other_sums,
                     std::span<const uint32_t> neighbors,
                     const OcularConfig& config, int pinned_coord,
                     const FoldInOptions& options, FoldInWorkspace* ws);

/// Allocation-free fold-in solve: computes f_u for the (sanitized:
/// strictly ascending, in-range) `history` into ws->f. The history's item
/// rows are gathered from ctx.items_t into ws->gathered, the same doubles
/// a row-major copy holds, and solved by FoldInRowInto. An empty history
/// yields the all-zeros vector; RecommendForHistoryInto turns that into
/// the popularity fallback.
Status FoldInUserInto(const FoldInContext& ctx,
                      std::span<const uint32_t> history,
                      const FoldInOptions& options, FoldInWorkspace* ws);

/// Computes f_u (length model.k()) for a user whose positive items are
/// `history` (ascending item ids). Items outside [0, num_items) are
/// rejected. An empty history yields the all-zeros vector (every score 0).
/// Convenience wrapper over FoldInUserInto with one-off context/scratch;
/// request-serving paths hold a FoldInContext + FoldInWorkspace instead.
Result<std::vector<double>> FoldInUser(const OcularModel& model,
                                       const OcularConfig& config,
                                       std::span<const uint32_t> history,
                                       const FoldInOptions& options = {});

/// The rows one live update refreshes, folded in against fixed factors:
/// the update algorithm of the serving daemon (serving/daemon.h).
struct FoldedUpdate {
  /// Items [ctx.num_items(), num_items), folded in first: each against
  /// the serving users that bought it and Σ_u f_u (the roles swapped).
  DenseMatrix new_items;
  /// Every user with an add and every new row, ascending.
  std::vector<uint32_t> users;
  /// Their folded rows, aligned with `users`: each against every item
  /// (new ones included), its history being its whole merged row.
  DenseMatrix user_rows;

  /// The folded row of user `u`, or an empty span when `u` was not
  /// refreshed.
  std::span<const double> UserRow(uint32_t u) const;
  /// Cell (i, c) of the grown item factors: Vᵀ for the items of `ctx`,
  /// `new_items` past them.
  double ItemCell(const FoldInContext& ctx, uint32_t i, uint32_t c) const {
    return i < ctx.num_items() ? ctx.items_t.At(c, i)
                               : new_items.At(i - ctx.num_items(), c);
  }
};

/// Folds in one update of the model `ctx` serves, whose user factors are
/// `user_blocks` in global row order (one block per shard). `merged` is
/// the interaction matrix with the update's `adds` merged in (at least
/// `num_users` rows, exactly `num_items` columns), packed as the daemon
/// holds it; only the rows the fold-in reads are decoded: the touched
/// users', and every serving user's when items are new. The model grows to
/// `num_users` x `num_items`; new rows without history are zero but for
/// the bias extension's pinned 1. New items need the users as one block.
/// Each user's history rows are gathered from Vᵀ and the new items, as
/// FoldInUserInto gathers them.
Result<FoldedUpdate> FoldInUpdate(
    const FoldInContext& ctx, std::span<const ConstMatrixView> user_blocks,
    const PackedRows& merged,
    std::span<const std::pair<uint32_t, uint32_t>> adds, uint32_t num_users,
    uint32_t num_items, const FoldInOptions& options = {});

/// P[r_ui = 1] for a folded-in user vector.
double ScoreFoldedUser(const OcularModel& model,
                       std::span<const double> user_factor, uint32_t item);

/// Adapter presenting one folded-in user factor as a single-user
/// Recommender, so the fold-in serving path runs through the SAME blocked
/// engine (RecommendBlockedInto / ServeTopM) as every other serve path:
/// raw ranking on the affinity <f, f_i> via the blocked kernel, the
/// 1 - e^{-x} probability map applied only to the kept survivors.
/// Bit-identical to the per-item ScoreFoldedUser loop (vec::AffinityBlock
/// guarantees per-item dot equality).
class FoldedUserRecommender : public Recommender {
 public:
  /// Both the context and the factor span must outlive the adapter.
  FoldedUserRecommender(const FoldInContext* ctx, std::span<const double> f)
      : ctx_(ctx), f_(f) {}

  std::string name() const override { return "OCuLaR-foldin"; }
  Status Fit(const CsrMatrix&) override {
    return Status::InvalidArgument("folded-in users are not trainable");
  }
  double Score(uint32_t u, uint32_t i) const override;
  void ScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                  std::span<double> out) const override;
  void RawScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                     std::span<double> out) const override;
  double ScoreFromRaw(double raw) const override;
  uint32_t num_items() const override { return ctx_->num_items(); }
  uint32_t num_users() const override { return 1; }

 private:
  const FoldInContext* ctx_;
  std::span<const double> f_;
};

/// One history-based recommendation, best-first in the bound selection
/// buffer (valid until the scratch is reused).
struct HistoryRecommendation {
  std::span<const ScoredItem> items;
  /// False when the history carried no signal (empty after sanitization,
  /// or folded to the all-zeros factor) and the deterministic popularity
  /// fallback ranked instead — an all-zero score vector would otherwise
  /// return an arbitrary tie-ordered prefix of the catalog.
  bool folded = false;
};

/// Top-`m` recommendations for a SANITIZED history through the blocked
/// engine: fold the user in (ws->f), then rank every item not in `history`
/// exactly like ServeTopM does for stored users. `min_score` follows the
/// ServeOptions convention (0 = unfiltered; ignored by the popularity
/// fallback, whose scores are counts, not probabilities). `tile` and
/// `selection` are the caller's serve scratch (a ServeWorkspace's members
/// in the daemon). Allocation-free at steady state.
Result<HistoryRecommendation> RecommendForHistoryInto(
    const FoldInContext& ctx, std::span<const uint32_t> history, uint32_t m,
    double min_score, uint32_t block_items, const FoldInOptions& options,
    FoldInWorkspace* ws, std::vector<double>* tile,
    std::vector<ScoredItem>* selection);

/// Top-M recommendations for a purchase history: folds the user in, then
/// ranks all items not in `history`. Convenience wrapper over
/// RecommendForHistoryInto (one-off context and scratch) — same blocked
/// engine, same popularity fallback for empty histories.
Result<std::vector<ScoredItem>> RecommendForHistory(
    const OcularModel& model, const OcularConfig& config,
    std::span<const uint32_t> history, uint32_t m,
    const FoldInOptions& options = {});

}  // namespace ocular

#endif  // OCULAR_CORE_FOLD_IN_H_
