#ifndef OCULAR_SERVING_SCORE_ENGINE_H_
#define OCULAR_SERVING_SCORE_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/ocular_model.h"
#include "eval/recommender.h"
#include "sparse/csr.h"

namespace ocular {

/// \file
/// \brief The per-user blocked scoring engine: allocation-free top-M
/// serving through Recommender::ScoreBlock, with optional co-cluster
/// candidate pruning. This is the hot path under ServeTopM, the batch
/// generator (serving/batch.h) and the serving daemon (serving/daemon.h).

/// \brief Options of the per-user blocked scoring engine.
struct ServeOptions {
  /// Recommendations per user.
  uint32_t m = 50;
  /// Drop items scoring below this *during selection* (0 = keep
  /// everything, matching the historical post-ranking filter: only items
  /// with score >= min_score survive). Pushing the floor into the heap
  /// insert means rejected items never touch the heap.
  double min_score = 0.0;
  /// Items per scoring tile. The default keeps the tile L1/L2-resident
  /// across the K accumulation passes of the factor-model kernels.
  uint32_t block_items = kDefaultScoreBlockItems;
};

/// \brief Per-thread reusable serving scratch: the score tile and the
/// bounded top-M selection buffer. After a warm-up call sized every
/// buffer, serving a user performs zero heap allocations (enforced by the
/// operator-new hook test in tests/score_engine_test.cpp).
struct ServeWorkspace {
  std::vector<double> tile;           ///< score tile, block_items doubles
  std::vector<ScoredItem> selection;  ///< bounded best-m selection buffer
  std::vector<uint32_t> candidates;   ///< gathered ids (candidate mode)

  /// \brief Pre-sizes every buffer so subsequent serves never reallocate.
  /// The selection buffer is bounded by the items a serve can rank:
  /// `max_candidates` in candidate mode, else the catalog of `num_items`
  /// (pass it whenever m comes from a client: the default bounds nothing).
  void Reserve(uint32_t m, uint32_t block_items, size_t max_candidates = 0,
               uint32_t num_items = UINT32_MAX) {
    tile.reserve(block_items);
    selection.reserve(topm::SelectionCapacity(
        m, max_candidates > 0 ? max_candidates : num_items));
    candidates.reserve(max_candidates);
  }
};

/// \brief Membership rule of the co-cluster candidate index.
///
/// A row (user or item) belongs to co-cluster c when its factor entry
/// clears the ABSOLUTE floor (`threshold`) or — when `relative` > 0 —
/// the RELATIVE floor `relative * max_entry(row)`. The absolute rule
/// alone degrades as K grows: with the same affinity mass spread over
/// more dimensions, every entry shrinks and rows fall out of every
/// co-cluster (measured on the two-block serve bench: overlap@50 of 0.25
/// at K=50 under the 0.6 absolute rule). The relative rule tracks each
/// row's own scale, so multi-cluster memberships survive at any K.
struct CandidateIndexOptions {
  /// Absolute factor-entry floor: an entry STRICTLY above it is a member
  /// (the historical `>` rule; ignored when <= 0 and `relative` is set).
  double threshold = 0.6;
  /// Relative floor as a fraction of the row's largest entry, in (0, 1]:
  /// an entry at or above `relative * row_max` is a member (`>=`, so the
  /// row's maximal entry always admits itself at 1.0). 0 disables the
  /// relative rule (absolute-only, the historical behavior).
  double relative = 0.0;
  /// Factor dimensions considered, like CoClusterOptions::max_dims
  /// (0 = all; pass config.k for models trained with use_biases).
  uint32_t max_dims = 0;
};

/// \brief OCuLaR-specific candidate pruning index (Section IV-C: a user is
/// only plausibly interested in items it shares a co-cluster with).
/// Dimension c is a co-cluster; membership per CandidateIndexOptions.
/// Candidate serving scores only the union of the user's co-clusters'
/// items instead of the whole catalog — approximate (items outside every
/// shared co-cluster are unreachable) but much cheaper on sparse
/// affiliation structures; CandidateOverlapAtM reports the
/// exact-vs-candidate agreement.
struct CoClusterCandidateIndex {
  /// The membership rule the index was built with.
  CandidateIndexOptions options;
  /// items_per_dim[c] = items affiliated with co-cluster c, ascending.
  std::vector<std::vector<uint32_t>> items_per_dim;
  /// dims_per_user[u] = co-clusters user u belongs to, ascending.
  std::vector<std::vector<uint32_t>> dims_per_user;
  /// Upper bound on one user's gathered candidate count (before dedup) —
  /// what ServeWorkspace::Reserve needs for allocation-free gathering.
  size_t max_candidate_items = 0;
};

/// \brief Builds the candidate index from a fitted model under the given
/// membership rule. Fails unless at least one of
/// `options.threshold` > 0 / `options.relative` in (0, 1] holds.
Result<CoClusterCandidateIndex> BuildCoClusterCandidateIndex(
    const OcularModel& model, const CandidateIndexOptions& options);

/// \brief Absolute-threshold convenience overload (the historical
/// signature): membership = factor entry > `threshold`.
Result<CoClusterCandidateIndex> BuildCoClusterCandidateIndex(
    const OcularModel& model, double threshold = 0.6, uint32_t max_dims = 0);

/// \brief Exact blocked serve: the top-m items for `u` (excluding
/// `exclude_sorted`, ascending ids), scored tile-by-tile through
/// Recommender::ScoreBlock with threshold-pruned heap selection. Returns a
/// best-first span into ws->selection, valid until the workspace is
/// reused.
std::span<const ScoredItem> ServeTopM(const Recommender& rec, uint32_t u,
                                      std::span<const uint32_t> exclude_sorted,
                                      const ServeOptions& options,
                                      ServeWorkspace* ws);

/// \brief Candidate-mode serve: like ServeTopM but scores only the items
/// co-clustered with `u` under `index`. Users outside every co-cluster get
/// an empty list.
std::span<const ScoredItem> ServeTopMCandidates(
    const Recommender& rec, uint32_t u,
    std::span<const uint32_t> exclude_sorted, const ServeOptions& options,
    const CoClusterCandidateIndex& index, ServeWorkspace* ws);

/// \brief Mean per-user overlap |exact top-m ∩ candidate top-m| / |exact
/// top-m| over users with a non-empty exact list (excluding each user's
/// `train` row) — the exact-vs-candidate recall report for a pruning
/// threshold.
Result<double> CandidateOverlapAtM(const Recommender& rec,
                                   const CsrMatrix& train,
                                   const CoClusterCandidateIndex& index,
                                   const ServeOptions& options);

}  // namespace ocular

#endif  // OCULAR_SERVING_SCORE_ENGINE_H_
