#include "serving/batch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "parallel/partition.h"

namespace ocular {

namespace {

/// Users per serving tile. The bulk traversal runs item-block outer, users
/// inner, so a Vᵀ block row pulled into cache by one user's scoring pass
/// is reused by the next ~31 users before eviction — per-user streaming of
/// the whole item-factor matrix becomes per-tile streaming.
constexpr uint32_t kUserTileRows = 32;

/// Per-worker scratch of the tiled bulk path: one score row plus a
/// selector + selection buffer per tile slot. Reused across tiles, so the
/// steady state allocates only the per-user output lists.
struct BulkWorkspace {
  std::vector<double> row;
  std::vector<std::vector<ScoredItem>> lists;
  std::vector<TopMSelector> selectors;
  std::vector<size_t> cursors;   // per-slot exclusion cursor
  std::vector<uint8_t> active;   // slot serves a user this tile

  void Reserve(uint32_t m, uint32_t block_items, uint32_t num_items) {
    row.reserve(block_items);
    lists.resize(kUserTileRows);
    for (auto& list : lists) {
      list.reserve(topm::SelectionCapacity(m, num_items));
    }
    selectors.resize(kUserTileRows);
    cursors.resize(kUserTileRows);
    active.resize(kUserTileRows);
  }
};

/// Serves the user rows [lo, hi) through the tiled blocked engine into
/// `out` — the exact mode of the bulk path (candidate mode is served
/// per-user through ServeTopMCandidates instead).
void ServeRangeTiled(const Recommender& rec, const CsrMatrix& train,
                     const BatchOptions& options, BulkWorkspace* ws,
                     std::vector<std::vector<ScoredItem>>* out, size_t lo,
                     size_t hi) {
  const uint32_t n = rec.num_items();
  const uint32_t block_items = options.block_items == 0
                                   ? kDefaultScoreBlockItems
                                   : options.block_items;
  const double threshold =
      options.min_score > 0.0 ? options.min_score
                              : -std::numeric_limits<double>::infinity();
  // Unthresholded tiles select on the raw kernel (survivors mapped back in
  // FinishRaw); exact min_score thresholding needs public scores.
  const bool raw = options.min_score <= 0.0;
  ws->row.resize(std::min<size_t>(block_items, n));

  for (size_t t0 = lo; t0 < hi; t0 += kUserTileRows) {
    const size_t t1 = std::min<size_t>(hi, t0 + kUserTileRows);
    const uint32_t tile_users = static_cast<uint32_t>(t1 - t0);
    for (uint32_t k = 0; k < tile_users; ++k) {
      const uint32_t u = static_cast<uint32_t>(t0 + k);
      ws->active[k] =
          !(options.skip_cold_users && train.RowDegree(u) == 0);
      if (ws->active[k]) {
        ws->selectors[k].Begin(&ws->lists[k], options.m, threshold, n);
        ws->cursors[k] = 0;
      }
    }
    for (uint32_t b0 = 0; b0 < n; b0 += block_items) {
      const uint32_t b1 = std::min(n, b0 + block_items);
      const std::span<double> row(ws->row.data(), b1 - b0);
      for (uint32_t k = 0; k < tile_users; ++k) {
        if (!ws->active[k]) continue;
        const uint32_t u = static_cast<uint32_t>(t0 + k);
        if (raw) {
          rec.RawScoreBlock(u, b0, b1, row);
        } else {
          rec.ScoreBlock(u, b0, b1, row);
        }
        topm::MaskExcluded(row, b0, train.Row(u), &ws->cursors[k]);
        ws->selectors[k].ScanRun(row.data(), b0, b1 - b0);
      }
    }
    for (uint32_t k = 0; k < tile_users; ++k) {
      if (!ws->active[k]) continue;
      if (raw) {
        ws->selectors[k].FinishRaw(rec);
      } else {
        ws->selectors[k].Finish();
      }
      (*out)[t0 + k].assign(ws->lists[k].begin(), ws->lists[k].end());
    }
  }
}

}  // namespace

Result<BatchRecommendations> RecommendForAllUsers(const Recommender& rec,
                                                  const CsrMatrix& train,
                                                  const BatchOptions& options,
                                                  ThreadPool* pool) {
  if (options.m == 0) return Status::InvalidArgument("m must be positive");
  if (train.num_rows() != rec.num_users() ||
      train.num_cols() != rec.num_items()) {
    return Status::InvalidArgument(
        "training matrix shape does not match the recommender");
  }
  if (options.candidates != nullptr &&
      options.candidates->dims_per_user.size() != rec.num_users()) {
    return Status::InvalidArgument(
        "candidate index built for a different model");
  }
  BatchRecommendations out;
  out.recommendations.resize(rec.num_users());

  if (options.candidates != nullptr) {
    // Candidate mode: per-user pruned serving.
    ServeOptions serve;
    serve.m = options.m;
    serve.min_score = options.min_score;
    serve.block_items = options.block_items;
    const size_t max_candidates = options.candidates->max_candidate_items;
    auto serve_range = [&](size_t lo, size_t hi, ServeWorkspace* ws) {
      for (size_t row = lo; row < hi; ++row) {
        const uint32_t u = static_cast<uint32_t>(row);
        if (options.skip_cold_users && train.RowDegree(u) == 0) continue;
        const auto ranked = ServeTopMCandidates(
            rec, u, train.Row(u), serve, *options.candidates, ws);
        out.recommendations[u].assign(ranked.begin(), ranked.end());
      }
    };
    if (pool != nullptr) {
      const std::vector<std::pair<size_t, size_t>> ranges =
          BalancedRowRanges(train.row_ptr(), pool->num_threads());
      std::vector<ServeWorkspace> workspaces(pool->num_threads() + 1);
      for (ServeWorkspace& ws : workspaces) {
        ws.Reserve(serve.m, serve.block_items, max_candidates,
                   rec.num_items());
      }
      pool->ParallelForRanges(ranges, [&](size_t lo, size_t hi) {
        serve_range(lo, hi, &workspaces[ThreadPool::ScratchSlot(pool->num_threads())]);
      });
    } else {
      ServeWorkspace ws;
      ws.Reserve(serve.m, serve.block_items, max_candidates, rec.num_items());
      serve_range(0, rec.num_users(), &ws);
    }
  } else if (pool != nullptr) {
    // nnz-balanced ranges + one workspace per worker (+1 for an inline
    // caller), replacing the old uniform /*grain=*/4 chunking. Each worker
    // serves its ranges tile-by-tile; per-user results are independent of
    // the tiling, so serial and parallel outputs are bit-identical.
    const std::vector<std::pair<size_t, size_t>> ranges =
        BalancedRowRanges(train.row_ptr(), pool->num_threads());
    std::vector<BulkWorkspace> workspaces(pool->num_threads() + 1);
    for (BulkWorkspace& ws : workspaces) {
      ws.Reserve(options.m, options.block_items, rec.num_items());
    }
    pool->ParallelForRanges(ranges, [&](size_t lo, size_t hi) {
      ServeRangeTiled(rec, train, options,
                      &workspaces[ThreadPool::ScratchSlot(pool->num_threads())],
                      &out.recommendations, lo, hi);
    });
  } else {
    BulkWorkspace ws;
    ws.Reserve(options.m, options.block_items, rec.num_items());
    ServeRangeTiled(rec, train, options, &ws, &out.recommendations, 0,
                    rec.num_users());
  }

  for (const auto& list : out.recommendations) {
    if (!list.empty()) {
      ++out.users_scored;
      out.total_items += list.size();
    }
  }
  return out;
}

}  // namespace ocular
