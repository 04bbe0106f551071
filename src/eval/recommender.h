#ifndef OCULAR_EVAL_RECOMMENDER_H_
#define OCULAR_EVAL_RECOMMENDER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "sparse/csr.h"

namespace ocular {

/// An item with a relevance score, as returned by Recommend().
struct ScoredItem {
  uint32_t item = 0;
  double score = 0.0;

  friend bool operator==(const ScoredItem& a, const ScoredItem& b) {
    return a.item == b.item && a.score == b.score;
  }
};

/// Default number of items per scoring tile: 4096 doubles = 32 KiB, sized
/// so the tile stays L1/L2-resident across the K accumulation passes of
/// the factor-model ScoreBlock kernels.
inline constexpr uint32_t kDefaultScoreBlockItems = 4096;

/// Abstract one-class recommender. All algorithms in the library (OCuLaR,
/// R-OCuLaR, wALS, iALS, BPR, user/item kNN, popularity, coclust)
/// implement this interface, which is what the evaluation harness, the
/// serving engine and the benchmark drivers consume.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Short display name for report tables ("OCuLaR", "wALS", ...).
  virtual std::string name() const = 0;

  /// Trains on a binary interaction matrix (rows = users, cols = items).
  virtual Status Fit(const CsrMatrix& interactions) = 0;

  /// Relevance score of item `i` for user `u`; higher means more relevant.
  /// Only valid after a successful Fit(). Scores need not be probabilities;
  /// only their per-user ordering matters to the evaluator.
  virtual double Score(uint32_t u, uint32_t i) const = 0;

  /// Scores the contiguous item block [item_begin, item_end) for `u` into
  /// `out` (out.size() == item_end - item_begin; out[j] must equal
  /// Score(u, item_begin + j) to 1e-12 relative). This is the bulk-serving
  /// hot path: the default loops over Score(), subclasses override it with
  /// tight block kernels (tiled factor products, sparse accumulation) that
  /// the compiler can vectorize.
  virtual void ScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                          std::span<double> out) const;

  /// Raw ranking kernel: like ScoreBlock but may fill `out` with any
  /// strictly-increasing transform of Score (cheaper to compute), to be
  /// mapped back through ScoreFromRaw for the values that are actually
  /// kept. OCuLaR-family models rank on the affinity <f_u, f_i> and apply
  /// the 1 - e^{-x} probability map only to the top-m survivors, skipping
  /// the elementwise expm1 over the whole catalog. Selecting on raw scores
  /// ranks identically to the public Score ranking wherever public scores
  /// differ (rounding is monotone); where the map collapses distinct raw
  /// values onto the SAME public double (e.g. saturated probabilities,
  /// affinity > ~36.7), the kept set may pick a different — equally
  /// scored — member of that tie group than the public path's lower-index
  /// rule. The default is ScoreBlock itself.
  virtual void RawScoreBlock(uint32_t u, uint32_t item_begin,
                             uint32_t item_end, std::span<double> out) const {
    ScoreBlock(u, item_begin, item_end, out);
  }

  /// Maps one RawScoreBlock value to the public Score value. Must be a
  /// (weakly) monotone non-decreasing function; identity by default.
  virtual double ScoreFromRaw(double raw) const { return raw; }

  /// Top-`m` items for `u`, highest score first, excluding the stored
  /// entries of `exclude` (pass the training matrix so only unknowns are
  /// recommended, per Section IV-C). The default implementation scores all
  /// items through ScoreBlock; subclasses may override with something
  /// faster.
  virtual std::vector<ScoredItem> Recommend(uint32_t u, uint32_t m,
                                            const CsrMatrix& exclude) const;

  /// Number of items the recommender was fitted on.
  virtual uint32_t num_items() const = 0;
  /// Number of users the recommender was fitted on.
  virtual uint32_t num_users() const = 0;
};

namespace topm {

// Building blocks of bounded top-M selection, shared by TopM, the blocked
// ranking primitive below, and the serving engine's candidate mode. The
// heap is a min-heap of the current best m: heap.front() is the weakest
// kept item, and Outranks is the "a is better than b" order (higher score
// wins; equal scores break toward the lower index, matching a stable full
// sort).

inline bool Outranks(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// Considers one candidate for the bounded best-m heap. Candidates scoring
/// below `min_score` are rejected before any heap work (pass -infinity for
/// unthresholded selection); a full heap rejects candidates that do not
/// outrank its weakest member. Allocation-free once heap capacity >= m.
inline void Consider(std::vector<ScoredItem>& heap, uint32_t m,
                     double min_score, ScoredItem cand) {
  if (cand.score < min_score) return;
  if (heap.size() < m) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), Outranks);
  } else if (!heap.empty() && Outranks(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), Outranks);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), Outranks);
  }
}

/// Converts the selection heap into best-first order (in place).
inline void SortBestFirst(std::vector<ScoredItem>& heap) {
  std::sort_heap(heap.begin(), heap.end(), Outranks);
}

/// Capacity of the filter-and-reduce selection buffer used by
/// TopMSelector for a top-m query: survivors above the bar are appended
/// (two stores), and only when the buffer fills does one O(buffer)
/// nth_element keep the best m and raise the bar. Workspaces that want
/// allocation-free steady state reserve this much.
inline size_t SelectionCapacity(uint32_t m) {
  return std::max<size_t>(4 * static_cast<size_t>(m), 64);
}

/// SelectionCapacity(m) for a candidate universe of `max_candidates`
/// items: the buffer never needs more than one slot past the universe, so
/// an m past the catalog costs no more than the catalog. TopMSelector::Begin
/// sizes the buffer to this, and workspaces reserve it.
inline size_t SelectionCapacity(uint32_t m, size_t max_candidates) {
  return std::min(SelectionCapacity(m), max_candidates + 1);
}

/// Overwrites the scores of excluded items within [first_item, first_item
/// + scores.size()) with quiet NaN, which no selection bar ever passes —
/// so a subsequent TopMSelector::ScanRun drops them without per-item
/// exclusion tests (the exclusion pattern is dense exactly where scores
/// are interesting, making per-item tests the scan's dominant cost). `*ex`
/// is the caller's monotone cursor into exclude_sorted.
void MaskExcluded(std::span<double> scores, uint32_t first_item,
                  std::span<const uint32_t> exclude_sorted, size_t* ex);

}  // namespace topm

class Recommender;

/// Streaming bounded top-m selection over candidates arriving in
/// ascending item order — the filter-and-reduce core of every blocked
/// ranking path. Everything above the running bar is appended to a bound
/// buffer with an always-store + conditional-increment (no data-dependent
/// branch, so bunched competitive scores cost no mispredictions); when the
/// buffer fills, one O(buffer) nth_element keeps the exact best m and
/// raises the bar to the m-th best score. Ascending arrival makes the
/// strict `s <= bar` skip exact: a later candidate tying the bar loses the
/// index tie-break against every kept item. Before the first reduce the
/// bar is the INCLUSIVE min_score entry threshold.
class TopMSelector {
 public:
  /// Binds the caller's selection buffer, resized to
  /// topm::SelectionCapacity(m, max_candidates); reserve that much for
  /// allocation-free reuse.
  void Begin(std::vector<ScoredItem>* selection, uint32_t m,
             double min_score, size_t max_candidates);

  /// Scans an exclusion-free run of contiguous scores; scores[q] belongs
  /// to item first_item + q.
  void ScanRun(const double* scores, uint32_t first_item, uint32_t n);

  /// Splits one score segment at its exclusions (ascending ids; *ex is the
  /// caller's monotone cursor into exclude_sorted) and scans the runs.
  void ScanSegment(std::span<const double> scores, uint32_t first_item,
                   std::span<const uint32_t> exclude_sorted, size_t* ex);

  /// Trims to the exact top-m, best-first, in the bound buffer. Unique
  /// under the (score desc, item asc) total order.
  void Finish();

  /// Finish for RawScoreBlock scans: maps the kept raw scores through
  /// rec.ScoreFromRaw, then orders by the (public score desc, item asc)
  /// total order. Matches the public-score path's final list except where
  /// ScoreFromRaw collapses distinct raw values to one public double at
  /// the selection boundary — then an equally-scored tie member may
  /// differ (see RawScoreBlock).
  void FinishRaw(const Recommender& rec);

 private:
  void Reduce();

  std::vector<ScoredItem>* buf_ = nullptr;
  size_t cnt_ = 0;
  size_t cap_ = 0;
  uint32_t m_ = 0;
  double bar_ = 0.0;
  size_t keep_ties_ = 1;  // 1 until the first reduce (bar == min_score)
};

/// Core of TopM: selects the top-`m` entries of `scores` into the
/// caller-provided `selection` buffer (cleared, then left best-first),
/// excluding the indices in `exclude_sorted` (ascending) and rejecting
/// scores below `min_score` during selection (pass -infinity for no
/// threshold). Reuses the buffer's capacity — with
/// topm::SelectionCapacity(m) reserved, steady-state callers allocate
/// nothing.
void TopMInto(std::span<const double> scores, uint32_t m,
              std::span<const uint32_t> exclude_sorted, double min_score,
              std::vector<ScoredItem>* selection);

/// Selects the top-`m` entries of `scores` (index, score), excluding the
/// indices present in `exclude_sorted` (ascending). Deterministic
/// tie-break: lower index wins, matching a stable full sort. Thin wrapper
/// over TopMInto with a fresh heap and no score threshold.
std::vector<ScoredItem> TopM(const std::vector<double>& scores, uint32_t m,
                             std::span<const uint32_t> exclude_sorted);

/// Blocked per-user ranking primitive: scores all items of `rec` for `u`
/// in tiles of `block_items` via ScoreBlock and selects the top-m with
/// threshold-pruned filter-and-reduce selection. `tile` and `selection`
/// are caller scratch (resized/cleared here, capacity reused); on return
/// *selection holds the ranking best-first. This is the engine under
/// Recommend(), the serving batch path and the ranking evaluators.
void RecommendBlockedInto(const Recommender& rec, uint32_t u, uint32_t m,
                          std::span<const uint32_t> exclude_sorted,
                          double min_score, uint32_t block_items,
                          std::vector<double>* tile,
                          std::vector<ScoredItem>* selection);

}  // namespace ocular

#endif  // OCULAR_EVAL_RECOMMENDER_H_
