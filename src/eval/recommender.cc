#include "eval/recommender.h"

#include <algorithm>
#include <limits>

namespace ocular {

void Recommender::ScoreBlock(uint32_t u, uint32_t item_begin,
                             uint32_t item_end, std::span<double> out) const {
  for (uint32_t i = item_begin; i < item_end; ++i) {
    out[i - item_begin] = Score(u, i);
  }
}

namespace topm {

void MaskExcluded(std::span<double> scores, uint32_t first_item,
                  std::span<const uint32_t> exclude_sorted, size_t* ex) {
  const size_t n_ex = exclude_sorted.size();
  const uint32_t end = first_item + static_cast<uint32_t>(scores.size());
  while (*ex < n_ex && exclude_sorted[*ex] < first_item) ++*ex;
  for (; *ex < n_ex && exclude_sorted[*ex] < end; ++*ex) {
    scores[exclude_sorted[*ex] - first_item] =
        std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace topm

void TopMSelector::Begin(std::vector<ScoredItem>* selection, uint32_t m,
                         double min_score, size_t max_candidates) {
  buf_ = selection;
  m_ = m;
  // The buffer never needs to outgrow the candidate universe (+1 slot for
  // the unconditional store).
  cap_ = topm::SelectionCapacity(m, max_candidates);
  buf_->resize(cap_);
  cnt_ = 0;
  bar_ = min_score;
  keep_ties_ = 1;
}

/// One nth_element keeps the exact best m (unique under the Outranks total
/// order) and tightens the bar.
void TopMSelector::Reduce() {
  if (cnt_ <= m_) return;
  std::nth_element(buf_->begin(), buf_->begin() + (m_ - 1),
                   buf_->begin() + cnt_, topm::Outranks);
  cnt_ = m_;
  bar_ = (*buf_)[m_ - 1].score;
  keep_ties_ = 0;
}

void TopMSelector::ScanRun(const double* scores, uint32_t first_item,
                           uint32_t n) {
  ScoredItem* out = buf_->data();
  for (uint32_t q = 0; q < n; ++q) {
    const double s = scores[q];
    out[cnt_] = ScoredItem{first_item + q, s};
    cnt_ += static_cast<size_t>(s > bar_) |
            (keep_ties_ & static_cast<size_t>(s == bar_));
    if (cnt_ == cap_) {
      Reduce();
      out = buf_->data();
    }
  }
}

void TopMSelector::ScanSegment(std::span<const double> scores,
                               uint32_t first_item,
                               std::span<const uint32_t> exclude_sorted,
                               size_t* ex) {
  const size_t n_ex = exclude_sorted.size();
  const uint32_t len = static_cast<uint32_t>(scores.size());
  uint32_t j = 0;
  while (j < len) {
    while (*ex < n_ex && exclude_sorted[*ex] < first_item + j) ++*ex;
    uint32_t run_end = len;
    if (*ex < n_ex) {
      const uint32_t e = exclude_sorted[*ex];
      if (e == first_item + j) {
        ++j;
        ++*ex;
        continue;
      }
      if (e < first_item + len) run_end = e - first_item;
    }
    ScanRun(scores.data() + j, first_item + j, run_end - j);
    j = run_end;
  }
}

void TopMSelector::Finish() {
  Reduce();
  std::sort(buf_->begin(), buf_->begin() + cnt_, topm::Outranks);
  buf_->resize(cnt_);
}

void TopMSelector::FinishRaw(const Recommender& rec) {
  Reduce();
  for (size_t r = 0; r < cnt_; ++r) {
    (*buf_)[r].score = rec.ScoreFromRaw((*buf_)[r].score);
  }
  // The raw and public orders agree except on exact public-score ties;
  // re-sorting the survivors by the public order restores the public
  // tie-break within the kept set.
  std::sort(buf_->begin(), buf_->begin() + cnt_, topm::Outranks);
  buf_->resize(cnt_);
}

void TopMInto(std::span<const double> scores, uint32_t m,
              std::span<const uint32_t> exclude_sorted, double min_score,
              std::vector<ScoredItem>* selection) {
  selection->clear();
  if (m == 0) return;
  TopMSelector sel;
  sel.Begin(selection, m, min_score, scores.size());
  size_t ex = 0;
  sel.ScanSegment(scores, /*first_item=*/0, exclude_sorted, &ex);
  sel.Finish();
}

std::vector<ScoredItem> TopM(const std::vector<double>& scores, uint32_t m,
                             std::span<const uint32_t> exclude_sorted) {
  std::vector<ScoredItem> selection;
  TopMInto(scores, m, exclude_sorted,
           -std::numeric_limits<double>::infinity(), &selection);
  return selection;
}

void RecommendBlockedInto(const Recommender& rec, uint32_t u, uint32_t m,
                          std::span<const uint32_t> exclude_sorted,
                          double min_score, uint32_t block_items,
                          std::vector<double>* tile,
                          std::vector<ScoredItem>* selection) {
  selection->clear();
  if (m == 0) return;
  const uint32_t n = rec.num_items();
  if (block_items == 0) block_items = kDefaultScoreBlockItems;
  tile->resize(std::min<size_t>(block_items, n));
  // Unthresholded queries select on the cheap raw kernel and map only the
  // kept m values back to public scores; a finite min_score needs exact
  // public-score thresholding, so that path scores publicly throughout.
  const bool raw =
      min_score == -std::numeric_limits<double>::infinity();
  TopMSelector sel;
  sel.Begin(selection, m, min_score, n);
  size_t ex = 0;
  for (uint32_t b0 = 0; b0 < n; b0 += block_items) {
    const uint32_t b1 = std::min(n, b0 + block_items);
    const std::span<double> block(tile->data(), b1 - b0);
    if (raw) {
      rec.RawScoreBlock(u, b0, b1, block);
    } else {
      rec.ScoreBlock(u, b0, b1, block);
    }
    topm::MaskExcluded(block, b0, exclude_sorted, &ex);
    sel.ScanRun(block.data(), b0, b1 - b0);
  }
  if (raw) {
    sel.FinishRaw(rec);
  } else {
    sel.Finish();
  }
}

std::vector<ScoredItem> Recommender::Recommend(uint32_t u, uint32_t m,
                                               const CsrMatrix& exclude) const {
  std::span<const uint32_t> ex;
  if (u < exclude.num_rows()) ex = exclude.Row(u);
  std::vector<double> tile;
  std::vector<ScoredItem> selection;
  RecommendBlockedInto(*this, u, m, ex,
                       -std::numeric_limits<double>::infinity(),
                       kDefaultScoreBlockItems, &tile, &selection);
  return selection;
}

}  // namespace ocular
