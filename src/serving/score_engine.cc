#include "serving/score_engine.h"

#include <algorithm>
#include <limits>

namespace ocular {

namespace {

/// Maps the public min_score semantics (0 = unfiltered) onto the selection
/// threshold of the topm:: helpers.
double SelectionThreshold(const ServeOptions& options) {
  return options.min_score > 0.0
             ? options.min_score
             : -std::numeric_limits<double>::infinity();
}

}  // namespace

namespace {

/// Per-row membership rule: STRICTLY above the absolute threshold (the
/// historical `>` semantics of the threshold-only overload), or at/above
/// the relative floor `relative * row_max` (`>=`, so a row's maximal
/// entry always admits itself at relative = 1). Returns the pair
/// (absolute cutoff or +inf, relative cutoff or +inf); a row whose
/// largest entry is ~0 belongs nowhere under either rule.
struct MembershipCutoffs {
  double absolute = std::numeric_limits<double>::infinity();
  double relative = std::numeric_limits<double>::infinity();

  bool Admits(double v) const { return v > absolute || v >= relative; }
};

MembershipCutoffs RowCutoffs(std::span<const double> row,
                             const CandidateIndexOptions& options) {
  MembershipCutoffs cut;
  if (options.threshold > 0.0) cut.absolute = options.threshold;
  if (options.relative > 0.0) {
    double row_max = 0.0;
    for (double v : row) row_max = std::max(row_max, v);
    if (row_max > 0.0) cut.relative = options.relative * row_max;
  }
  return cut;
}

}  // namespace

Result<CoClusterCandidateIndex> BuildCoClusterCandidateIndex(
    const OcularModel& model, const CandidateIndexOptions& options) {
  if (options.threshold <= 0.0 && options.relative <= 0.0) {
    return Status::InvalidArgument(
        "candidate membership needs a positive absolute threshold or a "
        "relative fraction");
  }
  if (options.relative < 0.0 || options.relative > 1.0) {
    return Status::InvalidArgument(
        "candidate relative fraction must be in (0, 1]");
  }
  const uint32_t dims = options.max_dims == 0
                            ? model.k()
                            : std::min(options.max_dims, model.k());
  CoClusterCandidateIndex index;
  index.options = options;
  index.items_per_dim.resize(dims);
  index.dims_per_user.resize(model.num_users());
  const DenseMatrix& fi = model.item_factors();
  for (uint32_t i = 0; i < fi.rows(); ++i) {
    auto row = fi.Row(i);
    const MembershipCutoffs cut = RowCutoffs(row.subspan(0, dims), options);
    for (uint32_t c = 0; c < dims; ++c) {
      if (cut.Admits(row[c])) index.items_per_dim[c].push_back(i);
    }
  }
  const DenseMatrix& fu = model.user_factors();
  for (uint32_t u = 0; u < fu.rows(); ++u) {
    auto row = fu.Row(u);
    const MembershipCutoffs cut = RowCutoffs(row.subspan(0, dims), options);
    size_t gathered = 0;
    for (uint32_t c = 0; c < dims; ++c) {
      if (cut.Admits(row[c])) {
        index.dims_per_user[u].push_back(c);
        gathered += index.items_per_dim[c].size();
      }
    }
    index.max_candidate_items = std::max(index.max_candidate_items, gathered);
  }
  return index;
}

Result<CoClusterCandidateIndex> BuildCoClusterCandidateIndex(
    const OcularModel& model, double threshold, uint32_t max_dims) {
  CandidateIndexOptions options;
  options.threshold = threshold;
  options.max_dims = max_dims;
  return BuildCoClusterCandidateIndex(model, options);
}

std::span<const ScoredItem> ServeTopM(const Recommender& rec, uint32_t u,
                                      std::span<const uint32_t> exclude_sorted,
                                      const ServeOptions& options,
                                      ServeWorkspace* ws) {
  RecommendBlockedInto(rec, u, options.m, exclude_sorted,
                       SelectionThreshold(options), options.block_items,
                       &ws->tile, &ws->selection);
  return ws->selection;
}

std::span<const ScoredItem> ServeTopMCandidates(
    const Recommender& rec, uint32_t u,
    std::span<const uint32_t> exclude_sorted, const ServeOptions& options,
    const CoClusterCandidateIndex& index, ServeWorkspace* ws) {
  // Gather the union of the user's co-clusters' items. std::sort and the
  // in-place dedup stay within the reserved capacity, so the gathering is
  // allocation-free in steady state.
  ws->candidates.clear();
  for (uint32_t c : index.dims_per_user[u]) {
    const std::vector<uint32_t>& items = index.items_per_dim[c];
    ws->candidates.insert(ws->candidates.end(), items.begin(), items.end());
  }
  std::sort(ws->candidates.begin(), ws->candidates.end());
  ws->candidates.erase(
      std::unique(ws->candidates.begin(), ws->candidates.end()),
      ws->candidates.end());

  // Candidate sets are small, so a plain bounded heap does the selection.
  const double threshold = SelectionThreshold(options);
  ws->selection.clear();
  ws->selection.reserve(
      topm::SelectionCapacity(options.m, ws->candidates.size()));
  size_t ex = 0;
  for (uint32_t i : ws->candidates) {
    while (ex < exclude_sorted.size() && exclude_sorted[ex] < i) ++ex;
    if (ex < exclude_sorted.size() && exclude_sorted[ex] == i) continue;
    topm::Consider(ws->selection, options.m, threshold,
                   ScoredItem{i, rec.Score(u, i)});
  }
  topm::SortBestFirst(ws->selection);
  return ws->selection;
}

Result<double> CandidateOverlapAtM(const Recommender& rec,
                                   const CsrMatrix& train,
                                   const CoClusterCandidateIndex& index,
                                   const ServeOptions& options) {
  if (train.num_rows() != rec.num_users() ||
      train.num_cols() != rec.num_items()) {
    return Status::InvalidArgument(
        "training matrix shape does not match the recommender");
  }
  if (index.dims_per_user.size() != rec.num_users()) {
    return Status::InvalidArgument(
        "candidate index built for a different model");
  }
  ServeWorkspace exact_ws;
  ServeWorkspace cand_ws;
  exact_ws.Reserve(options.m, options.block_items, 0, rec.num_items());
  cand_ws.Reserve(options.m, options.block_items, index.max_candidate_items,
                  rec.num_items());
  std::vector<uint32_t> exact_items;
  std::vector<uint32_t> cand_items;
  double overlap_sum = 0.0;
  uint32_t users = 0;
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    auto exact = ServeTopM(rec, u, train.Row(u), options, &exact_ws);
    if (exact.empty()) continue;
    auto cand =
        ServeTopMCandidates(rec, u, train.Row(u), options, index, &cand_ws);
    exact_items.clear();
    cand_items.clear();
    for (const ScoredItem& si : exact) exact_items.push_back(si.item);
    for (const ScoredItem& si : cand) cand_items.push_back(si.item);
    std::sort(exact_items.begin(), exact_items.end());
    std::sort(cand_items.begin(), cand_items.end());
    std::vector<uint32_t> both;
    std::set_intersection(exact_items.begin(), exact_items.end(),
                          cand_items.begin(), cand_items.end(),
                          std::back_inserter(both));
    overlap_sum += static_cast<double>(both.size()) /
                   static_cast<double>(exact_items.size());
    ++users;
  }
  if (users == 0) {
    return Status::FailedPrecondition("no user produced a non-empty ranking");
  }
  return overlap_sum / users;
}

}  // namespace ocular
