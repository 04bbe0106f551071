#include "data/split.h"

#include <algorithm>
#include <numeric>

#include "sparse/coo.h"

namespace ocular {

Result<TrainTestSplit> SplitInteractions(const CsrMatrix& interactions,
                                         double train_fraction, Rng* rng) {
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    return Status::InvalidArgument("train_fraction must be in [0,1], got " +
                                   std::to_string(train_fraction));
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  CooBuilder train_coo, test_coo;
  train_coo.Reserve(static_cast<size_t>(
      static_cast<double>(interactions.nnz()) * train_fraction) + 16);
  for (uint32_t u = 0; u < interactions.num_rows(); ++u) {
    for (uint32_t i : interactions.Row(u)) {
      if (rng->Bernoulli(train_fraction)) {
        train_coo.Add(u, i);
      } else {
        test_coo.Add(u, i);
      }
    }
  }
  OCULAR_ASSIGN_OR_RETURN(
      auto train_entries,
      train_coo.Finalize(interactions.num_rows(), interactions.num_cols()));
  OCULAR_ASSIGN_OR_RETURN(
      auto test_entries,
      test_coo.Finalize(interactions.num_rows(), interactions.num_cols()));
  return TrainTestSplit{CsrMatrix::FromCoo(std::move(train_entries)),
                        CsrMatrix::FromCoo(std::move(test_entries))};
}

Result<TrainTestSplit> LeaveKOut(const CsrMatrix& interactions, uint32_t k,
                                 Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (k == 0) return Status::InvalidArgument("k must be positive");
  CooBuilder train_coo, test_coo;
  for (uint32_t u = 0; u < interactions.num_rows(); ++u) {
    auto row = interactions.Row(u);
    if (row.size() <= k) {
      for (uint32_t i : row) train_coo.Add(u, i);
      continue;
    }
    auto held = rng->SampleWithoutReplacement(row.size(), k);
    size_t h = 0;
    for (size_t idx = 0; idx < row.size(); ++idx) {
      if (h < held.size() && held[h] == idx) {
        test_coo.Add(u, row[idx]);
        ++h;
      } else {
        train_coo.Add(u, row[idx]);
      }
    }
  }
  OCULAR_ASSIGN_OR_RETURN(
      auto train_entries,
      train_coo.Finalize(interactions.num_rows(), interactions.num_cols()));
  OCULAR_ASSIGN_OR_RETURN(
      auto test_entries,
      test_coo.Finalize(interactions.num_rows(), interactions.num_cols()));
  return TrainTestSplit{CsrMatrix::FromCoo(std::move(train_entries)),
                        CsrMatrix::FromCoo(std::move(test_entries))};
}

Result<std::vector<TrainTestSplit>> KFoldSplits(const CsrMatrix& interactions,
                                                uint32_t num_folds, Rng* rng) {
  if (num_folds < 2) {
    return Status::InvalidArgument("num_folds must be >= 2");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  auto pairs = interactions.ToPairs();
  std::vector<uint32_t> fold_of(pairs.size());
  for (size_t e = 0; e < pairs.size(); ++e) {
    fold_of[e] = static_cast<uint32_t>(e % num_folds);
  }
  rng->Shuffle(&fold_of);

  std::vector<TrainTestSplit> out;
  out.reserve(num_folds);
  for (uint32_t f = 0; f < num_folds; ++f) {
    CooBuilder train_coo, test_coo;
    for (size_t e = 0; e < pairs.size(); ++e) {
      if (fold_of[e] == f) {
        test_coo.Add(pairs[e].first, pairs[e].second);
      } else {
        train_coo.Add(pairs[e].first, pairs[e].second);
      }
    }
    OCULAR_ASSIGN_OR_RETURN(
        auto train_entries,
        train_coo.Finalize(interactions.num_rows(), interactions.num_cols()));
    OCULAR_ASSIGN_OR_RETURN(
        auto test_entries,
        test_coo.Finalize(interactions.num_rows(), interactions.num_cols()));
    out.push_back(
        TrainTestSplit{CsrMatrix::FromCoo(std::move(train_entries)),
                       CsrMatrix::FromCoo(std::move(test_entries))});
  }
  return out;
}

Result<CsrMatrix> SampleFraction(const CsrMatrix& interactions,
                                 double fraction, Rng* rng) {
  if (fraction < 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in [0,1]");
  }
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const uint64_t target = static_cast<uint64_t>(
      static_cast<double>(interactions.nnz()) * fraction + 0.5);
  auto keep = rng->SampleWithoutReplacement(interactions.nnz(), target);
  auto pairs = interactions.ToPairs();
  CooBuilder coo;
  coo.Reserve(keep.size());
  for (uint64_t idx : keep) {
    coo.Add(pairs[idx].first, pairs[idx].second);
  }
  OCULAR_ASSIGN_OR_RETURN(
      auto entries,
      coo.Finalize(interactions.num_rows(), interactions.num_cols()));
  return CsrMatrix::FromCoo(std::move(entries));
}

}  // namespace ocular
