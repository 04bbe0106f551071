// The offline oracle of the daemon's `update`: a fold-in replay built from
// public library functions only (ModelStore::MaterializeOcular, CooBuilder,
// FoldInRowInto for new items, FoldInUser), which an in-daemon update, a
// journal replay and a restart must all match bit for bit.

#ifndef OCULAR_TESTS_UPDATE_ORACLE_H_
#define OCULAR_TESTS_UPDATE_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fold_in.h"
#include "core/model_store.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace ocular {
namespace test {

/// One replayed update: the factors the daemon must publish, the merged
/// interaction matrix it must bind as exclusions, and the config it saves
/// the artifact with.
struct FoldInReplay {
  OcularModel model;
  CsrMatrix train;
  OcularConfig config;
};

/// Replays one update of `model` (trained with `config`) whose bound
/// dataset is `train`: merge `adds`; grow to cover them (and, unless
/// `sharded`, every dataset row); fold each new item in against the old
/// users; then fold in every touched user and every new row against all
/// the items. A set never grows, and its dataset rows past the model stay
/// exclusions only.
inline FoldInReplay ReplayFoldIn(
    const OcularModel& model, const OcularConfig& config,
    const CsrMatrix& train,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds,
    bool sharded = false) {
  const uint32_t old_users = model.num_users();
  const uint32_t old_items = model.num_items();
  uint32_t users = old_users;
  uint32_t items = old_items;
  if (!sharded) users = std::max(users, train.num_rows());
  CooBuilder coo;
  for (auto [u, i] : train.ToPairs()) coo.Add(u, i);
  for (auto [u, i] : adds) {
    users = std::max(users, u + 1);
    items = std::max(items, i + 1);
    coo.Add(u, i);
  }
  CsrMatrix merged = CsrMatrix::FromCoo(
      coo.Finalize(std::max(users, train.num_rows()), items).value());

  const uint32_t k = model.k();
  DenseMatrix fi(items, k);
  for (uint32_t i = 0; i < old_items; ++i) {
    std::copy_n(model.item_factors().Row(i).begin(), k, fi.Row(i).begin());
  }
  for (uint32_t i = old_items; i < items; ++i) {
    std::vector<uint32_t> buyers;
    for (uint32_t u = 0; u < old_users; ++u) {
      if (merged.HasEntry(u, i)) buyers.push_back(u);
    }
    FoldInWorkspace ws;
    EXPECT_TRUE(FoldInRowInto(model.user_factors(),
                              ColumnSums(model.user_factors()), buyers,
                              config, ItemPinnedCoord(config), {}, &ws)
                    .ok());
    std::copy(ws.f.begin(), ws.f.end(), fi.Row(i).begin());
  }
  DenseMatrix fu(users, k);
  for (uint32_t u = 0; u < old_users; ++u) {
    std::copy_n(model.user_factors().Row(u).begin(), k, fu.Row(u).begin());
  }
  OcularModel grown(std::move(fu), std::move(fi));

  std::vector<uint32_t> refreshed;
  for (auto [u, i] : adds) refreshed.push_back(u);
  for (uint32_t u = old_users; u < users; ++u) refreshed.push_back(u);
  std::sort(refreshed.begin(), refreshed.end());
  refreshed.erase(std::unique(refreshed.begin(), refreshed.end()),
                  refreshed.end());
  std::vector<std::vector<double>> rows;
  for (const uint32_t u : refreshed) {
    auto f = FoldInUser(grown, config, merged.Row(u));
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    // A row without history still carries the bias extension's pinned 1.
    if (merged.Row(u).empty() && UserPinnedCoord(config) >= 0) {
      (*f)[UserPinnedCoord(config)] = 1.0;
    }
    rows.push_back(std::move(f).value());
  }
  for (size_t n = 0; n < refreshed.size(); ++n) {
    std::copy(rows[n].begin(), rows[n].end(),
              grown.mutable_user_factors()->Row(refreshed[n]).begin());
  }
  return {std::move(grown), std::move(merged), config};
}

/// ReplayFoldIn of the model stored at `model_path` (a `.oclr`).
inline FoldInReplay ReplayFoldIn(
    const std::string& model_path, const CsrMatrix& train,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds) {
  auto store = ModelStore::Open(model_path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  auto loaded = store->MaterializeOcular();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return ReplayFoldIn(loaded->model, loaded->config, train, adds);
}

}  // namespace test
}  // namespace ocular

#endif  // OCULAR_TESTS_UPDATE_ORACLE_H_
