#ifndef OCULAR_SERVING_STORE_RECOMMENDER_H_
#define OCULAR_SERVING_STORE_RECOMMENDER_H_

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/model_shard.h"
#include "core/model_store.h"
#include "eval/recommender.h"
#include "sparse/linalg.h"

namespace ocular {

/// \brief Recommender view over mmapped OCLR stores — the serving adapter
/// of every model binding, a monolithic store and a shardset alike.
///
/// Construction copies no factor: ScoreBlock/RawScoreBlock route user u
/// through the ShardMap to the one store holding u's factor row, then run
/// vec::AffinityBlock directly over the items store's mmapped K x n_i
/// serving section (the same kernel, on the same transposed layout, that
/// OcularModelRecommender builds in memory — so rankings are bit-identical
/// to the in-memory path, and a shardset ranks exactly like the
/// monolithic store of its concatenated user matrix). A monolithic store
/// is a one-shard set whose items store is itself. The score map is
/// chosen from the file's BinaryModelKind, which is what lets one daemon
/// serve OCuLaR and the factor baselines through a single code path.
/// Owns none of the stores; the caller keeps them alive (ServableModel in
/// serving/registry.h pairs the two).
class StoreRecommender : public Recommender {
 public:
  /// \brief Wraps one open store as a one-shard set. The store must
  /// outlive the recommender.
  explicit StoreRecommender(const ModelStore& store)
      : StoreRecommender(ShardMap::Single(store.num_users()), store,
                         {&store}) {}

  /// \brief Wraps an opened binding. Its stores must outlive the
  /// recommender.
  explicit StoreRecommender(const ShardSetStores& set)
      : StoreRecommender(set.map, *set.items, ShardPointers(set)) {}

  /// \brief The algorithm tag recorded in the file ("OCuLaR", "wALS", ...).
  std::string name() const override { return items_->meta().algorithm; }

  /// \brief Always fails: the store is a pre-fitted artifact.
  Status Fit(const CsrMatrix& /*interactions*/) override {
    return Status::FailedPrecondition(
        "StoreRecommender serves a pre-fitted model file");
  }

  /// \brief Per-pair score off the mapped factors: the user's row against
  /// column i of Vᵀ, summed in ascending c as vec::Dot sums a row.
  double Score(uint32_t u, uint32_t i) const override {
    double affinity = 0.0;
    RawScoreBlock(u, i, i + 1, {&affinity, 1});
    return ScoreFromRaw(affinity);
  }

  /// \brief Blocked scoring over the mapped serving-layout section.
  void ScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                  std::span<double> out) const override {
    (void)item_end;
    vec::AffinityBlock(UserRow(u), items_->item_factors_t(), item_begin, out);
    if (probability_map_) {
      for (double& s : out) s = -std::expm1(-s);
    }
  }

  /// \brief Raw ranking kernel: the affinity itself (the probability map,
  /// when present, is strictly increasing and deferred to ScoreFromRaw).
  void RawScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                     std::span<double> out) const override {
    (void)item_end;
    vec::AffinityBlock(UserRow(u), items_->item_factors_t(), item_begin, out);
  }

  /// \brief Maps a kept raw affinity to the public score.
  double ScoreFromRaw(double raw) const override {
    return probability_map_ ? -std::expm1(-raw) : raw;
  }

  /// \brief Users across every shard.
  uint32_t num_users() const override { return map_.num_users(); }
  /// \brief Items of the items store.
  uint32_t num_items() const override { return items_->num_items(); }

 private:
  StoreRecommender(ShardMap map, const ModelStore& items,
                   std::vector<const ModelStore*> shards)
      : map_(std::move(map)),
        items_(&items),
        shards_(std::move(shards)),
        probability_map_(items.meta().kind ==
                         BinaryModelKind::kOcularProbability) {}

  static std::vector<const ModelStore*> ShardPointers(
      const ShardSetStores& set) {
    std::vector<const ModelStore*> out;
    out.reserve(set.shards.size());
    for (const auto& shard : set.shards) out.push_back(shard.get());
    return out;
  }

  std::span<const double> UserRow(uint32_t u) const {
    const uint32_t s = map_.shard_of(u);
    return shards_[s]->user_factors().Row(u - map_.begin(s));
  }

  ShardMap map_;
  const ModelStore* items_;
  std::vector<const ModelStore*> shards_;
  bool probability_map_;
};

}  // namespace ocular

#endif  // OCULAR_SERVING_STORE_RECOMMENDER_H_
