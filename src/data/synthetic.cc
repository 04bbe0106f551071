#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "sparse/coo.h"

namespace ocular {

double PlantedCoClusterData::TrueProbability(uint32_t u, uint32_t i) const {
  const double dot = vec::Dot(user_factors.Row(u), item_factors.Row(i));
  return 1.0 - std::exp(-dot);
}

namespace {

/// Draws memberships for one side (users or items) of the planted model.
void DrawMemberships(uint32_t n, uint32_t k, double membership_prob,
                     double strength_min, double strength_max,
                     bool force_membership, double zipf_s, Rng* rng,
                     DenseMatrix* factors,
                     std::vector<std::vector<uint32_t>>* members) {
  *factors = DenseMatrix(n, k, 0.0);
  members->assign(k, {});
  // Optional popularity tilt: entity e's membership probability is scaled by
  // a Zipf weight so low-index entities join more clusters.
  std::vector<double> weight(n, 1.0);
  if (zipf_s > 0.0) {
    double mean = 0.0;
    for (uint32_t e = 0; e < n; ++e) {
      weight[e] = 1.0 / std::pow(static_cast<double>(e + 1), zipf_s);
      mean += weight[e];
    }
    mean /= static_cast<double>(n);
    for (auto& w : weight) w /= mean;  // normalize to mean 1
  }
  for (uint32_t e = 0; e < n; ++e) {
    bool joined = false;
    const double p = std::min(1.0, membership_prob * weight[e]);
    for (uint32_t c = 0; c < k; ++c) {
      if (rng->Bernoulli(p)) {
        factors->At(e, c) = rng->Uniform(strength_min, strength_max);
        (*members)[c].push_back(e);
        joined = true;
      }
    }
    if (!joined && force_membership && k > 0) {
      const uint32_t c = static_cast<uint32_t>(rng->UniformInt(k));
      factors->At(e, c) = rng->Uniform(strength_min, strength_max);
      (*members)[c].push_back(e);
    }
  }
}

}  // namespace

Result<PlantedCoClusterData> GeneratePlantedCoClusters(
    const PlantedCoClusterConfig& config, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (config.num_users == 0 || config.num_items == 0) {
    return Status::InvalidArgument("empty shape");
  }
  if (config.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  if (config.strength_min < 0 || config.strength_max < config.strength_min) {
    return Status::InvalidArgument("invalid strength range");
  }

  PlantedCoClusterData out;
  DrawMemberships(config.num_users, config.num_clusters,
                  config.user_membership_prob, config.strength_min,
                  config.strength_max, config.force_membership,
                  /*zipf_s=*/0.0, rng, &out.user_factors, &out.cluster_users);
  DrawMemberships(config.num_items, config.num_clusters,
                  config.item_membership_prob, config.strength_min,
                  config.strength_max, config.force_membership,
                  config.item_popularity_zipf, rng, &out.item_factors,
                  &out.cluster_items);

  // Sample edges. Iterating co-cluster by co-cluster costs
  // O(Σ_c |U_c||I_c|) instead of O(n_u * n_i); pairs sharing several
  // clusters are handled by sampling per cluster and unioning, which is
  // exactly the paper's "each co-cluster generates a positive example
  // independently" semantics.
  CooBuilder coo;
  for (uint32_t c = 0; c < config.num_clusters; ++c) {
    for (uint32_t u : out.cluster_users[c]) {
      const double fu = out.user_factors.At(u, c);
      for (uint32_t i : out.cluster_items[c]) {
        const double fi = out.item_factors.At(i, c);
        const double p = 1.0 - std::exp(-fu * fi);
        if (rng->Bernoulli(p)) coo.Add(u, i);
      }
    }
  }
  if (config.noise > 0.0) {
    // Sparse background noise: draw the number of noise edges from the
    // expected count and place them uniformly.
    const double cells = static_cast<double>(config.num_users) *
                         static_cast<double>(config.num_items);
    const uint64_t num_noise =
        static_cast<uint64_t>(cells * config.noise + 0.5);
    for (uint64_t e = 0; e < num_noise; ++e) {
      coo.Add(static_cast<uint32_t>(rng->UniformInt(config.num_users)),
              static_cast<uint32_t>(rng->UniformInt(config.num_items)));
    }
  }
  OCULAR_ASSIGN_OR_RETURN(auto entries,
                          coo.Finalize(config.num_users, config.num_items));
  out.dataset = Dataset("planted", CsrMatrix::FromCoo(std::move(entries)));
  return out;
}

Dataset MakePaperToyDataset() {
  // Reconstructed from Figures 1 and 3:
  //   co-cluster 1: users {0,1,2}   x items {3,4,5,6}
  //   co-cluster 2: users {4,5,6}   x items {1,2,3,4}
  //   co-cluster 3: users {6,7,8,9} x items {4,...,9}
  // Holes (the recommendations): user 1 misses item 6; user 6 misses item 4;
  // users 7-9 each have item 4 (per Fig. 3 they are positives there).
  CooBuilder coo;
  auto add_block = [&coo](std::initializer_list<uint32_t> users,
                          std::initializer_list<uint32_t> items) {
    for (uint32_t u : users) {
      for (uint32_t i : items) coo.Add(u, i);
    }
  };
  add_block({0, 2}, {3, 4, 5, 6});
  add_block({1}, {3, 4, 5});  // user 1 misses item 6 -> candidate rec
  add_block({4, 5}, {1, 2, 3, 4});
  add_block({6}, {1, 2, 3});           // user 6 misses item 4 -> headline rec
  add_block({6}, {5, 6, 7, 8, 9});     // user 6's second pattern
  add_block({7, 8, 9}, {4, 5, 6, 7, 8, 9});
  Dataset ds("paper-toy", CsrMatrix::FromCoo(coo.Finalize(12, 12).value()));
  std::vector<std::string> users, items;
  for (int n = 0; n < 12; ++n) {
    users.push_back("Client " + std::to_string(n));
    items.push_back("Item " + std::to_string(n));
  }
  ds.set_user_labels(std::move(users));
  ds.set_item_labels(std::move(items));
  return ds;
}

namespace {

/// Builds a dataset whose *evaluation geometry* tracks the real dataset as
/// it shrinks:
///  - users scale linearly with `scale` (they are cheap);
///  - items scale with sqrt(scale), so the catalog stays large relative to
///    the paper's M = 50 cutoff and recall@50 does not saturate;
///  - the average positives-per-user stays at the real dataset's value;
///  - a fixed share of positives (`noise_share`) falls OUTSIDE every
///    planted co-cluster — the idiosyncratic interactions of real data
///    that no co-cluster model can predict, which keeps recall in the
///    paper's 0.3-0.55 band.
/// User membership probability and noise rate are derived from those
/// constraints rather than hand-tuned per scale.
Result<PlantedCoClusterData> MakeShaped(const char* name, uint32_t users,
                                        uint32_t items, uint32_t clusters,
                                        double item_p, double target_degree,
                                        double noise_share, double zipf,
                                        double scale, Rng* rng) {
  if (scale <= 0.0 || scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  PlantedCoClusterConfig cfg;
  cfg.num_users = std::max<uint32_t>(
      40, static_cast<uint32_t>(static_cast<double>(users) * scale));
  cfg.num_items = std::max<uint32_t>(
      60, static_cast<uint32_t>(static_cast<double>(items) *
                                std::sqrt(scale)));
  cfg.num_clusters = std::max<uint32_t>(
      4, static_cast<uint32_t>(static_cast<double>(clusters) *
                               std::sqrt(scale)));
  cfg.item_membership_prob = item_p;
  cfg.item_popularity_zipf = zipf;
  // Mean in-cluster edge probability given Uniform(strength) factors.
  const double mid =
      0.5 * (cfg.strength_min + cfg.strength_max);
  const double edge_prob = 1.0 - std::exp(-mid * mid);
  const double items_per_cluster =
      static_cast<double>(cfg.num_items) * item_p;
  // Solve: clusters * u_p * items_per_cluster * edge_prob
  //          = (1 - noise_share) * target_degree.
  const double cluster_edges = (1.0 - noise_share) * target_degree;
  cfg.user_membership_prob = std::min(
      0.9, cluster_edges / (static_cast<double>(cfg.num_clusters) *
                            std::max(1.0, items_per_cluster) * edge_prob));
  cfg.noise =
      noise_share * target_degree / static_cast<double>(cfg.num_items);
  // Idiosyncratic users exist in real data; do not force memberships.
  cfg.force_membership = false;
  OCULAR_ASSIGN_OR_RETURN(auto data, GeneratePlantedCoClusters(cfg, rng));
  data.dataset.set_name(name);
  return data;
}

}  // namespace

Result<PlantedCoClusterData> MakeMovieLensLike(double scale, Rng* rng) {
  // 6,040 x 3,706, ~575k positives -> ~95 positives/user.
  return MakeShaped("movielens-like", 6040, 3706, 24, 0.08, 95.0, 0.35,
                    0.6, scale, rng);
}

Result<PlantedCoClusterData> MakeCiteULikeLike(double scale, Rng* rng) {
  // 5,551 x 16,980, ~205k positives -> ~37 positives/user, long-tail items.
  return MakeShaped("citeulike-like", 5551, 16980, 40, 0.012, 37.0, 0.35,
                    0.8, scale, rng);
}

Result<PlantedCoClusterData> MakeB2BLike(double scale, Rng* rng) {
  // 80,000 clients x 3,000 products; sparse purchase bundles per vertical.
  return MakeShaped("b2b-like", 80000, 3000, 32, 0.07, 15.0, 0.30, 0.5,
                    scale, rng);
}

Result<PlantedCoClusterData> MakeNetflixLike(double scale, Rng* rng) {
  // 480,189 x 17,770, ~56M positives -> ~117 positives/user, heavy skew.
  return MakeShaped("netflix-like", 480189, 17770, 50, 0.04, 117.0, 0.35,
                    0.9, scale, rng);
}

}  // namespace ocular
