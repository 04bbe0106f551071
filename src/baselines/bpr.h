#ifndef OCULAR_BASELINES_BPR_H_
#define OCULAR_BASELINES_BPR_H_

#include <string>

#include "common/rng.h"
#include "eval/recommender.h"
#include "sparse/dense.h"

namespace ocular {

/// Hyper-parameters of BPR matrix factorization.
struct BprConfig {
  uint32_t k = 50;
  double learning_rate = 0.05;
  /// l2 regularization on user factors, positive-item factors and
  /// negative-item factors (a single weight, as in the reference
  /// implementation the paper compares against).
  double lambda = 0.01;
  /// Number of SGD epochs; each epoch draws nnz triplets.
  uint32_t epochs = 30;
  double init_scale = 0.1;
  uint64_t seed = 1;

  Status Validate() const;
};

/// Bayesian Personalized Ranking (Rendle et al., UAI 2009), the paper's
/// relative-preference matrix-factorization baseline.
///
/// Learns <f_u, f_i> by stochastic gradient ascent on
///   Σ_{(u,i,j)∈D_S} ln σ(<f_u,f_i> − <f_u,f_j>) − λ‖Θ‖²
/// with uniformly sampled triplets (positive i, unknown j).
class BprRecommender : public Recommender {
 public:
  explicit BprRecommender(BprConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "BPR"; }
  Status Fit(const CsrMatrix& interactions) override;
  double Score(uint32_t u, uint32_t i) const override;
  void ScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                  std::span<double> out) const override;
  uint32_t num_users() const override { return user_factors_.rows(); }
  uint32_t num_items() const override { return item_factors_.rows(); }

  const DenseMatrix& user_factors() const { return user_factors_; }
  const DenseMatrix& item_factors() const { return item_factors_; }

  /// Writes the fitted factors as a binary OCLR model file
  /// (BinaryModelKind::kDotProduct); see WalsRecommender::SaveBinary.
  Status SaveBinary(const std::string& path) const;

 private:
  BprConfig config_;
  DenseMatrix user_factors_;
  DenseMatrix item_factors_;
  DenseMatrix item_factors_t_;  // K x n_i, blocked-serving layout
};

}  // namespace ocular

#endif  // OCULAR_BASELINES_BPR_H_
