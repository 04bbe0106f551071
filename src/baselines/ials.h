#ifndef OCULAR_BASELINES_IALS_H_
#define OCULAR_BASELINES_IALS_H_

#include <string>

#include "common/rng.h"
#include "eval/recommender.h"
#include "sparse/dense.h"

namespace ocular {

/// Hyper-parameters of implicit-feedback ALS.
struct IalsConfig {
  uint32_t k = 50;
  double lambda = 0.1;
  /// Confidence boost: positives get weight 1 + alpha, unknowns weight 1
  /// (with targets 1 and 0 respectively).
  double alpha = 20.0;
  uint32_t iterations = 15;
  double init_scale = 0.1;
  uint64_t seed = 1;

  Status Validate() const;
};

/// Implicit-feedback matrix factorization of Hu, Koren & Volinsky
/// (ICDM 2008) — cited by the paper ([17]) as the other major
/// absolute-preference OCCF family next to wALS. Where wALS down-weights
/// the unknowns (c = b < 1), iALS up-weights the positives
/// (c = 1 + alpha); both admit the same Gram-matrix ALS solve:
///   (F^T F + alpha Σ_pos f f^T + lambda I) x = (1 + alpha) Σ_pos f.
class IalsRecommender : public Recommender {
 public:
  explicit IalsRecommender(IalsConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "iALS"; }
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
  Status SolveSide(const CsrMatrix& pattern, const DenseMatrix& fixed,
                   DenseMatrix* target) const;

  IalsConfig config_;
  DenseMatrix user_factors_;
  DenseMatrix item_factors_;
  DenseMatrix item_factors_t_;  // K x n_i, blocked-serving layout
};

}  // namespace ocular

#endif  // OCULAR_BASELINES_IALS_H_
