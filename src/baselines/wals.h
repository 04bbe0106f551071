#ifndef OCULAR_BASELINES_WALS_H_
#define OCULAR_BASELINES_WALS_H_

#include <string>

#include "common/rng.h"
#include "eval/recommender.h"
#include "sparse/dense.h"

namespace ocular {

/// Hyper-parameters of weighted ALS.
struct WalsConfig {
  /// Latent dimension.
  uint32_t k = 50;
  /// Regularization weight.
  double lambda = 0.01;
  /// Weight of unknown (r = 0) cells in the squared loss; positives get
  /// weight 1 (eq. 8 of the paper; the experiments use b = 0.01).
  double b = 0.01;
  uint32_t iterations = 15;
  double init_scale = 0.1;
  uint64_t seed = 1;

  Status Validate() const;
};

/// Weighted Alternating Least Squares for one-class collaborative
/// filtering (Pan et al., ICDM 2008) — the paper's strongest
/// non-interpretable baseline.
///
/// Objective: Σ_ui c_ui (r_ui − <f_u,f_i>)² + λ(Σ‖f_u‖² + Σ‖f_i‖²), with
/// c_ui = 1 for positives and b < 1 for unknowns. Each ALS solve uses the
/// Gram-matrix decomposition
///   F^T C_u F = b·F^T F + (1−b)·Σ_{i∈pos(u)} f_i f_iᵀ,
/// so a full sweep costs O(nnz·K² + (n_u+n_i)·K³) and never touches the
/// zero cells.
class WalsRecommender : public Recommender {
 public:
  explicit WalsRecommender(WalsConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "wALS"; }
  Status Fit(const CsrMatrix& interactions) override;
  double Score(uint32_t u, uint32_t i) const override;
  void ScoreBlock(uint32_t u, uint32_t item_begin, uint32_t item_end,
                  std::span<double> out) const override;
  uint32_t num_users() const override { return user_factors_.rows(); }
  uint32_t num_items() const override { return item_factors_.rows(); }

  const DenseMatrix& user_factors() const { return user_factors_; }
  const DenseMatrix& item_factors() const { return item_factors_; }

  /// Writes the fitted factors as a binary OCLR model file
  /// (BinaryModelKind::kDotProduct), servable by the model-agnostic
  /// ModelStore/StoreRecommender path and the ocular_served daemon.
  /// FailedPrecondition before a successful Fit().
  Status SaveBinary(const std::string& path) const;

 private:
  /// One half-sweep: solves all rows of `target` given `fixed`.
  /// `pattern` lists each target row's positive counterparts.
  Status SolveSide(const CsrMatrix& pattern, const DenseMatrix& fixed,
                   DenseMatrix* target) const;

  WalsConfig config_;
  DenseMatrix user_factors_;
  DenseMatrix item_factors_;
  DenseMatrix item_factors_t_;  // K x n_i, blocked-serving layout
};

}  // namespace ocular

#endif  // OCULAR_BASELINES_WALS_H_
