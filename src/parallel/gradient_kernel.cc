#include "parallel/gradient_kernel.h"

#include <cmath>

#include "common/logging.h"

namespace ocular {

namespace {
constexpr double kAffinityFloor = 1e-12;

/// α(x) = 1 / (1 − e^{−x}) with a floor on x.
double Alpha(double dot) {
  return 1.0 / std::max(-std::expm1(-std::max(dot, kAffinityFloor)),
                        kAffinityFloor);
}

void InitGradients(const DenseMatrix& user_factors,
                   const DenseMatrix& item_factors, double lambda,
                   DenseMatrix* gradients) {
  const uint32_t k = user_factors.cols();
  const std::vector<double> c = user_factors.ColumnSums();
  *gradients = DenseMatrix(item_factors.rows(), k);
  for (uint32_t i = 0; i < item_factors.rows(); ++i) {
    auto g = gradients->Row(i);
    auto fi = item_factors.Row(i);
    for (uint32_t d = 0; d < k; ++d) g[d] = c[d] + 2.0 * lambda * fi[d];
  }
}

}  // namespace

void ComputeItemGradientsSerial(const CsrMatrix& transposed,
                                const DenseMatrix& user_factors,
                                const DenseMatrix& item_factors,
                                double lambda, DenseMatrix* gradients) {
  OCULAR_CHECK_EQ(transposed.num_rows(), item_factors.rows());
  InitGradients(user_factors, item_factors, lambda, gradients);
  const uint32_t k = user_factors.cols();
  for (uint32_t i = 0; i < transposed.num_rows(); ++i) {
    auto g = gradients->Row(i);
    auto fi = item_factors.Row(i);
    for (uint32_t u : transposed.Row(i)) {
      auto fu = user_factors.Row(u);
      const double a = Alpha(vec::Dot(fu, fi));
      for (uint32_t d = 0; d < k; ++d) g[d] -= a * fu[d];
    }
  }
}

}  // namespace ocular
