#ifndef OCULAR_PARALLEL_GRADIENT_KERNEL_H_
#define OCULAR_PARALLEL_GRADIENT_KERNEL_H_

#include "sparse/csr.h"
#include "sparse/dense.h"

namespace ocular {

/// The item-gradient pass of the paper's GPU kernel (Section VI-A,
/// eq. 11), computed serially:
///
///   grad(f_i) = C + 2λ f_i − Σ_{u: r_ui=1} f_u · α(<f_u, f_i>),
///   C = Σ_u f_u,   α(x) = 1 / (1 − e^{−x}).
///
/// The unknowns enter only through the column sums C (the complement
/// trick), so the pass costs O(nnz·K + n_i·K). `transposed` is R^T
/// (item-major). Output `gradients` is n_i x K.
void ComputeItemGradientsSerial(const CsrMatrix& transposed,
                                const DenseMatrix& user_factors,
                                const DenseMatrix& item_factors,
                                double lambda, DenseMatrix* gradients);

}  // namespace ocular

#endif  // OCULAR_PARALLEL_GRADIENT_KERNEL_H_
