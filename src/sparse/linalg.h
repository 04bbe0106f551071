#ifndef OCULAR_SPARSE_LINALG_H_
#define OCULAR_SPARSE_LINALG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "sparse/dense.h"

namespace ocular {

/// Solves A x = b for symmetric positive-definite A (k x k, row-major,
/// only the full matrix is read) via Cholesky factorization. A is
/// destroyed (overwritten with the factor). Returns InvalidArgument on
/// shape mismatch and FailedPrecondition if A is not positive definite.
///
/// This is the K x K solve at the heart of the wALS baseline (Pan et al.):
/// with K <= a few hundred a dense Cholesky is the right tool.
Status CholeskySolveInPlace(std::vector<double>* a, uint32_t k,
                            std::span<const double> b,
                            std::vector<double>* x);

/// Computes the Gram matrix G = F^T F (k x k, row-major) of a factor
/// matrix F (n x k). O(n k^2). Used by wALS ("precompute F^T F once per
/// phase" trick).
std::vector<double> GramMatrix(const DenseMatrix& f);

/// Rank-one update: a += alpha * v v^T for row-major k x k `a`.
void AddOuterProduct(std::vector<double>* a, uint32_t k, double alpha,
                     std::span<const double> v);

/// K x n row-major transposed copy of an n x K factor matrix — the Vᵀ
/// layout of the serving ScoreBlock kernels: row c holds [f_i]_c for every
/// item contiguously, so a user-row x item-block product becomes K
/// contiguous Axpy passes over an L1-resident tile instead of per-item dot
/// reductions (which the compiler may not vectorize without reassociating
/// the sum). The factor models rebuild this once per Fit. Transposing a
/// store's Vᵀ view gives back its n x K rows (ModelStore::MaterializeOcular).
DenseMatrix TransposedCopy(ConstMatrixView f);

namespace vec {

// Flat contiguous kernels of the training inner loop. Each is a single
// pass over K-length spans with no branches in the body, so the compiler
// auto-vectorizes them; the block-update hot path is built entirely from
// these plus Dot/Axpy (sparse/dense.h).

/// grad[c] = sums[c] + two_lambda * f[c] — the constant part of the block
/// gradient (complement trick: the Σ_all term plus the l2 term; the
/// per-neighbor corrections are Axpy'd on top).
void GradientInit(std::span<double> grad, std::span<const double> sums,
                  std::span<const double> f, double two_lambda);

/// The projection-arc trial point: trial[c] = max(0, f[c] - alpha*grad[c]).
/// Returns the Armijo descent inner product <grad, trial - f> computed in
/// the same pass.
double ProjectedTrial(std::span<double> trial, std::span<const double> f,
                      std::span<const double> grad, double alpha);

/// Computes <a, b> and ||a||² in one pass (the two reductions every block
/// objective evaluation needs); returns the dot, writes the squared norm.
double DotAndSquaredNorm(std::span<const double> a, std::span<const double> b,
                         double* a_squared_norm);

/// out[j] = <u_row, column item_begin + j of f_t> for j in [0, out.size()),
/// where `f_t` is the TransposedCopy (K x n) of an n x K factor matrix —
/// owned (DenseMatrix converts implicitly) or borrowed (e.g. the mmapped
/// serving-layout section of a ModelStore). Accumulates
/// dimension-by-dimension in ascending c, so each out[j] sums in exactly
/// the order of per-item vec::Dot over the row-major factors — the result
/// is bit-identical to the pair-at-a-time Score path. Zero user
/// coordinates are skipped (adding 0 * f is exact), which makes the cost
/// proportional to the user's *active* co-cluster affiliations.
void AffinityBlock(std::span<const double> u_row, ConstMatrixView f_t,
                   uint32_t item_begin, std::span<double> out);

}  // namespace vec

}  // namespace ocular

#endif  // OCULAR_SPARSE_LINALG_H_
