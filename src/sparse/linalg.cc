#include "sparse/linalg.h"

#include <algorithm>
#include <cmath>

namespace ocular {

Status CholeskySolveInPlace(std::vector<double>* a, uint32_t k,
                            std::span<const double> b,
                            std::vector<double>* x) {
  if (a == nullptr || x == nullptr) {
    return Status::InvalidArgument("null output");
  }
  if (a->size() != static_cast<size_t>(k) * k || b.size() != k) {
    return Status::InvalidArgument("shape mismatch in CholeskySolveInPlace");
  }
  std::vector<double>& m = *a;
  // In-place lower-triangular Cholesky: A = L L^T.
  for (uint32_t j = 0; j < k; ++j) {
    double diag = m[static_cast<size_t>(j) * k + j];
    for (uint32_t p = 0; p < j; ++p) {
      const double ljp = m[static_cast<size_t>(j) * k + p];
      diag -= ljp * ljp;
    }
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::FailedPrecondition("matrix not positive definite");
    }
    const double ljj = std::sqrt(diag);
    m[static_cast<size_t>(j) * k + j] = ljj;
    for (uint32_t i = j + 1; i < k; ++i) {
      double v = m[static_cast<size_t>(i) * k + j];
      for (uint32_t p = 0; p < j; ++p) {
        v -= m[static_cast<size_t>(i) * k + p] *
             m[static_cast<size_t>(j) * k + p];
      }
      m[static_cast<size_t>(i) * k + j] = v / ljj;
    }
  }
  // Forward substitution: L y = b.
  std::vector<double> y(k);
  for (uint32_t i = 0; i < k; ++i) {
    double v = b[i];
    for (uint32_t p = 0; p < i; ++p) {
      v -= m[static_cast<size_t>(i) * k + p] * y[p];
    }
    y[i] = v / m[static_cast<size_t>(i) * k + i];
  }
  // Back substitution: L^T x = y.
  x->assign(k, 0.0);
  for (uint32_t ii = k; ii > 0; --ii) {
    const uint32_t i = ii - 1;
    double v = y[i];
    for (uint32_t p = i + 1; p < k; ++p) {
      v -= m[static_cast<size_t>(p) * k + i] * (*x)[p];
    }
    (*x)[i] = v / m[static_cast<size_t>(i) * k + i];
  }
  return Status::OK();
}

std::vector<double> GramMatrix(const DenseMatrix& f) {
  const uint32_t k = f.cols();
  std::vector<double> g(static_cast<size_t>(k) * k, 0.0);
  for (uint32_t r = 0; r < f.rows(); ++r) {
    auto row = f.Row(r);
    for (uint32_t i = 0; i < k; ++i) {
      const double vi = row[i];
      if (vi == 0.0) continue;
      for (uint32_t j = 0; j < k; ++j) {
        g[static_cast<size_t>(i) * k + j] += vi * row[j];
      }
    }
  }
  return g;
}

void AddOuterProduct(std::vector<double>* a, uint32_t k, double alpha,
                     std::span<const double> v) {
  for (uint32_t i = 0; i < k; ++i) {
    const double vi = alpha * v[i];
    if (vi == 0.0) continue;
    for (uint32_t j = 0; j < k; ++j) {
      (*a)[static_cast<size_t>(i) * k + j] += vi * v[j];
    }
  }
}

DenseMatrix TransposedCopy(ConstMatrixView f) {
  DenseMatrix t(f.cols(), f.rows());
  for (uint32_t r = 0; r < f.rows(); ++r) {
    auto row = f.Row(r);
    for (uint32_t c = 0; c < f.cols(); ++c) t.At(c, r) = row[c];
  }
  return t;
}

namespace vec {

void GradientInit(std::span<double> grad, std::span<const double> sums,
                  std::span<const double> f, double two_lambda) {
  double* g = grad.data();
  const double* s = sums.data();
  const double* x = f.data();
  const size_t k = grad.size();
  for (size_t c = 0; c < k; ++c) g[c] = s[c] + two_lambda * x[c];
}

double ProjectedTrial(std::span<double> trial, std::span<const double> f,
                      std::span<const double> grad, double alpha) {
  double* t = trial.data();
  const double* x = f.data();
  const double* g = grad.data();
  const size_t k = trial.size();
  double descent = 0.0;
  for (size_t c = 0; c < k; ++c) {
    const double v = std::max(0.0, x[c] - alpha * g[c]);
    t[c] = v;
    descent += g[c] * (v - x[c]);
  }
  return descent;
}

double DotAndSquaredNorm(std::span<const double> a, std::span<const double> b,
                         double* a_squared_norm) {
  const double* pa = a.data();
  const double* pb = b.data();
  const size_t k = a.size();
  double dot = 0.0;
  double sq = 0.0;
  for (size_t c = 0; c < k; ++c) {
    dot += pa[c] * pb[c];
    sq += pa[c] * pa[c];
  }
  *a_squared_norm = sq;
  return dot;
}

namespace {

// Runtime-dispatched clone of the serving Axpy pass: the AVX2 variant runs
// the same mul-then-add per element 4-wide (no FMA flag, so no contraction
// — results stay bit-identical to the baseline), selected once at load
// time via ifunc on platforms that support it. ThreadSanitizer cannot
// intercept ifunc resolvers (the resolver runs before the runtime is up
// and segfaults), so TSan builds take the plain auto-vectorized path —
// GCC spells the detection __SANITIZE_THREAD__, Clang __has_feature.
#if !defined(OCULAR_TSAN_BUILD) && defined(__SANITIZE_THREAD__)
#define OCULAR_TSAN_BUILD 1
#endif
#if !defined(OCULAR_TSAN_BUILD) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OCULAR_TSAN_BUILD 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(OCULAR_TSAN_BUILD)
__attribute__((target_clones("default", "avx2")))
#endif
void AxpyRun(double alpha, const double* x, double* y, size_t len) {
  for (size_t j = 0; j < len; ++j) y[j] += alpha * x[j];
}

}  // namespace

void AffinityBlock(std::span<const double> u_row, ConstMatrixView f_t,
                   uint32_t item_begin, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  const size_t len = out.size();
  double* acc = out.data();
  for (uint32_t c = 0; c < u_row.size(); ++c) {
    const double uc = u_row[c];
    if (uc == 0.0) continue;
    AxpyRun(uc, f_t.Row(c).data() + item_begin, acc, len);
  }
}

}  // namespace vec

}  // namespace ocular
