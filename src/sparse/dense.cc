#include "sparse/dense.h"

#include <algorithm>
#include <cassert>

namespace ocular {

void DenseMatrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void DenseMatrix::FillUniform(Rng* rng, double lo, double hi) {
  for (auto& x : data_) x = rng->Uniform(lo, hi);
}

std::vector<double> DenseMatrix::ColumnSums() const {
  std::vector<double> sums(cols_, 0.0);
  const double* p = data_.data();
  for (uint32_t r = 0; r < rows_; ++r) {
    for (uint32_t c = 0; c < cols_; ++c) sums[c] += p[c];
    p += cols_;
  }
  return sums;
}

std::vector<double> ColumnSums(ConstMatrixView m) {
  return ColumnSums(std::span<const ConstMatrixView>(&m, 1), m.cols());
}

std::vector<double> ColumnSums(std::span<const ConstMatrixView> blocks,
                               uint32_t cols) {
  std::vector<double> sums(cols, 0.0);
  for (const ConstMatrixView& m : blocks) {
    assert(m.rows() == 0 || m.cols() == cols);
    const double* p = m.data();
    for (uint32_t r = 0; r < m.rows(); ++r) {
      for (uint32_t c = 0; c < cols; ++c) sums[c] += p[c];
      p += cols;
    }
  }
  return sums;
}

double DenseMatrix::SquaredFrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

namespace vec {

double Dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(double alpha, std::span<double> x) {
  for (auto& v : x) v *= alpha;
}

double SquaredNorm(std::span<const double> a) { return Dot(a, a); }

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void ProjectNonNegative(std::span<double> x) {
  for (auto& v : x) v = std::max(0.0, v);
}

}  // namespace vec
}  // namespace ocular
