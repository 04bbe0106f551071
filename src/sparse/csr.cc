#include "sparse/csr.h"

#include <algorithm>

namespace ocular {

CsrMatrix CsrMatrix::FromCoo(CooBuilder::Entries entries) {
  CsrMatrix m;
  m.num_cols_ = entries.num_cols;
  m.row_ptr_.assign(entries.num_rows + size_t{1}, 0);
  for (uint32_t r : entries.rows) ++m.row_ptr_[r + size_t{1}];
  for (size_t i = 1; i < m.row_ptr_.size(); ++i) {
    m.row_ptr_[i] += m.row_ptr_[i - 1];
  }
  m.col_idx_ = std::move(entries.cols);  // already row-major sorted
  return m;
}

Result<CsrMatrix> CsrMatrix::FromPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, uint32_t num_rows,
    uint32_t num_cols) {
  CooBuilder coo;
  coo.Reserve(pairs.size());
  for (const auto& [r, c] : pairs) coo.Add(r, c);
  OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(num_rows, num_cols));
  return FromCoo(std::move(entries));
}

double CsrMatrix::Density() const {
  const double cells =
      static_cast<double>(num_rows()) * static_cast<double>(num_cols());
  return cells > 0 ? static_cast<double>(nnz()) / cells : 0.0;
}

uint32_t CsrMatrix::MaxRowDegree() const {
  uint32_t max_deg = 0;
  for (uint32_t r = 0; r < num_rows(); ++r) {
    max_deg = std::max(max_deg, RowDegree(r));
  }
  return max_deg;
}

bool CsrMatrix::HasEntry(uint32_t row, uint32_t col) const {
  if (row >= num_rows()) return false;
  auto span = Row(row);
  return std::binary_search(span.begin(), span.end(), col);
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t;
  t.num_cols_ = num_rows();
  t.row_ptr_.assign(num_cols_ + 1, 0);
  for (uint32_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (size_t i = 1; i < t.row_ptr_.size(); ++i) {
    t.row_ptr_[i] += t.row_ptr_[i - 1];
  }
  t.col_idx_.resize(nnz());
  std::vector<uint64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (uint32_t r = 0; r < num_rows(); ++r) {
    for (uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const uint32_t c = col_idx_[k];
      t.col_idx_[cursor[c]++] = r;
    }
  }
  // Row-major traversal writes ascending row ids per column, so each
  // transposed row is already sorted.
  return t;
}

CsrMatrix CsrMatrix::SelectRows(const std::vector<uint32_t>& rows) const {
  CsrMatrix out;
  out.num_cols_ = num_cols_;
  out.row_ptr_.assign(rows.size() + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    total += RowDegree(rows[i]);
    out.row_ptr_[i + 1] = total;
  }
  out.col_idx_.reserve(total);
  for (uint32_t r : rows) {
    auto span = Row(r);
    out.col_idx_.insert(out.col_idx_.end(), span.begin(), span.end());
  }
  return out;
}

std::vector<uint32_t> CsrMatrix::ColumnDegrees() const {
  std::vector<uint32_t> deg(num_cols_, 0);
  for (uint32_t c : col_idx_) ++deg[c];
  return deg;
}

std::vector<std::pair<uint32_t, uint32_t>> CsrMatrix::ToPairs() const {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(nnz());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    for (uint32_t c : Row(r)) out.emplace_back(r, c);
  }
  return out;
}

Result<CsrMatrix> CsrMatrix::WithEntries(
    std::span<const std::pair<uint32_t, uint32_t>> adds, uint32_t num_rows,
    uint32_t num_cols) const {
  const Status outside =
      Status::InvalidArgument("explicit shape smaller than recorded indices");
  for (uint32_t r = num_rows; r < this->num_rows(); ++r) {
    if (RowDegree(r) > 0) return outside;
  }
  std::vector<std::pair<uint32_t, uint32_t>> sorted(adds.begin(), adds.end());
  for (auto [r, c] : sorted) {
    if (r >= num_rows || c >= num_cols) return outside;
  }
  std::sort(sorted.begin(), sorted.end());

  CsrMatrix out;
  out.num_cols_ = num_cols;
  out.row_ptr_.assign(num_rows + size_t{1}, 0);
  out.col_idx_.reserve(nnz() + sorted.size());
  size_t a = 0;
  for (uint32_t r = 0; r < num_rows; ++r) {
    const std::span<const uint32_t> row =
        r < this->num_rows() ? Row(r) : std::span<const uint32_t>{};
    if (!row.empty() && row.back() >= num_cols) return outside;
    const size_t row_start = out.col_idx_.size();
    size_t k = 0;
    // Merge two ascending runs, keeping each column once.
    while (k < row.size() || (a < sorted.size() && sorted[a].first == r)) {
      uint32_t c;
      if (a < sorted.size() && sorted[a].first == r &&
          (k == row.size() || sorted[a].second < row[k])) {
        c = sorted[a++].second;
      } else {
        c = row[k++];
      }
      if (out.col_idx_.size() == row_start || out.col_idx_.back() != c) {
        out.col_idx_.push_back(c);
      }
    }
    out.row_ptr_[r + size_t{1}] = out.col_idx_.size();
  }
  return out;
}

}  // namespace ocular
