#ifndef OCULAR_SPARSE_CSR_H_
#define OCULAR_SPARSE_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "sparse/coo.h"

namespace ocular {

/// Compressed-sparse-row *pattern* matrix (binary values).
///
/// This is the central data structure for the one-class CF problem: rows are
/// users, columns are items, a stored entry means r_ui = 1. Row access is
/// O(1) + contiguous; membership queries are O(log deg(row)).
///
/// Column access needs the transpose — the trainers keep both R (user-major)
/// and R^T (item-major), which is the layout the paper's O(nnz * K) sweep
/// relies on.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() : row_ptr_(1, 0) {}

  /// Builds from finalized COO entries (sorted, deduplicated). Pass an
  /// rvalue to move both arrays in instead of copying them.
  static CsrMatrix FromCoo(CooBuilder::Entries entries);

  /// Builds directly from (row, col) pairs; sorts and deduplicates.
  /// If num_rows/num_cols are 0 the shape is inferred.
  static Result<CsrMatrix> FromPairs(
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
      uint32_t num_rows = 0, uint32_t num_cols = 0);

  uint32_t num_rows() const { return static_cast<uint32_t>(row_ptr_.size() - 1); }
  uint32_t num_cols() const { return num_cols_; }
  size_t nnz() const { return col_idx_.size(); }

  /// Fraction of cells that are set.
  double Density() const;

  /// Column indices of stored entries in `row`, ascending.
  std::span<const uint32_t> Row(uint32_t row) const {
    return {col_idx_.data() + row_ptr_[row],
            col_idx_.data() + row_ptr_[row + 1]};
  }

  /// Number of stored entries in `row`.
  uint32_t RowDegree(uint32_t row) const {
    return static_cast<uint32_t>(row_ptr_[row + 1] - row_ptr_[row]);
  }

  /// Largest row degree (0 for an empty matrix). The trainers size their
  /// per-thread scratch buffers from this.
  uint32_t MaxRowDegree() const;

  /// Membership test, O(log deg(row)).
  bool HasEntry(uint32_t row, uint32_t col) const;

  /// Transposed copy (column-major view of the same pattern).
  CsrMatrix Transpose() const;

  /// Restricts to the given rows (in order); shape becomes
  /// (rows.size(), num_cols()).
  CsrMatrix SelectRows(const std::vector<uint32_t>& rows) const;

  /// Per-column entry counts (popularity vector).
  std::vector<uint32_t> ColumnDegrees() const;

  /// All stored (row, col) pairs in row-major order.
  std::vector<std::pair<uint32_t, uint32_t>> ToPairs() const;

  /// This matrix plus the entries `adds`, as a num_rows x num_cols matrix:
  /// each row is the sorted union of its stored columns and its adds, with
  /// duplicates collapsed. The result equals a CooBuilder fed ToPairs() and
  /// `adds` and finalized at that shape, built row by row without the pairs
  /// copy. InvalidArgument if a stored entry or an add lies outside the
  /// shape (empty rows past num_rows are dropped).
  Result<CsrMatrix> WithEntries(
      std::span<const std::pair<uint32_t, uint32_t>> adds, uint32_t num_rows,
      uint32_t num_cols) const;

  /// Raw arrays (for the parallel executor & tests).
  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.num_cols_ == b.num_cols_ && a.row_ptr_ == b.row_ptr_ &&
           a.col_idx_ == b.col_idx_;
  }

 private:
  std::vector<uint64_t> row_ptr_;   // size num_rows + 1
  std::vector<uint32_t> col_idx_;   // size nnz, sorted within each row
  uint32_t num_cols_ = 0;
};

}  // namespace ocular

#endif  // OCULAR_SPARSE_CSR_H_
