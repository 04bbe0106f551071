#ifndef OCULAR_SPARSE_PACKED_ROWS_H_
#define OCULAR_SPARSE_PACKED_ROWS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sparse/csr.h"

namespace ocular {

/// \brief The rows of a binary pattern matrix, each packed as its sorted
/// column ids delta-coded in LEB128: the first id, then each gap minus
/// one, seven bits a byte, low bits first, the high bit set on every
/// byte but an id's last.
///
/// On the paper's datasets a positive takes about one byte here against
/// the four of a CsrMatrix, so this is the form in which a serving
/// process holds its bound dataset (the Section IV-C exclusion rows,
/// serving/registry.h). The price is access: a row decodes in one forward
/// pass, and there is no column access or membership test, so training,
/// loading and evaluation keep the CsrMatrix.
class PackedRows {
 public:
  /// \brief Empty 0x0 matrix.
  PackedRows() : row_ptr_(1, 0) {}

  /// \brief Packs `m`. With `column_counts` non-null, it also receives
  /// each column's entry count (length num_cols), counted in the same
  /// pass. The rows encode as `threads` nnz-balanced ranges at once (see
  /// ForkJoin); 0 picks one range per CPU the caller may run on, or fewer
  /// for a small matrix.
  static PackedRows Pack(const CsrMatrix& m,
                         std::vector<double>* column_counts = nullptr,
                         size_t threads = 0);

  /// \brief Number of rows.
  uint32_t num_rows() const {
    return static_cast<uint32_t>(row_ptr_.size() - 1);
  }
  /// \brief Number of columns.
  uint32_t num_cols() const { return num_cols_; }
  /// \brief Number of stored entries.
  uint64_t nnz() const { return nnz_; }
  /// \brief Largest row degree (0 for an empty matrix): DecodeRow's
  /// scratch never needs more.
  uint32_t max_row_degree() const { return max_row_degree_; }

  /// \brief Decodes `row` and returns its column ids, ascending. The span
  /// lies in `*scratch`, which grows to max_row_degree() on its first use
  /// with this matrix (so rows of one matrix never reallocate it) and
  /// stays valid until the scratch is next written.
  std::span<const uint32_t> DecodeRow(uint32_t row,
                                      std::vector<uint32_t>* scratch) const;

  /// \brief Per-column entry counts, by decoding every row.
  std::vector<double> ColumnCounts() const;

  /// \brief Packs the result of CsrMatrix::WithEntries on the decoded
  /// matrix, with the same shape rules and errors, without decoding it:
  /// rows with no add keep their bytes, and each row with one is decoded,
  /// merged with its adds and re-encoded.
  Result<PackedRows> WithEntries(
      std::span<const std::pair<uint32_t, uint32_t>> adds, uint32_t num_rows,
      uint32_t num_cols) const;

  /// \brief Byte offset of each row in bytes(), plus the end (num_rows + 1
  /// entries).
  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  /// \brief Every row's packed ids, row after row.
  std::span<const uint8_t> bytes() const {
    return {bytes_.get(), row_ptr_.back()};
  }

  /// \brief Packing is canonical, so equal matrices have equal bytes.
  friend bool operator==(const PackedRows& a, const PackedRows& b) {
    return a.num_cols_ == b.num_cols_ && a.row_ptr_ == b.row_ptr_ &&
           std::ranges::equal(a.bytes(), b.bytes());
  }

 private:
  std::vector<uint64_t> row_ptr_;  // size num_rows + 1
  // row_ptr_.back() bytes, left uninitialized when allocated: the threads
  // that pack the rows are the first to touch their pages.
  std::unique_ptr<uint8_t[]> bytes_;
  uint32_t num_cols_ = 0;
  uint32_t max_row_degree_ = 0;
  uint64_t nnz_ = 0;
};

}  // namespace ocular

#endif  // OCULAR_SPARSE_PACKED_ROWS_H_
