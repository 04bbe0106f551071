#ifndef OCULAR_SPARSE_COO_H_
#define OCULAR_SPARSE_COO_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace ocular {

/// Coordinate-format builder for binary sparse matrices.
///
/// The one-class CF setting only has positive entries (r_ui = 1), so the
/// matrix is *pattern-only*: an entry is present or absent, no values are
/// stored. Duplicate (row, col) pairs are collapsed by Finalize().
///
/// Entries are kept in blocks that never move once written: growing
/// allocates a new block instead of copying the old ones, so a builder fed
/// n entries holds 8 bytes per entry plus at most one partly filled block.
class CooBuilder {
 public:
  CooBuilder() = default;

  /// Pre-sizes internal buffers for `nnz` entries in total.
  void Reserve(size_t nnz) { reserved_ = std::max(reserved_, nnz); }

  /// Records entry (row, col). Grows the implied shape as needed.
  void Add(uint32_t row, uint32_t col) {
    if (blocks_.empty() || blocks_.back().size() == blocks_.back().capacity()) {
      NewBlock();
    }
    blocks_.back().push_back({row, col});
    ++size_;
    num_rows_ = std::max(num_rows_, uint64_t{row} + 1);
    num_cols_ = std::max(num_cols_, uint64_t{col} + 1);
  }

  /// Number of (possibly duplicated) recorded entries.
  size_t size() const { return size_; }

  /// Current implied shape (max index + 1; 2^32 once index UINT32_MAX was
  /// recorded, which no matrix can hold). A larger explicit shape may be
  /// requested at Finalize time.
  uint64_t num_rows() const { return num_rows_; }
  uint64_t num_cols() const { return num_cols_; }

  /// Sorts by (row, col), removes duplicates, and returns the entry arrays.
  /// The builder is left empty. If explicit dimensions are given they must
  /// cover all recorded indices; an index no uint32 shape can cover
  /// (UINT32_MAX) is InvalidArgument either way.
  ///
  /// A counting sort by row followed by a sort of each row that is not
  /// already in order: O(nnz + rows), plus O(d log d) for an unsorted row
  /// of d entries.
  struct Entries {
    uint32_t num_rows = 0;
    uint32_t num_cols = 0;
    std::vector<uint32_t> rows;
    std::vector<uint32_t> cols;
  };
  Result<Entries> Finalize(uint32_t num_rows = 0, uint32_t num_cols = 0);

 private:
  struct Entry {
    uint32_t row;
    uint32_t col;
  };

  void NewBlock();

  std::vector<std::vector<Entry>> blocks_;
  size_t size_ = 0;
  size_t reserved_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t num_cols_ = 0;
};

}  // namespace ocular

#endif  // OCULAR_SPARSE_COO_H_
