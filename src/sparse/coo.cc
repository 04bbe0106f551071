#include "sparse/coo.h"

#include <algorithm>

namespace ocular {

namespace {

// Block sizes in entries: geometric from the first to the cap, so a small
// builder stays small and a large one wastes at most one capped block.
constexpr size_t kFirstBlock = 256;
constexpr size_t kMaxBlock = size_t{1} << 14;  // 128 KiB of entries

}  // namespace

void CooBuilder::NewBlock() {
  size_t capacity = std::clamp(size_, kFirstBlock, kMaxBlock);
  if (reserved_ > size_) capacity = std::max(capacity, reserved_ - size_);
  blocks_.emplace_back().reserve(capacity);
}

Result<CooBuilder::Entries> CooBuilder::Finalize(uint32_t num_rows,
                                                 uint32_t num_cols) {
  const uint64_t rows = num_rows != 0 ? num_rows : num_rows_;
  const uint64_t cols = num_cols != 0 ? num_cols : num_cols_;
  if (rows < num_rows_ || cols < num_cols_) {
    return Status::InvalidArgument(
        "explicit shape smaller than recorded indices");
  }
  if (rows > UINT32_MAX || cols > UINT32_MAX) {
    return Status::InvalidArgument(
        "index 4294967295 (UINT32_MAX) is outside every matrix shape");
  }

  // Counting sort by row. offsets[r + 1] counts row r, then the prefix sum
  // turns offsets[r] into row r's first slot. Every index is < rows by the
  // shape check above.
  std::vector<uint64_t> offsets(rows + 1, 0);
  for (const auto& block : blocks_) {
    for (const Entry& e : block) ++offsets[e.row + 1];
  }
  for (uint64_t r = 0; r < rows; ++r) offsets[r + 1] += offsets[r];

  // Scatter the columns into their row segments, releasing each block as
  // soon as it is read.
  std::vector<uint32_t> col(size_);
  for (auto& block : blocks_) {
    for (const Entry& e : block) col[offsets[e.row]++] = e.col;
    std::vector<Entry>().swap(block);
  }
  blocks_.clear();
  // offsets[r] advanced to row r's end, which is row r + 1's start.
  for (uint64_t r = rows; r > 0; --r) offsets[r] = offsets[r - 1];
  offsets[0] = 0;

  // Sort each row that is out of order and drop duplicates, compacting in
  // place: the write cursor never passes the read cursor.
  uint64_t write = 0;
  uint64_t begin = 0;
  for (uint64_t r = 0; r < rows; ++r) {
    const uint64_t end = offsets[r + 1];
    auto first = col.begin() + static_cast<ptrdiff_t>(begin);
    auto last = col.begin() + static_cast<ptrdiff_t>(end);
    if (!std::is_sorted(first, last)) std::sort(first, last);
    const uint64_t row_start = write;
    for (uint64_t k = begin; k < end; ++k) {
      if (write == row_start || col[write - 1] != col[k]) col[write++] = col[k];
    }
    offsets[r] = row_start;
    begin = end;
  }
  offsets[rows] = write;
  col.resize(write);

  Entries out;
  out.num_rows = static_cast<uint32_t>(rows);
  out.num_cols = static_cast<uint32_t>(cols);
  out.rows.resize(write);
  for (uint64_t r = 0; r < rows; ++r) {
    std::fill(out.rows.begin() + static_cast<ptrdiff_t>(offsets[r]),
              out.rows.begin() + static_cast<ptrdiff_t>(offsets[r + 1]),
              static_cast<uint32_t>(r));
  }
  out.cols = std::move(col);
  size_ = 0;
  reserved_ = 0;
  num_rows_ = 0;
  num_cols_ = 0;
  return out;
}

}  // namespace ocular
