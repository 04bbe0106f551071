#include "sparse/coo.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/thread_pool.h"

namespace ocular {

namespace {

// Block sizes in entries: geometric from the first to the cap, so a small
// builder stays small and a large one wastes at most one capped block.
constexpr size_t kFirstBlock = 256;
constexpr size_t kMaxBlock = size_t{1} << 14;  // 128 KiB of entries

/// Sorts each of rows [first_row, last_row), whose entries are
/// col[begin, end), where it is out of order and drops its duplicates,
/// compacting in place from `begin`: the write cursor never passes the read
/// cursor. row_ptr[r] holds row r's start on entry and its new start on
/// return. Returns where the compacted rows end. Touches no offset or
/// column outside the rows, so threads may compact disjoint rows at once.
uint64_t CompactRows(uint32_t* col, uint64_t* row_ptr, uint64_t first_row,
                     uint64_t last_row, uint64_t begin, uint64_t end) {
  uint64_t write = begin;
  for (uint64_t r = first_row; r < last_row; ++r) {
    const uint64_t row_end = r + 1 < last_row ? row_ptr[r + 1] : end;
    if (!std::is_sorted(col + begin, col + row_end)) {
      std::sort(col + begin, col + row_end);
    }
    const uint64_t row_start = write;
    for (uint64_t k = begin; k < row_end; ++k) {
      if (write == row_start || col[write - 1] != col[k]) col[write++] = col[k];
    }
    row_ptr[r] = row_start;
    begin = row_end;
  }
  return write;
}

}  // namespace

void CooBuilder::Reserve(size_t nnz) {
  // In blocks no larger than NextBlock's: glibc raises its mmap threshold to
  // the size of each larger block freed, after which a long-lived process
  // keeps more of its later allocations resident (a daemon serving
  // train-ml's dataset peaked 100 KiB higher with one block per range).
  size_t room = 0;
  for (size_t b = open_; b < blocks_.size(); ++b) {
    room += blocks_[b].capacity() - blocks_[b].size();
  }
  while (size_ + room < nnz) {
    const size_t capacity = std::min(nnz - size_ - room, kMaxBlock);
    blocks_.emplace_back().reserve(capacity);
    room += capacity;
  }
}

void CooBuilder::NextBlock() {
  if (open_ < blocks_.size()) ++open_;
  if (open_ == blocks_.size()) {
    blocks_.emplace_back().reserve(std::clamp(size_, kFirstBlock, kMaxBlock));
  }
}

void CooBuilder::Append(CooBuilder&& other) {
  blocks_.insert(blocks_.end(), std::make_move_iterator(other.blocks_.begin()),
                 std::make_move_iterator(other.blocks_.end()));
  open_ = blocks_.size() - (other.blocks_.size() - other.open_);
  size_ += other.size_;
  num_rows_ = std::max(num_rows_, other.num_rows_);
  num_cols_ = std::max(num_cols_, other.num_cols_);
  other = CooBuilder();
}

Result<CooBuilder::Entries> CooBuilder::Finalize(uint32_t num_rows,
                                                 uint32_t num_cols,
                                                 size_t threads) {
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

  // Run g, blocks [g * B / runs, (g + 1) * B / runs) of the B blocks, is
  // counted and scattered by thread g through cursors[g], one slot per row.
  // The last run's slots are row_ptr[0, rows), so with one run this is a
  // plain counting sort. Each further run costs 8 bytes a row: keep that
  // within the column array's 4 bytes an entry.
  const size_t runs = std::max<size_t>(
      1, std::min({threads, blocks_.size(),
                   static_cast<size_t>(1 + size_ / (2 * (rows + 1)))}));
  std::vector<uint64_t> row_ptr(rows + 1, 0);
  std::vector<uint64_t> more_cursors((runs - 1) * rows);
  std::vector<uint64_t*> cursors(runs, row_ptr.data());
  for (size_t g = 0; g + 1 < runs; ++g) {
    cursors[g] = more_cursors.data() + g * rows;
  }
  const auto for_each_entry = [&](size_t g, auto&& visit) {
    const size_t last = (g + 1) * blocks_.size() / runs;
    for (size_t b = g * blocks_.size() / runs; b < last; ++b) {
      for (const Entry& e : blocks_[b]) visit(e);
    }
  };

  // Count each run's entries per row, then turn the counts into slots: in
  // row r, run g's entries follow those of runs 0..g-1, keeping the order
  // of insertion.
  ForkJoin(runs, [&](size_t g) {
    uint64_t* count = cursors[g];
    for_each_entry(g, [count](const Entry& e) { ++count[e.row]; });
  });
  uint64_t next = 0;
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t* run_cursors : cursors) {
      const uint64_t count = run_cursors[r];
      run_cursors[r] = next;
      next += count;
    }
  }

  std::vector<uint32_t> col(size_);
  ForkJoin(runs, [&](size_t g) {
    uint64_t* slot = cursors[g];
    uint32_t* out = col.data();
    for_each_entry(g,
                   [slot, out](const Entry& e) { out[slot[e.row]++] = e.col; });
  });
  blocks_.clear();
  // The last run's cursors advanced to each row's end, which is the next
  // row's start.
  for (uint64_t r = rows; r > 0; --r) row_ptr[r] = row_ptr[r - 1];
  row_ptr[0] = 0;

  // Sort and deduplicate rows in `runs` groups of about equal entries: group
  // g is rows [first_row[g], first_row[g + 1]), entries [begin[g],
  // begin[g + 1]). Each compacts in place; then the gaps the duplicates left
  // between groups close.
  std::vector<uint64_t> first_row(runs + 1, rows);
  std::vector<uint64_t> begin(runs + 1, size_);
  for (size_t g = 0; g < runs; ++g) {
    first_row[g] = static_cast<uint64_t>(
        std::lower_bound(row_ptr.begin(), row_ptr.end() - 1, g * size_ / runs) -
        row_ptr.begin());
    begin[g] = row_ptr[first_row[g]];
  }
  std::vector<uint64_t> end(runs);
  ForkJoin(runs, [&](size_t g) {
    end[g] = CompactRows(col.data(), row_ptr.data(), first_row[g],
                         first_row[g + 1], begin[g], begin[g + 1]);
  });
  uint64_t kept = end[0];
  for (size_t g = 1; g < runs; ++g) {
    const uint64_t shift = begin[g] - kept;
    if (shift != 0) {
      std::memmove(col.data() + kept, col.data() + begin[g],
                   (end[g] - begin[g]) * sizeof(uint32_t));
      for (uint64_t r = first_row[g]; r < first_row[g + 1]; ++r) {
        row_ptr[r] -= shift;
      }
    }
    kept += end[g] - begin[g];
  }
  row_ptr[rows] = kept;
  col.resize(kept);

  Entries out;
  out.num_rows = static_cast<uint32_t>(rows);
  out.num_cols = static_cast<uint32_t>(cols);
  out.row_ptr = std::move(row_ptr);
  out.cols = std::move(col);
  open_ = 0;
  size_ = 0;
  num_rows_ = 0;
  num_cols_ = 0;
  return out;
}

}  // namespace ocular
