#include "sparse/packed_rows.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"

namespace ocular {

namespace {

/// A pack runs in ranges of at least this many entries, whose two passes
/// (about 0.1 ms on a 4-vCPU guest) outweigh starting their threads.
constexpr uint64_t kMinRangeEntries = uint64_t{1} << 14;

/// Bytes of `v` in LEB128: one per started 7 bits.
uint32_t VarintBytes(uint32_t v) {
  return 1u + (v >= 1u << 7) + (v >= 1u << 14) + (v >= 1u << 21) +
         (v >= 1u << 28);
}

/// Bytes of the ascending ids `row` once packed. Each gap reads two
/// neighbouring ids, with no dependence between gaps, so the loop
/// vectorizes.
uint64_t PackedBytes(std::span<const uint32_t> row) {
  if (row.empty()) return 0;
  uint64_t bytes = VarintBytes(row[0]);
  for (size_t i = 1; i < row.size(); ++i) {
    bytes += VarintBytes(row[i] - row[i - 1] - 1);
  }
  return bytes;
}

/// Packs the ascending ids `row` at `out`; returns the end.
uint8_t* PackRow(std::span<const uint32_t> row, uint8_t* out) {
  uint32_t next = 0;
  for (const uint32_t id : row) {
    uint32_t v = id - next;
    while (v >= 0x80) {
      *out++ = static_cast<uint8_t>(v | 0x80);
      v >>= 7;
    }
    *out++ = static_cast<uint8_t>(v);
    next = id + 1;
  }
  return out;
}

/// Unpacks the ids in bytes [p, end) into `out`; returns how many.
size_t UnpackRow(const uint8_t* p, const uint8_t* end, uint32_t* out) {
  uint32_t* o = out;
  uint32_t next = 0;
  while (p < end) {
    uint32_t v = *p++;
    if (v >= 0x80) {
      v &= 0x7f;
      for (uint32_t shift = 7;; shift += 7) {
        const uint32_t b = *p++;
        v |= (b & 0x7f) << shift;
        if (b < 0x80) break;
      }
    }
    next += v;
    *o++ = next++;
  }
  return static_cast<size_t>(o - out);
}

}  // namespace

PackedRows PackedRows::Pack(const CsrMatrix& m,
                            std::vector<double>* column_counts,
                            size_t threads) {
  PackedRows out;
  const uint32_t rows = m.num_rows();
  const uint32_t cols = m.num_cols();
  out.num_cols_ = cols;
  out.nnz_ = m.nnz();
  out.max_row_degree_ = m.MaxRowDegree();
  if (threads == 0) {
    threads = static_cast<size_t>(
        std::clamp<uint64_t>(m.nnz() / kMinRangeEntries, 1, UsableCpus()));
  }
  threads = std::max<size_t>(1, std::min<size_t>(threads, rows));
  // nnz-balanced row ranges: range k is rows [first_row[k], first_row[k + 1]).
  std::vector<uint32_t> first_row(threads + 1, rows);
  for (size_t k = 0; k < threads; ++k) {
    const uint64_t share = m.nnz() / threads * k;
    first_row[k] = static_cast<uint32_t>(
        std::lower_bound(m.row_ptr().begin(), m.row_ptr().end() - 1, share) -
        m.row_ptr().begin());
  }
  // Every buffer is allocated here, on the calling thread: glibc would
  // keep a heap arena for each range thread that allocated. Range 0
  // counts into `column_counts`, every other range into its own share of
  // `range_counts`.
  out.row_ptr_.assign(rows + size_t{1}, 0);
  std::vector<uint32_t> range_counts;
  if (column_counts != nullptr) {
    column_counts->assign(cols, 0.0);
    range_counts.assign((threads - 1) * size_t{cols}, 0);
  }
  // Sizing pass: each row's packed bytes, and the column counts.
  ForkJoin(threads, [&](size_t k) {
    uint32_t* counts = k > 0 && column_counts != nullptr
                           ? range_counts.data() + (k - 1) * size_t{cols}
                           : nullptr;
    for (uint32_t r = first_row[k]; r < first_row[k + 1]; ++r) {
      const std::span<const uint32_t> row = m.Row(r);
      out.row_ptr_[r + size_t{1}] = PackedBytes(row);
      if (counts != nullptr) {
        for (const uint32_t c : row) ++counts[c];
      } else if (column_counts != nullptr) {
        for (const uint32_t c : row) (*column_counts)[c] += 1.0;
      }
    }
  });
  for (uint32_t r = 0; r < rows; ++r) {
    out.row_ptr_[r + size_t{1}] += out.row_ptr_[r];
  }
  for (size_t n = 0; n < range_counts.size(); ++n) {
    (*column_counts)[n % cols] += range_counts[n];
  }
  out.bytes_.reset(new uint8_t[out.row_ptr_.back()]);
  // Encoding pass: each range writes its own rows' bytes.
  ForkJoin(threads, [&](size_t k) {
    for (uint32_t r = first_row[k]; r < first_row[k + 1]; ++r) {
      PackRow(m.Row(r), out.bytes_.get() + out.row_ptr_[r]);
    }
  });
  return out;
}

std::span<const uint32_t> PackedRows::DecodeRow(
    uint32_t row, std::vector<uint32_t>* scratch) const {
  if (scratch->size() < max_row_degree_) scratch->resize(max_row_degree_);
  const size_t n = UnpackRow(bytes_.get() + row_ptr_[row],
                             bytes_.get() + row_ptr_[row + size_t{1}],
                             scratch->data());
  return {scratch->data(), n};
}

std::vector<double> PackedRows::ColumnCounts() const {
  std::vector<double> counts(num_cols_, 0.0);
  std::vector<uint32_t> scratch;
  for (uint32_t r = 0; r < num_rows(); ++r) {
    for (const uint32_t c : DecodeRow(r, &scratch)) counts[c] += 1.0;
  }
  return counts;
}

Result<PackedRows> PackedRows::WithEntries(
    std::span<const std::pair<uint32_t, uint32_t>> adds, uint32_t num_rows,
    uint32_t num_cols) const {
  const Status outside =
      Status::InvalidArgument("explicit shape smaller than recorded indices");
  for (uint32_t r = num_rows; r < this->num_rows(); ++r) {
    if (row_ptr_[r + size_t{1}] > row_ptr_[r]) return outside;
  }
  std::vector<std::pair<uint32_t, uint32_t>> sorted(adds.begin(), adds.end());
  for (auto [r, c] : sorted) {
    if (r >= num_rows || c >= num_cols) return outside;
  }
  std::sort(sorted.begin(), sorted.end());
  const uint32_t kept_rows = std::min(num_rows, this->num_rows());
  std::vector<uint32_t> scratch;
  if (num_cols < num_cols_) {
    // A narrower shape must still hold every row's last id.
    for (uint32_t r = 0; r < kept_rows; ++r) {
      const std::span<const uint32_t> row = DecodeRow(r, &scratch);
      if (!row.empty() && row.back() >= num_cols) return outside;
    }
  }

  // Rows with adds first, merged and packed on the side, so that the
  // result is sized exactly before the untouched rows are copied.
  PackedRows out;
  out.num_cols_ = num_cols;
  out.nnz_ = nnz_;
  out.max_row_degree_ = max_row_degree_;
  std::vector<uint32_t> merged;
  std::vector<uint8_t> touched_bytes;
  std::vector<std::pair<uint32_t, uint64_t>> touched;  // (row, end in bytes)
  uint64_t replaced_bytes = 0;
  for (size_t a = 0; a < sorted.size();) {
    const uint32_t r = sorted[a].first;
    const std::span<const uint32_t> row =
        r < this->num_rows() ? DecodeRow(r, &scratch)
                             : std::span<const uint32_t>{};
    merged.clear();
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
      if (merged.empty() || merged.back() != c) merged.push_back(c);
    }
    out.nnz_ += merged.size() - row.size();
    out.max_row_degree_ = std::max(out.max_row_degree_,
                                   static_cast<uint32_t>(merged.size()));
    if (r < this->num_rows()) {
      replaced_bytes += row_ptr_[r + size_t{1}] - row_ptr_[r];
    }
    const size_t at = touched_bytes.size();
    touched_bytes.resize(at + PackedBytes(merged));
    PackRow(merged, touched_bytes.data() + at);
    touched.emplace_back(r, touched_bytes.size());
  }

  out.row_ptr_.assign(num_rows + size_t{1}, 0);
  out.bytes_.reset(
      new uint8_t[row_ptr_[kept_rows] - replaced_bytes + touched_bytes.size()]);
  uint8_t* const base = out.bytes_.get();
  uint8_t* dst = base;
  uint64_t touched_at = 0;
  auto next = touched.begin();
  for (uint32_t r = 0; r < num_rows; ++r) {
    const uint8_t* src = nullptr;
    uint64_t n = 0;
    if (next != touched.end() && next->first == r) {
      src = touched_bytes.data() + touched_at;
      n = next->second - touched_at;
      touched_at = next->second;
      ++next;
    } else if (r < kept_rows) {
      src = bytes_.get() + row_ptr_[r];
      n = row_ptr_[r + size_t{1}] - row_ptr_[r];
    }
    if (n > 0) std::memcpy(dst, src, n);
    dst += n;
    out.row_ptr_[r + size_t{1}] = static_cast<uint64_t>(dst - base);
  }
  return out;
}

}  // namespace ocular
