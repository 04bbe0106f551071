#ifndef OCULAR_SERVING_METRICS_H_
#define OCULAR_SERVING_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/json.h"

namespace ocular {

/// \file
/// \brief The metric tables behind the `stats` verb: each component
/// declares each counter once, as a table row, and the table sizes the
/// writers' shards, merges them and writes the `stats` keys.
/// docs/OPERATIONS.md lists every row; `metric_docs` checks it does.

/// \brief How the shards of one metric combine into the reported value.
enum class MetricMerge : uint8_t {
  kSum,  ///< counters, and gauges that one writer moves up and down
  kMax,  ///< high-water marks
};

/// \brief One counter of a component's table.
struct MetricRow {
  const char* key;    ///< the `stats` reply key
  MetricMerge merge;  ///< how the writers' shards merge
  const char* help;   ///< one line, as docs/OPERATIONS.md gives it
};

/// \brief Declares the metric table `Name`: a struct holding `enum Id`,
/// one enumerator per row, and `kRows`, the rows it indexes. `ROWS(ROW)`
/// expands to one `ROW(enumerator, key, merge, help)` per counter, with
/// `merge` a MetricMerge enumerator. The row list is the table's
/// documentation; the generated struct stays out of Doxygen.
#define OCULAR_METRIC_TABLE(Name, ROWS)                          \
  struct Name {                                                  \
    enum Id : size_t { ROWS(OCULAR_METRIC_ID) };                 \
    static constexpr std::array kRows{ROWS(OCULAR_METRIC_ROW)};  \
  }
/// \brief The enumerator of one OCULAR_METRIC_TABLE row.
#define OCULAR_METRIC_ID(id, key, merge, help) id,
/// \brief The MetricRow of one OCULAR_METRIC_TABLE row.
#define OCULAR_METRIC_ROW(id, key, merge, help) \
  MetricRow{key, MetricMerge::merge, help},

/// \brief A snapshot of table `Table`: one merged value per row, indexed
/// by the table's enumerators.
template <typename Table>
using MetricValues = std::array<uint64_t, Table::kRows.size()>;

/// \brief One writer's counters of table `Table` (a worker slot, a server,
/// an IO thread): relaxed atomics indexed by the table's enumerators, read
/// lock-free by snapshots on any thread.
template <typename Table>
class MetricShard {
 public:
  using Id = typename Table::Id;

  /// Adds `n` to a kSum counter.
  void Add(Id id, uint64_t n = 1) {
    values_[id].fetch_add(n, std::memory_order_relaxed);
  }
  /// Takes `n` from a kSum gauge.
  void Sub(Id id, uint64_t n = 1) {
    values_[id].fetch_sub(n, std::memory_order_relaxed);
  }
  /// Raises a kMax high-water mark to `value`. Single writer per shard.
  void Raise(Id id, uint64_t value) {
    if (value > values_[id].load(std::memory_order_relaxed)) {
      values_[id].store(value, std::memory_order_relaxed);
    }
  }

  /// \brief Folds this shard into `values` by each row's merge rule; a
  /// snapshot merges every shard of the table into zeros.
  void MergeInto(MetricValues<Table>* values) const {
    for (size_t i = 0; i < values_.size(); ++i) {
      const uint64_t v = values_[i].load(std::memory_order_relaxed);
      uint64_t& out = (*values)[i];
      out = Table::kRows[i].merge == MetricMerge::kMax ? std::max(out, v)
                                                       : out + v;
    }
  }

 private:
  std::array<std::atomic<uint64_t>, Table::kRows.size()> values_{};
};

/// \brief Writes each row of `Table` as a key of the JSON object `w` is
/// building, in table order: how every `stats` reply and `drained:` line
/// spells its counters.
template <typename Table>
void WriteMetrics(const MetricValues<Table>& values, JsonWriter* w) {
  for (size_t i = 0; i < values.size(); ++i) {
    w->Key(Table::kRows[i].key);
    w->UInt(values[i]);
  }
}

/// \brief Fixed-window latency ring with a single writer (the owning
/// worker) and lock-free readers (the stats snapshot). The writer stamps
/// samples with relaxed stores and publishes the count with release; a
/// reader acquires the count and copies the published prefix. A sample
/// being overwritten concurrently yields one stale-but-valid value in the
/// snapshot — fine for percentile reporting, and race-free by
/// construction (every access is atomic).
class LatencyRing {
 public:
  /// \brief A ring holding the `window` most recent samples (at least 1).
  explicit LatencyRing(size_t window)
      : samples_(window == 0 ? 1 : window) {}

  /// Records one sample. Single-writer: only the owning worker calls this.
  void Record(double micros) {
    const uint64_t n = count_.load(std::memory_order_relaxed);
    samples_[n % samples_.size()].store(micros, std::memory_order_relaxed);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Appends the current window (up to `window` most recent samples, in
  /// no particular order) to `out`. Safe from any thread.
  void AppendWindowTo(std::vector<double>* out) const {
    const uint64_t published = count_.load(std::memory_order_acquire);
    const uint64_t n =
        published < samples_.size() ? published : samples_.size();
    for (uint64_t i = 0; i < n; ++i) {
      out->push_back(samples_[i].load(std::memory_order_relaxed));
    }
  }

 private:
  std::vector<std::atomic<double>> samples_;
  std::atomic<uint64_t> count_{0};  // total ever recorded
};

/// \brief Exact percentile of `samples` (modified in place: sorted).
/// Nearest-rank on the sorted merged window — index floor(p * (n - 1)) —
/// applied AFTER merging the per-worker windows so concurrency cannot
/// skew the report (averaging per-worker percentiles would). Returns 0
/// for an empty set.
inline double MergedPercentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = std::min(
      samples->size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples->size() - 1)));
  return (*samples)[idx];
}

}  // namespace ocular

#endif  // OCULAR_SERVING_METRICS_H_
