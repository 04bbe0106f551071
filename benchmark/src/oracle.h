// Reply checking against the offline oracle. Checks on the timed path are
// cheap (a prefix test, a hash per reply); parsing and comparing against
// the oracle's ranked list happens after a phase ends, once per key.

#ifndef OCULAR_BENCHMARK_ORACLE_H_
#define OCULAR_BENCHMARK_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/recommender.h"

namespace ocular::bench {

/// True when `line` starts like a successful reply ({"ok":true).
bool IsOkReply(std::string_view line);

/// "" when `got` equals `expect` exactly — same ids, bit-identical
/// scores, same order; otherwise a description of the first difference.
/// The in-process comparison: no wire rounding in between.
std::string RankedListMismatch(std::span<const ScoredItem> got,
                               std::span<const ScoredItem> expect);

/// "" when ReplyMatchesRanked accepts `line` against `expect`; otherwise
/// a description of the reply and the oracle for the failure report.
std::string RankedReplyMismatch(const std::string& line,
                                std::span<const ScoredItem> expect);

/// Structural check for replies whose content legitimately changes under
/// live updates: an ok reply carrying exactly `m` ranked items.
bool HasRankedShape(std::string_view line, uint32_t m);

/// Per-key reply consistency on the timed path: the first reply of each
/// key is kept, later replies must hash identically.
class ReplyLog {
 public:
  struct Entry {
    uint64_t hash = 0;
    uint64_t count = 0;
    std::string first;
  };

  explicit ReplyLog(size_t num_keys) : entries_(num_keys) {}

  /// Records a reply for `key`; false when it differs from the key's first
  /// reply (the caller counts that reply as failed).
  bool Observe(uint32_t key, std::string_view line);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_ORACLE_H_
