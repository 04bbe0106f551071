#include "oracle.h"

#include <cstdio>

#include "measure.h"
#include "serving/loadgen.h"

namespace ocular::bench {

namespace {

std::string DescribeRank(size_t r, const char* what, double got,
                         double expect) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "rank %zu: %s %.17g, oracle %.17g", r, what,
                got, expect);
  return buf;
}

}  // namespace

bool IsOkReply(std::string_view line) {
  return line.starts_with("{\"ok\":true");
}

std::string RankedListMismatch(std::span<const ScoredItem> got,
                               std::span<const ScoredItem> expect) {
  if (got.size() != expect.size()) {
    return "length " + std::to_string(got.size()) + ", oracle " +
           std::to_string(expect.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].item != expect[r].item) {
      return DescribeRank(r, "item", got[r].item, expect[r].item);
    }
    if (got[r].score != expect[r].score) {
      return DescribeRank(r, "score", got[r].score, expect[r].score);
    }
  }
  return "";
}

std::string RankedReplyMismatch(const std::string& line,
                                std::span<const ScoredItem> expect) {
  if (ReplyMatchesRanked(line, expect)) return "";
  std::string out = "reply " + line.substr(0, 240) + " differs from the " +
                    std::to_string(expect.size()) + "-item oracle";
  if (!expect.empty()) {
    char first[96];
    std::snprintf(first, sizeof(first), " (first: item %u, score %.17g)",
                  expect[0].item, WireRoundTripDouble(expect[0].score));
    out += first;
  }
  return out;
}

bool HasRankedShape(std::string_view line, uint32_t m) {
  if (!IsOkReply(line) || !line.ends_with("]}")) return false;
  const size_t items = line.find("\"items\":[");
  if (items == std::string_view::npos) return false;
  uint32_t count = 0;
  for (size_t pos = line.find("{\"item\":", items);
       pos != std::string_view::npos; pos = line.find("{\"item\":", pos + 1)) {
    ++count;
  }
  return count == m;
}

bool ReplyLog::Observe(uint32_t key, std::string_view line) {
  Entry& e = entries_[key];
  const uint64_t h = Fnv1a(line);
  if (e.count++ == 0) {
    e.hash = h;
    e.first.assign(line);
    return true;
  }
  return h == e.hash;
}

}  // namespace ocular::bench
