// In-memory span recorder of the traced run. Spans live in a buffer
// allocated before the run; recording is a clock read and a store, and the
// buffer is written out once, at exit, as Chrome trace-event JSON (open it
// in https://ui.perfetto.dev or chrome://tracing).

#ifndef OCULAR_BENCHMARK_TRACE_H_
#define OCULAR_BENCHMARK_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ocular::bench {

class TraceBuffer {
 public:
  /// Track ids: the load generator's client spans and the in-process
  /// replay are written as separate rows of the trace.
  static constexpr uint32_t kClientTrack = 1;
  static constexpr uint32_t kReplayTrack = 2;

  /// A buffer that holds at most `capacity` spans; later spans are counted
  /// in dropped() instead of growing it.
  explicit TraceBuffer(size_t capacity) { spans_.reserve(capacity); }

  /// Index of `name` in the span-name table (call before timing starts).
  uint32_t Intern(std::string_view name);

  /// Records a finished span and returns its index (-1 when full).
  /// `parent` is the index of the enclosing span, or -1. Spans on the
  /// client track overlap in time (requests are pipelined) and are written
  /// as async events keyed by `id`.
  int32_t Add(uint32_t name, uint32_t track, uint64_t id, int32_t parent,
              int64_t start_ns, int64_t end_ns);

  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  /// Writes every span as Chrome trace-event JSON.
  Status WriteChromeJson(const std::string& path) const;

  /// A layer's time as the trace sees it: self time is the span time not
  /// covered by its child spans.
  struct LayerTime {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// One row per span name, in first-interned order.
  std::vector<LayerTime> SelfTimes() const;

 private:
  struct Span {
    uint32_t name = 0;
    uint32_t track = 0;
    uint64_t id = 0;
    int32_t parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_TRACE_H_
