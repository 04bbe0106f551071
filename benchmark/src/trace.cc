#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace ocular::bench {

uint32_t TraceBuffer::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int32_t TraceBuffer::Add(uint32_t name, uint32_t track, uint64_t id,
                         int32_t parent, int64_t start_ns, int64_t end_ns) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, track, id, parent, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

Status TraceBuffer::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  int64_t base = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
               "\"args\":{\"name\":\"client (open loop)\"}},\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
               "\"args\":{\"name\":\"in-process replay\"}}",
               kClientTrack, kReplayTrack);
  for (const Span& s : spans_) {
    const double ts = static_cast<double>(s.start_ns - base) / 1e3;
    const double end = static_cast<double>(s.end_ns - base) / 1e3;
    const char* name = names_[s.name].c_str();
    if (s.track == kClientTrack) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"b\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}"
                   ",\n{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"e\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                   name, static_cast<unsigned long long>(s.id), s.track, ts,
                   name, static_cast<unsigned long long>(s.id), s.track, end);
    } else {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"replay\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu}}",
                   name, s.track, ts, end - ts,
                   static_cast<unsigned long long>(s.id));
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

std::vector<TraceBuffer::LayerTime> TraceBuffer::SelfTimes() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::vector<LayerTime> rows(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) rows[i].name = names_[i];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    LayerTime& row = rows[spans_[i].name];
    ++row.count;
    row.total_ms += ms;
    row.self_ms += ms - child_ms[i];
  }
  return rows;
}

}  // namespace ocular::bench
