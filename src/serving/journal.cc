#include "serving/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/hash.h"

namespace ocular {

namespace {

// A record claiming a payload beyond this is corruption, not data: the
// largest real payload is bounded by the daemon's request-line cap.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(const std::string& in, size_t* pos, T* value) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(value, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

std::string EncodeUpdate(const UpdateRecord& record) {
  std::string payload;
  payload.reserve(40 + record.adds.size() * 8);
  AppendPod(&payload, record.base_fingerprint);
  AppendPod(&payload, record.seed);
  AppendPod(&payload, record.num_users);
  AppendPod(&payload, record.num_items);
  AppendPod(&payload, record.sweeps);
  AppendPod(&payload, uint32_t{0});  // reserved
  AppendPod(&payload, static_cast<uint64_t>(record.adds.size()));
  for (const auto& [user, item] : record.adds) {
    AppendPod(&payload, user);
    AppendPod(&payload, item);
  }
  return payload;
}

bool DecodeUpdate(const std::string& payload, UpdateRecord* record) {
  size_t pos = 0;
  uint32_t reserved = 0;
  uint64_t count = 0;
  if (!ReadPod(payload, &pos, &record->base_fingerprint) ||
      !ReadPod(payload, &pos, &record->seed) ||
      !ReadPod(payload, &pos, &record->num_users) ||
      !ReadPod(payload, &pos, &record->num_items) ||
      !ReadPod(payload, &pos, &record->sweeps) ||
      !ReadPod(payload, &pos, &reserved) || !ReadPod(payload, &pos, &count)) {
    return false;
  }
  if (count > (payload.size() - pos) / 8) return false;
  record->adds.clear();
  record->adds.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t user = 0;
    uint32_t item = 0;
    if (!ReadPod(payload, &pos, &user) || !ReadPod(payload, &pos, &item)) {
      return false;
    }
    record->adds.emplace_back(user, item);
  }
  return pos == payload.size();
}

}  // namespace

UpdateJournal::~UpdateJournal() { Close(); }

UpdateJournal::UpdateJournal(UpdateJournal&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

UpdateJournal& UpdateJournal::operator=(UpdateJournal&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

Status UpdateJournal::Open(const std::string& path) {
  Close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("open journal " + path + ": " +
                           std::strerror(errno));
  }
  fd_ = fd;
  path_ = path;
  return Status::OK();
}

void UpdateJournal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status UpdateJournal::AppendFrame(RecordType type, const std::string& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("journal is not open");
  if (fault::Maybe("journal.append")) {
    return fault::InjectedError("journal.append");
  }
  std::string frame;
  frame.reserve(16 + payload.size());
  AppendPod(&frame, static_cast<uint32_t>(type));
  AppendPod(&frame, static_cast<uint32_t>(payload.size()));
  AppendPod(&frame, Fnv1a64(payload.data(), payload.size()));
  frame += payload;
  // One write(2) per record: O_APPEND makes the offset atomic, and a
  // crash mid-write leaves at most one torn record at the tail — exactly
  // what the reader is built to discard.
  size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write journal " + path_ + ": " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (fault::Maybe("journal.fsync")) return fault::InjectedError("journal.fsync");
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync journal " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status UpdateJournal::AppendUpdate(const UpdateRecord& record) {
  return AppendFrame(RecordType::kUpdate, EncodeUpdate(record));
}

Status UpdateJournal::AppendCommit() {
  return AppendFrame(RecordType::kCommit, std::string());
}

Status UpdateJournal::AppendAbort() {
  return AppendFrame(RecordType::kAbort, std::string());
}

Result<std::vector<UpdateJournal::Record>> UpdateJournal::ReadAll(
    const std::string& path, bool* torn_tail) {
  if (torn_tail != nullptr) *torn_tail = false;
  std::vector<Record> records;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return records;  // no journal yet: empty, not error
    return Status::IOError("open journal " + path + ": " +
                           std::strerror(errno));
  }
  std::string bytes;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st =
          Status::IOError("read journal " + path + ": " + std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    bytes.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t pos = 0;
  while (pos < bytes.size()) {
    uint32_t type = 0;
    uint32_t payload_len = 0;
    uint64_t checksum = 0;
    const size_t frame_start = pos;
    if (!ReadPod(bytes, &pos, &type) || !ReadPod(bytes, &pos, &payload_len) ||
        !ReadPod(bytes, &pos, &checksum)) {
      pos = frame_start;  // torn header
      break;
    }
    if (payload_len > kMaxPayloadBytes || bytes.size() - pos < payload_len) {
      pos = frame_start;  // corrupt length or torn payload
      break;
    }
    const std::string payload = bytes.substr(pos, payload_len);
    if (Fnv1a64(payload.data(), payload.size()) != checksum) {
      pos = frame_start;  // torn/corrupt payload bytes
      break;
    }
    pos += payload_len;
    Record record;
    switch (static_cast<RecordType>(type)) {
      case RecordType::kUpdate:
        record.type = RecordType::kUpdate;
        if (!DecodeUpdate(payload, &record.update)) {
          // Checksummed but undecodable: written by something that does
          // not speak this format — stop trusting the file here.
          pos = frame_start;
          type = 0;
        }
        break;
      case RecordType::kCommit:
      case RecordType::kAbort:
        record.type = static_cast<RecordType>(type);
        break;
      default:
        pos = frame_start;  // unknown type: treat as corrupt tail
        type = 0;
        break;
    }
    if (pos == frame_start) break;
    records.push_back(std::move(record));
  }
  if (pos != bytes.size() && torn_tail != nullptr) *torn_tail = true;
  return records;
}

Result<UpdateJournal::Plan> UpdateJournal::LoadPlan(const std::string& path) {
  Plan plan;
  OCULAR_ASSIGN_OR_RETURN(std::vector<Record> records,
                          ReadAll(path, &plan.torn_tail));
  for (const Record& record : records) {
    switch (record.type) {
      case RecordType::kUpdate:
        // Back-to-back updates can only come from a crash window followed
        // by appends from a recovery-less writer; keep the newest as the
        // pending one and treat the orphaned older ones as aborted —
        // conservative, and impossible under the daemon's discipline.
        if (plan.has_pending) ++plan.aborted;
        plan.has_pending = true;
        plan.pending = record.update;
        break;
      case RecordType::kCommit:
        if (plan.has_pending) {
          plan.applied.push_back(std::move(plan.pending));
          plan.has_pending = false;
        }
        break;
      case RecordType::kAbort:
        if (plan.has_pending) {
          plan.has_pending = false;
          ++plan.aborted;
        }
        break;
    }
  }
  return plan;
}

}  // namespace ocular
