#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "measure.h"

namespace ocular::bench {

namespace {

// Pending-queue entries carry their kind in the top two bits.
constexpr uint32_t kPhaseTag = 0u << 30;
constexpr uint32_t kUpdateTag = 1u << 30;
constexpr uint32_t kFetchTag = 2u << 30;
constexpr uint32_t kTagMask = 3u << 30;
constexpr uint32_t kIndexMask = ~kTagMask;

// epoll user data of the timer (connections use their index).
constexpr uint64_t kTimerToken = ~uint64_t{0};

int64_t ThreadCpuNs() {
  struct rusage ru;
  ::getrusage(RUSAGE_THREAD, &ru);
  return (static_cast<int64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
              1000000 +
          ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
         1000;
}

}  // namespace

LoadSession::LoadSession(Options options)
    : options_(options),
      conns_(options.connections + (options.updates != nullptr ? 1 : 0)),
      log_(options.num_keys) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
}

LoadSession::~LoadSession() {
  for (size_t ci = 0; ci < conns_.size(); ++ci) CloseConn(ci);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool LoadSession::OpenConn(size_t ci) {
  Conn& c = conns_[ci];
  c = Conn{};
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return false;
  }
  struct epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = ci;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return false;
  }
  c.fd = fd;
  return true;
}

void LoadSession::CloseConn(size_t ci) {
  Conn& c = conns_[ci];
  if (c.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
  }
  c.fd = -1;
  c.in.clear();
  c.out.clear();
  c.out_sent = 0;
  c.want_write = false;
}

void LoadSession::Connect() {
  for (size_t ci = 0; ci < conns_.size(); ++ci) {
    if (conns_[ci].fd < 0) OpenConn(ci);
  }
}

uint32_t LoadSession::live_connections() const {
  uint32_t live = 0;
  for (uint32_t ci = 0; ci < options_.connections; ++ci) {
    live += conns_[ci].fd >= 0 ? 1 : 0;
  }
  return live;
}

void LoadSession::FailPending(size_t ci, bool timeout) {
  Conn& c = conns_[ci];
  for (const uint32_t tagged : c.pending) {
    const uint32_t idx = tagged & kIndexMask;
    (timeout ? failures_.timeouts : failures_.connection_losses)++;
    switch (tagged & kTagMask) {
      case kPhaseTag:
        if (phase_ != nullptr) ++phase_->failed;
        --phase_inflight_;
        break;
      case kFetchTag:
        (*fetch_out_)[idx].clear();
        --fetch_remaining_;
        break;
      default:
        break;
    }
  }
  c.pending.clear();
  CloseConn(ci);
}

void LoadSession::SendPhaseRequest(size_t ci, int64_t sched_ns, int64_t now) {
  ++attempted_;
  ++phase_->attempted;
  const auto& stream = *options_.stream;
  const uint32_t req = static_cast<uint32_t>(cursor_++ % stream.size());
  if (stream[req].history) ++phase_->history_sent;
  Conn& c = conns_[ci];
  if (c.fd < 0) {
    ++failures_.connection_losses;
    ++phase_->failed;
    return;
  }
  slots_.push_back(Slot{sched_ns, now, req});
  c.pending.push_back(kPhaseTag | static_cast<uint32_t>(slots_.size() - 1));
  c.out += stream[req].line;
  ++phase_inflight_;
}

void LoadSession::Flush(size_t ci) {
  Conn& c = conns_[ci];
  while (c.fd >= 0 && c.out_sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                             c.out.size() - c.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      FailPending(ci, /*timeout=*/false);
      return;
    }
  }
  if (c.fd < 0) return;
  if (c.out_sent == c.out.size()) {
    c.out.clear();
    c.out_sent = 0;
  }
  const bool want = !c.out.empty();
  if (want != c.want_write) {
    struct epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
    ev.data.u64 = ci;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = want;
  }
}

void LoadSession::FlushAll() {
  for (size_t ci = 0; ci < conns_.size(); ++ci) {
    if (!conns_[ci].out.empty()) Flush(ci);
  }
}

void LoadSession::Pump(int64_t wake_ns) {
  if (wake_ns != armed_ns_) {
    struct itimerspec spec{};
    spec.it_value.tv_sec = wake_ns / 1000000000LL;
    spec.it_value.tv_nsec = wake_ns % 1000000000LL;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    armed_ns_ = wake_ns;
  }
  struct epoll_event events[32];
  const int n = ::epoll_wait(epoll_fd_, events, 32, -1);
  const int64_t now = NowNs();
  for (int e = 0; e < n; ++e) {
    if (events[e].data.u64 == kTimerToken) {
      uint64_t expirations = 0;
      if (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
        armed_ns_ = 0;
      }
      continue;
    }
    const size_t ci = static_cast<size_t>(events[e].data.u64);
    if (conns_[ci].fd < 0) continue;
    if (events[e].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
      OnReadable(ci, now);
    }
    if (conns_[ci].fd >= 0 && (events[e].events & EPOLLOUT)) Flush(ci);
  }
}

void LoadSession::OnReadable(size_t ci, int64_t now) {
  char buf[1 << 16];
  while (conns_[ci].fd >= 0) {
    const ssize_t n = ::recv(conns_[ci].fd, buf, sizeof(buf), 0);
    if (n > 0) {
      Conn& c = conns_[ci];
      c.in.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        OnLine(ci, std::string_view(c.in).substr(start, nl - start), now);
        start = nl + 1;
        if (conns_[ci].fd < 0) return;
      }
      c.in.erase(0, start);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    FailPending(ci, /*timeout=*/false);  // EOF or reset
    return;
  }
}

void LoadSession::OnLine(size_t ci, std::string_view line, int64_t now) {
  Conn& c = conns_[ci];
  if (c.pending.empty()) {
    // A reply nobody asked for: the stream is out of step, so nothing
    // later on this connection can be attributed.
    if (first_error_.empty()) {
      first_error_ = "unsolicited reply: " + std::string(line);
    }
    ++failures_.error_replies;
    FailPending(ci, /*timeout=*/false);
    return;
  }
  const uint32_t tagged = c.pending.front();
  c.pending.pop_front();
  const uint32_t idx = tagged & kIndexMask;
  const bool ok = IsOkReply(line);
  if (!ok && first_error_.empty()) first_error_ = std::string(line);

  if ((tagged & kTagMask) == kUpdateTag) {
    if (ok) {
      update_ack_ms_.push_back(
          static_cast<double>(now - update_sent_ns_[idx]) / 1e6);
    } else {
      ++failures_.error_replies;
    }
    return;
  }
  if ((tagged & kTagMask) == kFetchTag) {
    (*fetch_out_)[idx].assign(line);
    --fetch_remaining_;
    return;
  }

  const Slot& slot = slots_[idx];
  --phase_inflight_;
  const Request& req = (*options_.stream)[slot.req];
  bool good = ok;
  if (!ok) {
    ++failures_.error_replies;
  } else if (options_.check == ReplyCheck::kPerKeyHash
                 ? !log_.Observe(req.key, line)
                 : !HasRankedShape(line, options_.m)) {
    ++failures_.mismatches;
    good = false;
  }
  if (!good) {
    ++phase_->failed;
  } else {
    phase_->latency_ms.push_back(static_cast<double>(now - slot.sched_ns) /
                                 1e6);
    if (trace_ != nullptr) {
      const int32_t parent = trace_->Add(span_request_,
                                         TraceBuffer::kClientTrack, idx, -1,
                                         slot.sched_ns, now);
      trace_->Add(span_write_, TraceBuffer::kClientTrack, idx, parent,
                  slot.sched_ns, slot.sent_ns);
    }
  }
  if (closed_loop_) {
    if (now >= window_begin_ns_ && now <= send_end_ns_) ++window_completions_;
    if (now < send_end_ns_) SendPhaseRequest(ci, now, now);
  }
}

void LoadSession::ExpireStragglers() {
  for (size_t ci = 0; ci < options_.connections; ++ci) {
    bool phase_pending = false;
    for (const uint32_t tagged : conns_[ci].pending) {
      phase_pending |= (tagged & kTagMask) == kPhaseTag;
    }
    // Late replies would be matched to the next phase's requests, so the
    // connection is replaced.
    if (phase_pending) FailPending(ci, /*timeout=*/true);
  }
}

PhaseResult LoadSession::OpenLoop(const std::string& name, double rate,
                                  double seconds, uint64_t seed,
                                  TraceBuffer* trace) {
  PhaseResult result;
  result.name = name;
  result.offered_rate = rate;
  result.seconds = seconds;
  const std::vector<int64_t> schedule = PoissonSchedule(seed, rate, seconds);
  result.latency_ms.reserve(schedule.size());
  result.lateness_ms.reserve(schedule.size());
  Connect();
  phase_ = &result;
  slots_.clear();
  slots_.reserve(schedule.size());
  phase_inflight_ = 0;
  closed_loop_ = false;
  trace_ = trace;
  if (trace_ != nullptr) {
    span_request_ = trace_->Intern("client.request");
    span_write_ = trace_->Intern("client.write");
  }

  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  const int64_t deadline =
      t0 + static_cast<int64_t>((seconds + options_.drain_s) * 1e9);
  size_t next = 0;
  while (true) {
    int64_t now = NowNs();
    const size_t first_due = next;
    while (next < schedule.size() && t0 + schedule[next] <= now) {
      SendPhaseRequest(next % options_.connections, t0 + schedule[next], now);
      ++next;
    }
    FlushAll();
    for (size_t s = first_due; s < next; ++s) {
      result.lateness_ms.push_back(static_cast<double>(now - t0 - schedule[s]) /
                                   1e6);
    }
    if (next == schedule.size() && phase_inflight_ == 0) break;
    if (now >= deadline) break;
    int64_t wake = deadline;
    if (next < schedule.size()) wake = std::min(wake, t0 + schedule[next]);
    Pump(wake);
  }
  result.generator_busy = static_cast<double>(ThreadCpuNs() - cpu0) /
                          static_cast<double>(NowNs() - t0);
  ExpireStragglers();
  phase_ = nullptr;
  trace_ = nullptr;
  return result;
}

PhaseResult LoadSession::ClosedLoop(const std::string& name, uint32_t depth,
                                    double warmup_s, double seconds) {
  PhaseResult result;
  result.name = name;
  result.seconds = seconds;
  Connect();
  phase_ = &result;
  slots_.clear();
  phase_inflight_ = 0;
  closed_loop_ = true;
  window_completions_ = 0;

  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  window_begin_ns_ = t0 + static_cast<int64_t>(warmup_s * 1e9);
  send_end_ns_ = window_begin_ns_ + static_cast<int64_t>(seconds * 1e9);
  const int64_t deadline =
      send_end_ns_ + static_cast<int64_t>(options_.drain_s * 1e9);
  for (size_t ci = 0; ci < options_.connections; ++ci) {
    for (uint32_t d = 0; d < depth; ++d) SendPhaseRequest(ci, t0, t0);
  }
  while (true) {
    const int64_t now = NowNs();
    FlushAll();
    if (now >= send_end_ns_ && phase_inflight_ == 0) break;
    if (now >= deadline) break;
    Pump(now < send_end_ns_ ? send_end_ns_ : deadline);
  }
  result.generator_busy = static_cast<double>(ThreadCpuNs() - cpu0) /
                          static_cast<double>(NowNs() - t0);
  ExpireStragglers();
  result.throughput = static_cast<double>(window_completions_) / seconds;
  closed_loop_ = false;
  phase_ = nullptr;
  return result;
}

std::vector<std::string> LoadSession::Fetch(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out(lines.size());
  Connect();
  fetch_out_ = &out;
  fetch_remaining_ = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    ++attempted_;
    const size_t ci = i % options_.connections;
    Conn& c = conns_[ci];
    if (c.fd < 0) {
      ++failures_.connection_losses;
      continue;
    }
    c.pending.push_back(kFetchTag | static_cast<uint32_t>(i));
    c.out += lines[i];
    ++fetch_remaining_;
  }
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(kReplyTimeoutS * 1e9);
  while (fetch_remaining_ > 0 && NowNs() < deadline) {
    FlushAll();
    Pump(deadline);
  }
  for (size_t ci = 0; ci < options_.connections; ++ci) {
    if (!conns_[ci].pending.empty()) FailPending(ci, /*timeout=*/true);
  }
  fetch_out_ = nullptr;
  return out;
}

void LoadSession::SendUpdate() {
  if (!has_writer()) return;
  ++attempted_;
  Conn& c = conns_[writer_index()];
  if (c.fd < 0 && !OpenConn(writer_index())) {
    ++failures_.connection_losses;
    return;
  }
  const auto& updates = *options_.updates;
  c.pending.push_back(kUpdateTag |
                      static_cast<uint32_t>(update_sent_ns_.size()));
  c.out += updates[update_sent_ns_.size() % updates.size()];
  update_sent_ns_.push_back(NowNs());
  Flush(writer_index());
}

void LoadSession::WaitForUpdates() {
  if (!has_writer()) return;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(kReplyTimeoutS * 1e9);
  while (!conns_[writer_index()].pending.empty() && NowNs() < deadline) {
    FlushAll();
    Pump(deadline);
  }
  if (!conns_[writer_index()].pending.empty()) {
    FailPending(writer_index(), /*timeout=*/true);
  }
}

void LoadSession::RecordMismatches(uint64_t n) { failures_.mismatches += n; }

}  // namespace ocular::bench
