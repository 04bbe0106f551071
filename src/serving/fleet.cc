#include "serving/fleet.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "common/json.h"
#include "common/strings.h"
#include "serving/net_util.h"
#include "serving/retry.h"

namespace ocular {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Extracts one complete line from `*buffer` (newline stripped).
bool TakeLine(std::string* buffer, std::string* line) {
  const size_t newline = buffer->find('\n');
  if (newline == std::string::npos) return false;
  line->assign(*buffer, 0, newline);
  buffer->erase(0, newline + 1);
  return true;
}

enum class WaitOutcome { kLine, kTimeout, kFailed };

/// Waits up to `timeout_ms` for one complete reply line on `fd`,
/// buffering surplus bytes in `*buffer` across calls. poll() owns the
/// timing (the socket's SO_RCVTIMEO is only a backstop), so a caller
/// can wait a hedge threshold that is much shorter than the I/O
/// deadline without reconfiguring the socket per request.
WaitOutcome WaitForLine(int fd, std::string* buffer, uint32_t timeout_ms,
                        std::string* line) {
  const int64_t deadline = SteadyNowMs() + timeout_ms;
  for (;;) {
    if (TakeLine(buffer, line)) return WaitOutcome::kLine;
    if (buffer->size() >= net::kDefaultMaxLineBytes) {
      return WaitOutcome::kFailed;  // newline-free garbage stream
    }
    const int64_t remaining = deadline - SteadyNowMs();
    if (remaining <= 0) return WaitOutcome::kTimeout;
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    const int pr = ::poll(&p, 1, static_cast<int>(
                                     std::min<int64_t>(remaining, 60'000)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return WaitOutcome::kFailed;
    }
    if (pr == 0) continue;  // deadline re-checked at the top
    char chunk[16384];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return WaitOutcome::kFailed;
    }
    if (n == 0) return WaitOutcome::kFailed;  // EOF mid-reply
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

constexpr char kPingLine[] = "{\"cmd\":\"ping\"}";

}  // namespace

const char* ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kHealthy:
      return "healthy";
    case ReplicaState::kEjected:
      return "ejected";
    case ReplicaState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

int64_t ReplicaHealth::ReopenDelayMs() const {
  const uint32_t shift =
      reopen_round_ > 0 ? std::min<uint32_t>(reopen_round_ - 1, 10) : 0;
  return static_cast<int64_t>(
      std::min<uint64_t>(options_.reopen_cap_ms,
                         static_cast<uint64_t>(options_.reopen_after_ms)
                             << shift));
}

void ReplicaHealth::OnSuccess(int64_t now_ms) {
  switch (state_) {
    case ReplicaState::kHealthy:
      consecutive_failures_ = 0;
      break;
    case ReplicaState::kHalfOpen:
      state_ = ReplicaState::kHealthy;
      ++readmissions_;
      consecutive_failures_ = 0;
      reopen_round_ = 0;
      soft_until_ms_ = 0;
      break;
    case ReplicaState::kEjected:
      // Stale report: an in-flight request that resolved against a
      // replica ejected since. Readmission goes through a half-open
      // probe only, so a lucky straggler cannot readmit a flapping
      // replica out of order.
      break;
  }
  (void)now_ms;
}

void ReplicaHealth::OnFailure(int64_t now_ms) {
  switch (state_) {
    case ReplicaState::kHealthy:
      if (++consecutive_failures_ >= options_.fail_threshold) {
        state_ = ReplicaState::kEjected;
        ++ejections_;
        reopen_round_ = 1;
        reopen_at_ms_ = now_ms + ReopenDelayMs();
      }
      break;
    case ReplicaState::kHalfOpen:
      // The trial probe failed: same outage, not a new ejection — the
      // counter stays put so integration drills can assert it exactly —
      // but the reopen delay doubles so a dead replica is probed ever
      // more lazily.
      state_ = ReplicaState::kEjected;
      ++reopen_round_;
      reopen_at_ms_ = now_ms + ReopenDelayMs();
      break;
    case ReplicaState::kEjected:
      break;  // stale report
  }
}

void ReplicaHealth::OnShed(int64_t now_ms, uint64_t retry_after_ms) {
  // Soft ejection: alive and well-behaved, just overloaded. Honor the
  // window it asked for (never shrinking one already in force) and
  // leave the failure count alone.
  const int64_t until =
      now_ms + static_cast<int64_t>(retry::ClampRetryAfterMs(retry_after_ms));
  soft_until_ms_ = std::max(soft_until_ms_, until);
}

bool ReplicaHealth::MaybeHalfOpen(int64_t now_ms) {
  if (state_ != ReplicaState::kEjected || now_ms < reopen_at_ms_) {
    return false;
  }
  state_ = ReplicaState::kHalfOpen;
  return true;
}

void FleetRouteOrder(uint64_t key, uint32_t num_replicas,
                     std::vector<uint32_t>* out) {
  // Rendezvous hashing: weight every (key, replica) pair independently
  // and sort descending. 64 bits of weight make ties effectively
  // impossible; the index tiebreak keeps the order total anyway.
  std::vector<std::pair<uint64_t, uint32_t>> weighted;
  weighted.reserve(num_replicas);
  for (uint32_t r = 0; r < num_replicas; ++r) {
    weighted.emplace_back(
        Mix64(key * 0x9e3779b97f4a7c15ULL ^
              (static_cast<uint64_t>(r) + 1) * 0xbf58476d1ce4e5b9ULL),
        r);
  }
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [weight, r] : weighted) out->push_back(r);
}

/// Everything one front-tier thread owns: its keep-alive backend
/// connections (one per replica, connected on demand, closed on any
/// failure so the next request starts clean). Shared-nothing, like the
/// daemon's WorkerState.
struct FleetServer::WorkerSlot {
  struct Backend {
    int fd = -1;
    std::string buffer;  // read-ahead bytes of this replica's stream
  };
  std::vector<Backend> backends;
  std::string send_scratch;
  std::vector<uint32_t> order_scratch;
  std::vector<uint32_t> routable_scratch;

  void CloseAll() {
    for (Backend& b : backends) {
      if (b.fd >= 0) ::close(b.fd);
      b.fd = -1;
      b.buffer.clear();
    }
  }
};

// The front door takes the fleet's own transport fields and the core's
// defaults for everything the fleet does not expose.
FleetServer::FleetServer(Options options)
    : options_(std::move(options)),
      lines_({.accept_queue = options_.accept_queue,
              .max_request_bytes = options_.max_request_bytes,
              .io_timeout_ms = options_.io_timeout_ms,
              .retry_after_ms = options_.retry_after_ms},
             options_.num_workers, this) {
  const size_t n = options_.replicas.size();
  health_.assign(n, ReplicaHealth(options_.health));
  replica_forwards_.assign(n, 0);
  replica_failures_.assign(n, 0);
  // Pool slots, then the inline HandleLine slot, then the prober's.
  for (size_t i = 0; i < options_.num_workers + 2; ++i) {
    auto slot = std::make_unique<WorkerSlot>();
    slot->backends.resize(n);
    slots_.push_back(std::move(slot));
  }
}

FleetServer::~FleetServer() {
  for (auto& slot : slots_) slot->CloseAll();
}

int64_t FleetServer::NowMs() const { return SteadyNowMs(); }

bool FleetServer::EnsureBackend(WorkerSlot* w, uint32_t replica) {
  WorkerSlot::Backend& b = w->backends[replica];
  if (b.fd >= 0) {
    // Pool hygiene: a kept-alive connection with unsolicited pending
    // bytes (an idle-reap 408 the replica sent before closing) or an EOF
    // would pair a stale line with the next request and desync the
    // stream — recycle it instead of reusing it.
    struct pollfd pfd;
    pfd.fd = b.fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (!b.buffer.empty() || ::poll(&pfd, 1, 0) != 0) {
      CloseBackend(w, replica);
    }
  }
  if (b.fd >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.io_timeout_ms > 0) {
    // Backstop deadlines; per-request timing is poll()-driven
    // (WaitForLine), these only bound a send against a wedged replica.
    struct timeval tv;
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = static_cast<long>(options_.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.replicas[replica]);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  b.fd = fd;
  b.buffer.clear();
  return true;
}

void FleetServer::CloseBackend(WorkerSlot* w, uint32_t replica) {
  WorkerSlot::Backend& b = w->backends[replica];
  if (b.fd >= 0) ::close(b.fd);
  b.fd = -1;
  b.buffer.clear();
}

bool FleetServer::SendRequest(WorkerSlot* w, uint32_t replica,
                              const std::string& line) {
  // Injected routing failure ("fleet.route"): the forward is dropped
  // before any byte goes out — indistinguishable from a replica that
  // reset the connection, which is exactly the failover drill.
  if (fault::Maybe("fleet.route")) {
    CloseBackend(w, replica);
    return false;
  }
  if (!EnsureBackend(w, replica)) return false;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    ++replica_forwards_[replica];
  }
  w->send_scratch.assign(line);
  w->send_scratch.push_back('\n');
  if (!net::SendAll(w->backends[replica].fd, w->send_scratch.data(),
                    w->send_scratch.size())) {
    CloseBackend(w, replica);
    return false;
  }
  return true;
}

FleetServer::ForwardOutcome FleetServer::ClassifyReply(
    WorkerSlot* w, uint32_t replica, const std::string& reply,
    uint64_t* shed_hint_ms) {
  // Every daemon reply is a JSON object; anything else means the stream
  // is torn or the peer is not speaking the protocol — treat it as a
  // hard failure and start the next request on a fresh connection.
  if (!StartsWith(reply, "{")) {
    CloseBackend(w, replica);
    return ForwardOutcome::kFailed;
  }
  if (retry::ParseShedReply(reply, shed_hint_ms)) {
    // A replica sheds at accept time and closes right after the 503, so
    // this connection is done either way.
    CloseBackend(w, replica);
    return ForwardOutcome::kShed;
  }
  return ForwardOutcome::kReply;
}

FleetServer::ForwardOutcome FleetServer::ForwardOnce(
    WorkerSlot* w, uint32_t replica, const std::string& line,
    uint32_t timeout_ms, std::string* reply, uint64_t* shed_hint_ms) {
  // A pooled connection can die legitimately between requests (idle
  // reap, replica restart on the same port), so a torn stream on a
  // REUSED connection earns one fresh reconnect before it counts
  // against the replica's health. A fresh-connection failure — and any
  // deadline, which is real lateness — does not.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = w->backends[replica].fd >= 0;
    if (!SendRequest(w, replica, line)) {
      if (reused && attempt == 0) continue;
      return ForwardOutcome::kFailed;
    }
    WorkerSlot::Backend& b = w->backends[replica];
    const WaitOutcome wait = WaitForLine(b.fd, &b.buffer, timeout_ms, reply);
    if (wait == WaitOutcome::kLine) {
      return ClassifyReply(w, replica, *reply, shed_hint_ms);
    }
    CloseBackend(w, replica);
    if (wait == WaitOutcome::kFailed && reused && attempt == 0) continue;
    return ForwardOutcome::kFailed;
  }
  return ForwardOutcome::kFailed;
}

void FleetServer::ReportSuccess(uint32_t replica) {
  const int64_t now = NowMs();
  std::lock_guard<std::mutex> lock(health_mu_);
  const ReplicaState before = health_[replica].state();
  health_[replica].OnSuccess(now);
  if (before == ReplicaState::kHalfOpen &&
      health_[replica].state() == ReplicaState::kHealthy) {
    std::fprintf(stderr, "fleet: replica 127.0.0.1:%u readmitted\n",
                 options_.replicas[replica]);
  }
}

void FleetServer::ReportFailure(uint32_t replica) {
  const int64_t now = NowMs();
  std::lock_guard<std::mutex> lock(health_mu_);
  ++replica_failures_[replica];
  const ReplicaState before = health_[replica].state();
  health_[replica].OnFailure(now);
  const ReplicaState after = health_[replica].state();
  if (before == ReplicaState::kHealthy && after == ReplicaState::kEjected) {
    std::fprintf(stderr,
                 "fleet: replica 127.0.0.1:%u ejected after %u consecutive "
                 "failures (half-open probe in %lld ms)\n",
                 options_.replicas[replica],
                 health_[replica].consecutive_failures(),
                 static_cast<long long>(health_[replica].reopen_at_ms() - now));
  } else if (before == ReplicaState::kHalfOpen &&
             after == ReplicaState::kEjected) {
    std::fprintf(stderr,
                 "fleet: replica 127.0.0.1:%u half-open probe failed, still "
                 "ejected (next probe in %lld ms)\n",
                 options_.replicas[replica],
                 static_cast<long long>(health_[replica].reopen_at_ms() - now));
  }
}

void FleetServer::ReportShed(uint32_t replica, uint64_t retry_after_ms) {
  const int64_t now = NowMs();
  std::lock_guard<std::mutex> lock(health_mu_);
  health_[replica].OnShed(now, retry_after_ms);
  std::fprintf(stderr,
               "fleet: replica 127.0.0.1:%u shedding, routing around for "
               "%llu ms\n",
               options_.replicas[replica],
               static_cast<unsigned long long>(
                   retry::ClampRetryAfterMs(retry_after_ms)));
}

std::string FleetServer::NoHealthyReply() {
  // Never hang a client on an empty rotation: answer 503 now, with a
  // hint derived from the soonest any replica can return (end of a
  // soft-shed window, an ejected replica's reopen time, or one probe
  // tick for a half-open trial already underway).
  int64_t best = -1;
  {
    const int64_t now = NowMs();
    std::lock_guard<std::mutex> lock(health_mu_);
    for (const ReplicaHealth& h : health_) {
      int64_t eta = 0;
      switch (h.state()) {
        case ReplicaState::kHealthy:
          eta = std::max<int64_t>(h.soft_until_ms() - now, 0);
          break;
        case ReplicaState::kEjected:
          eta = std::max<int64_t>(h.reopen_at_ms() - now, 1);
          break;
        case ReplicaState::kHalfOpen:
          eta = options_.probe_interval_ms;
          break;
      }
      if (best < 0 || eta < best) best = eta;
    }
  }
  uint64_t hint = options_.retry_after_ms;
  if (best > 0) hint = retry::ClampRetryAfterMs(static_cast<uint64_t>(best));
  return CodedErrorReply(
      "no healthy replica: fleet is shedding, retry later", 503, hint);
}

std::string FleetServer::FleetPingReply() {
  size_t healthy = 0;
  {
    const int64_t now = NowMs();
    std::lock_guard<std::mutex> lock(health_mu_);
    for (const ReplicaHealth& h : health_) {
      if (h.Routable(now)) ++healthy;
    }
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("fleet");
  w.Bool(true);
  w.Key("uptime_ms");
  w.UInt(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count()));
  w.Key("replicas");
  w.UInt(options_.replicas.size());
  w.Key("healthy");
  w.UInt(healthy);
  w.EndObject();
  return w.str();
}

std::string RenderFleetStats(const FleetStatsSnapshot& s) {
  uint64_t ejections = 0;
  uint64_t readmissions = 0;
  for (const FleetReplicaStats& rs : s.replicas) {
    ejections += rs.ejections;
    readmissions += rs.readmissions;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("fleet");
  w.Bool(true);
  WriteMetrics<FleetMetrics>(s.fleet, &w);
  WriteMetrics<ConnMetrics>(s.conn, &w);
  w.Key("ejections");
  w.UInt(ejections);
  w.Key("readmissions");
  w.UInt(readmissions);
  w.Key("replicas");
  w.BeginArray();
  for (const FleetReplicaStats& rs : s.replicas) {
    w.BeginObject();
    w.Key("port");
    w.UInt(rs.port);
    w.Key("state");
    w.String(ReplicaStateName(rs.state));
    w.Key("forwards");
    w.UInt(rs.forwards);
    w.Key("failures");
    w.UInt(rs.failures);
    w.Key("ejections");
    w.UInt(rs.ejections);
    w.Key("readmissions");
    w.UInt(rs.readmissions);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

FleetStatsSnapshot FleetServer::Stats() const {
  FleetStatsSnapshot s;
  s.conn = lines_.Stats();
  metrics_.MergeInto(&s.fleet);
  std::lock_guard<std::mutex> lock(health_mu_);
  s.replicas.reserve(health_.size());
  for (size_t r = 0; r < health_.size(); ++r) {
    FleetReplicaStats rs;
    rs.port = options_.replicas[r];
    rs.state = health_[r].state();
    rs.forwards = replica_forwards_[r];
    rs.failures = replica_failures_[r];
    rs.ejections = health_[r].ejections();
    rs.readmissions = health_[r].readmissions();
    s.replicas.push_back(rs);
  }
  return s;
}

std::string FleetServer::HedgedForward(WorkerSlot* w, const std::string& line,
                                       uint32_t primary, uint32_t hedge) {
  std::string reply;
  uint64_t shed_hint = options_.retry_after_ms;
  const auto forward_on_hedge = [&]() -> std::string {
    // The primary is out of the picture; the hedge replica carries the
    // bounded retry.
    const ForwardOutcome out = ForwardOnce(w, hedge, line,
                                           options_.io_timeout_ms, &reply,
                                           &shed_hint);
    if (out == ForwardOutcome::kReply) {
      ReportSuccess(hedge);
      metrics_.Add(FleetMetrics::kFailovers);
      return reply;
    }
    if (out == ForwardOutcome::kShed) {
      ReportShed(hedge, shed_hint);
    } else {
      ReportFailure(hedge);
    }
    metrics_.Add(FleetMetrics::kNoHealthy503s);
    return NoHealthyReply();
  };

  if (!SendRequest(w, primary, line)) {
    ReportFailure(primary);
    return forward_on_hedge();
  }
  WorkerSlot::Backend& pb = w->backends[primary];
  // Give the primary its hedge window alone.
  WaitOutcome wait =
      WaitForLine(pb.fd, &pb.buffer, options_.hedge_after_ms, &reply);
  if (wait == WaitOutcome::kLine) {
    const ForwardOutcome out = ClassifyReply(w, primary, reply, &shed_hint);
    if (out == ForwardOutcome::kReply) {
      ReportSuccess(primary);
      return reply;
    }
    if (out == ForwardOutcome::kShed) {
      ReportShed(primary, shed_hint);
    } else {
      ReportFailure(primary);
    }
    return forward_on_hedge();
  }
  if (wait == WaitOutcome::kFailed) {
    CloseBackend(w, primary);
    ReportFailure(primary);
    return forward_on_hedge();
  }

  // Hedge window expired with the primary silent: issue the copy and
  // race the two replicas for the first complete reply. Safe because
  // the forwarded verbs are idempotent reads — both replicas may
  // execute the request; only one reply reaches the client.
  metrics_.Add(FleetMetrics::kHedgesSent);
  bool hedge_up = SendRequest(w, hedge, line);
  if (!hedge_up) ReportFailure(hedge);
  bool primary_up = true;
  const int64_t deadline = SteadyNowMs() + options_.io_timeout_ms;
  while ((primary_up || hedge_up) && SteadyNowMs() < deadline) {
    // Buffered-line check first: a reply may already be framed.
    for (const bool is_hedge : {false, true}) {
      const uint32_t r = is_hedge ? hedge : primary;
      const bool up = is_hedge ? hedge_up : primary_up;
      if (!up) continue;
      WorkerSlot::Backend& b = w->backends[r];
      if (!TakeLine(&b.buffer, &reply)) continue;
      const ForwardOutcome out = ClassifyReply(w, r, reply, &shed_hint);
      if (out == ForwardOutcome::kReply) {
        ReportSuccess(r);
        // Cancel-by-close the loser: its reply (if it ever comes) would
        // otherwise sit first in the keep-alive stream and desync every
        // request after it.
        if (is_hedge) {
          metrics_.Add(FleetMetrics::kHedgesWon);
          if (primary_up) CloseBackend(w, primary);
        } else {
          if (hedge_up) CloseBackend(w, hedge);
        }
        return reply;
      }
      if (out == ForwardOutcome::kShed) {
        ReportShed(r, shed_hint);
      } else {
        ReportFailure(r);
      }
      if (is_hedge) {
        hedge_up = false;
      } else {
        primary_up = false;
      }
    }
    if (!primary_up && !hedge_up) break;
    struct pollfd pfds[2];
    nfds_t nfds = 0;
    int primary_slot = -1;
    int hedge_slot = -1;
    if (primary_up) {
      primary_slot = static_cast<int>(nfds);
      pfds[nfds].fd = w->backends[primary].fd;
      pfds[nfds].events = POLLIN;
      pfds[nfds].revents = 0;
      ++nfds;
    }
    if (hedge_up) {
      hedge_slot = static_cast<int>(nfds);
      pfds[nfds].fd = w->backends[hedge].fd;
      pfds[nfds].events = POLLIN;
      pfds[nfds].revents = 0;
      ++nfds;
    }
    const int64_t remaining = deadline - SteadyNowMs();
    if (remaining <= 0) break;
    const int pr = ::poll(pfds, nfds, static_cast<int>(remaining));
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) break;  // overall deadline
    for (const bool is_hedge : {false, true}) {
      const int slot = is_hedge ? hedge_slot : primary_slot;
      if (slot < 0 || pfds[slot].revents == 0) continue;
      const uint32_t r = is_hedge ? hedge : primary;
      WorkerSlot::Backend& b = w->backends[r];
      char chunk[16384];
      const ssize_t n = ::read(b.fd, chunk, sizeof(chunk));
      if (n > 0) {
        b.buffer.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        continue;
      }
      CloseBackend(w, r);
      ReportFailure(r);
      if (is_hedge) {
        hedge_up = false;
      } else {
        primary_up = false;
      }
    }
  }
  // Both legs died or the whole deadline elapsed with no complete reply.
  if (primary_up) {
    CloseBackend(w, primary);
    ReportFailure(primary);
  }
  if (hedge_up) {
    CloseBackend(w, hedge);
    ReportFailure(hedge);
  }
  metrics_.Add(FleetMetrics::kNoHealthy503s);
  return NoHealthyReply();
}

std::string FleetServer::ProxyRouted(WorkerSlot* w, const std::string& line,
                                     const std::vector<uint32_t>& order) {
  // Routability snapshot, in route order. Taken once per request: a
  // state flip mid-request is caught by the forward itself failing.
  std::vector<uint32_t>& routable = w->routable_scratch;
  routable.clear();
  {
    const int64_t now = NowMs();
    std::lock_guard<std::mutex> lock(health_mu_);
    for (const uint32_t r : order) {
      if (health_[r].Routable(now)) routable.push_back(r);
    }
  }
  if (routable.empty()) {
    metrics_.Add(FleetMetrics::kNoHealthy503s);
    return NoHealthyReply();
  }
  if (options_.hedge_after_ms > 0 && routable.size() >= 2) {
    return HedgedForward(w, line, routable[0], routable[1]);
  }
  // Primary plus at most one bounded retry on the next healthy replica
  // in hash order. One retry is the sweet spot: it absorbs any single
  // replica failure, and a fleet-wide outage degenerates to two fast
  // failures and a 503, not a retry storm.
  const size_t attempts = std::min<size_t>(2, routable.size());
  std::string reply;
  uint64_t shed_hint = options_.retry_after_ms;
  for (size_t i = 0; i < attempts; ++i) {
    const uint32_t r = routable[i];
    const ForwardOutcome out =
        ForwardOnce(w, r, line, options_.io_timeout_ms, &reply, &shed_hint);
    if (out == ForwardOutcome::kReply) {
      ReportSuccess(r);
      if (i > 0) metrics_.Add(FleetMetrics::kFailovers);
      return reply;
    }
    if (out == ForwardOutcome::kShed) {
      ReportShed(r, shed_hint);
    } else {
      ReportFailure(r);
    }
  }
  metrics_.Add(FleetMetrics::kNoHealthy503s);
  return NoHealthyReply();
}

std::string FleetServer::ProxyOne(WorkerSlot* w, const std::string& line,
                                  bool* quit) {
  metrics_.Add(FleetMetrics::kRequestsProxied);
  auto parsed = JsonValue::Parse(line);
  std::string cmd = "recommend";
  bool has_user = false;
  uint64_t user_key = 0;
  if (parsed.ok() && parsed->is_object()) {
    if (const JsonValue* c = parsed->Find("cmd");
        c != nullptr && c->is_string()) {
      cmd = c->string();
    }
    // Only an id the daemon accepts (an integer in [0, UINT32_MAX]) is a
    // routing key: casting any other double is undefined or truncates.
    if (const JsonValue* u = parsed->Find("user");
        u != nullptr && u->is_number() && u->number() >= 0.0 &&
        u->number() <= UINT32_MAX && u->number() == std::floor(u->number())) {
      has_user = true;
      user_key = static_cast<uint64_t>(u->number());
    }
    if (cmd == "ping") return FleetPingReply();
    if (cmd == "stats") return RenderFleetStats(Stats());
    if (cmd == "quit") {
      *quit = true;
      JsonWriter writer;
      writer.BeginObject();
      writer.Key("ok");
      writer.Bool(true);
      writer.Key("bye");
      writer.Bool(true);
      writer.EndObject();
      return writer.str();
    }
    if (cmd == "update" || cmd == "reload") {
      // Forwarding a mutation to ONE replica would silently fork the
      // fleet's models — replies would stop being bit-identical across
      // replicas, the core serving contract. Mutations go to each
      // replica directly (see the OPERATIONS.md fleet runbook).
      metrics_.Add(FleetMetrics::kRejectedVerbs);
      return CodedErrorReply(
          "'" + cmd +
              "' is not served through the fleet front tier: apply it to "
              "each replica directly, or it would fork the fleet's models",
          501);
    }
  }
  // Everything else is forwarded verbatim — including unparseable lines
  // (the replica's parser owns the error shape) and unknown verbs, so a
  // fleet client sees exactly the replies a single-daemon client would.
  const uint32_t n = static_cast<uint32_t>(options_.replicas.size());
  std::vector<uint32_t>& order = w->order_scratch;
  order.clear();
  if (has_user) {
    FleetRouteOrder(user_key, n, &order);
  } else {
    // User-less verbs (history fold-in, models, garbage): no cache
    // affinity to preserve, spread round-robin.
    const uint64_t start =
        rr_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
    for (uint32_t i = 0; i < n; ++i) {
      order.push_back(static_cast<uint32_t>((start + i) % n));
    }
  }
  return ProxyRouted(w, line, order);
}

std::string FleetServer::HandleLine(const std::string& line) {
  bool quit = false;
  // The inline slot sits right after the pool slots.
  return ProxyOne(slots_[options_.num_workers].get(), line, &quit);
}

std::string FleetServer::Serve(size_t worker, const std::string& line,
                               bool* quit) {
  return ProxyOne(slots_[worker].get(), line, quit);
}

void FleetServer::ProbeReplica(uint32_t replica) {
  {
    const int64_t now = NowMs();
    std::lock_guard<std::mutex> lock(health_mu_);
    ReplicaHealth& h = health_[replica];
    if (h.state() == ReplicaState::kEjected) {
      if (!h.MaybeHalfOpen(now)) return;  // still waiting out the backoff
      std::fprintf(stderr,
                   "fleet: replica 127.0.0.1:%u half-open, probing\n",
                   options_.replicas[replica]);
    }
  }
  // kHealthy or kHalfOpen: one ping decides. The prober has its own
  // backend slot (the last one), so probes never contend with request
  // traffic for a connection.
  metrics_.Add(FleetMetrics::kProbesSent);
  WorkerSlot* w = slots_.back().get();
  std::string reply;
  uint64_t shed_hint = options_.retry_after_ms;
  const ForwardOutcome out =
      ForwardOnce(w, replica, kPingLine, options_.io_timeout_ms, &reply,
                  &shed_hint);
  switch (out) {
    case ForwardOutcome::kReply:
      ReportSuccess(replica);
      break;
    case ForwardOutcome::kShed:
      // An overloaded replica is alive; honor its window, don't eject.
      ReportShed(replica, shed_hint);
      break;
    case ForwardOutcome::kFailed:
      metrics_.Add(FleetMetrics::kProbeFailures);
      ReportFailure(replica);
      break;
  }
}

void FleetServer::RunProber() {
  const uint32_t interval =
      std::max<uint32_t>(options_.probe_interval_ms, 10);
  // Probing continues through a drain (its forwards still route on
  // health); RunLoop releases the prober once the front door is done.
  while (!stop_.load(std::memory_order_relaxed)) {
    for (uint32_t r = 0; r < options_.replicas.size(); ++r) {
      if (stop_.load(std::memory_order_relaxed)) break;
      ProbeReplica(r);
    }
    // Sleep the interval in small ticks so the release is honored
    // promptly even with a lazy probe cadence.
    const int64_t wake = SteadyNowMs() + interval;
    while (SteadyNowMs() < wake && !stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  slots_.back()->CloseAll();
}

Status FleetServer::RunLoop(uint16_t port, uint64_t max_connections) {
  if (options_.replicas.empty()) {
    return Status::InvalidArgument("fleet needs at least one replica");
  }
  stop_.store(false, std::memory_order_relaxed);
  std::thread prober([this] { RunProber(); });
  const Status status = lines_.Run(port, max_connections);
  stop_.store(true, std::memory_order_relaxed);  // release the prober
  prober.join();
  for (size_t i = 0; i < options_.num_workers; ++i) slots_[i]->CloseAll();
  if (lines_.drained_on_shutdown()) {
    std::fprintf(stderr, "fleet drained: %s\n",
                 RenderFleetStats(Stats()).c_str());
  }
  return status;
}

}  // namespace ocular
