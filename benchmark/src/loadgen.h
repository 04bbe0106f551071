// The benchmark's load generator: one thread, one epoll loop, a few
// persistent loopback connections. It offers seeded open-loop (Poisson
// arrivals, each request timed from its scheduled send) and closed-loop
// (fixed outstanding requests per connection) traffic, plus an optional
// writer connection on which `update` lines are sent beside the reads.
// Every reply is matched to its request in order and checked on arrival.

#ifndef OCULAR_BENCHMARK_LOADGEN_H_
#define OCULAR_BENCHMARK_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "oracle.h"
#include "trace.h"

namespace ocular::bench {

/// One request of a seeded read stream.
struct Request {
  std::string line;      ///< wire bytes, newline-terminated
  uint32_t key = 0;      ///< ReplyLog key (user id, or users + history index)
  bool history = false;  ///< a fold-in (`history`) request
};

/// How read replies are checked while a phase runs.
enum class ReplyCheck {
  kPerKeyHash,  ///< the model never changes: all replies of a key identical
  kStructure,   ///< live updates change replies: ok with exactly m items
};

/// Failed requests by cause; each request counts once.
struct Failures {
  uint64_t error_replies = 0;
  uint64_t mismatches = 0;
  uint64_t timeouts = 0;
  uint64_t connection_losses = 0;  ///< refused, reset or closed connections

  uint64_t total() const {
    return error_replies + mismatches + timeouts + connection_losses;
  }
};

/// What one phase measured.
struct PhaseResult {
  std::string name;
  double offered_rate = 0.0;  ///< open loop: requests/s scheduled
  double seconds = 0.0;       ///< open: schedule length; closed: window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t history_sent = 0;
  std::vector<double> latency_ms;   ///< answered requests, from scheduled send
  std::vector<double> lateness_ms;  ///< open loop: actual minus scheduled send
  double throughput = 0.0;          ///< closed loop: completions/s in window
  /// CPU time of the generator thread over the phase's wall time: near 1
  /// means the generator, not the system, limited the phase.
  double generator_busy = 0.0;
};

class LoadSession {
 public:
  /// Longest wait for a fetched reply or an update ack.
  static constexpr double kReplyTimeoutS = 30.0;

  struct Options {
    uint16_t port = 0;
    /// Read connections (requests go round-robin over them).
    uint32_t connections = 1;
    const std::vector<Request>* stream = nullptr;
    ReplyCheck check = ReplyCheck::kPerKeyHash;
    /// Items per reply (kStructure).
    uint32_t m = 0;
    /// ReplyLog size (kPerKeyHash).
    size_t num_keys = 0;
    /// Update lines for the writer connection (nullptr = no writer).
    const std::vector<std::string>* updates = nullptr;
    /// After a phase's last send, how long replies may take before the
    /// outstanding requests count as timeouts.
    double drain_s = 5.0;
  };

  explicit LoadSession(Options options);
  ~LoadSession();
  LoadSession(const LoadSession&) = delete;
  LoadSession& operator=(const LoadSession&) = delete;

  /// Opens every connection. A refused connection is not an error here:
  /// the requests routed to it fail during the phases.
  void Connect();
  uint32_t live_connections() const;

  /// Sends a seeded Poisson stream at `rate` requests/s for `seconds`.
  /// With `trace`, records one client span per answered request.
  PhaseResult OpenLoop(const std::string& name, double rate, double seconds,
                       uint64_t seed, TraceBuffer* trace = nullptr);

  /// Keeps `depth` requests outstanding on every read connection for
  /// `warmup_s + seconds`; throughput counts the last `seconds`.
  PhaseResult ClosedLoop(const std::string& name, uint32_t depth,
                         double warmup_s, double seconds);

  /// Sends each line (newline-terminated) over the read connections and
  /// returns the replies in order ("" for a request that failed or was not
  /// answered within kReplyTimeoutS).
  std::vector<std::string> Fetch(const std::vector<std::string>& lines);

  /// Sends the next update line on the writer connection and returns at
  /// once; its ack is read by whatever phase or fetch runs next.
  void SendUpdate();
  /// Waits until no update is outstanding. An update not acked within
  /// kReplyTimeoutS counts as a timeout.
  void WaitForUpdates();

  /// Counts `n` answered requests as oracle mismatches (post-phase checks).
  void RecordMismatches(uint64_t n);

  const ReplyLog& log() const { return log_; }
  const Failures& failures() const { return failures_; }
  /// Every request and update sent or routed to a dead connection.
  uint64_t attempted() const { return attempted_; }
  uint64_t updates_sent() const { return update_sent_ns_.size(); }
  uint64_t updates_acked() const { return update_ack_ms_.size(); }
  /// Ack latency of each acknowledged update, from its send.
  const std::vector<double>& update_ack_ms() const { return update_ack_ms_; }
  /// First error reply seen (diagnostics).
  const std::string& first_error() const { return first_error_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    size_t out_sent = 0;
    bool want_write = false;
    std::deque<uint32_t> pending;  // tagged slot ids, in send order
  };
  struct Slot {
    int64_t sched_ns = 0;
    int64_t sent_ns = 0;
    uint32_t req = 0;
  };

  bool OpenConn(size_t ci);
  void CloseConn(size_t ci);
  void FailPending(size_t ci, bool timeout);
  void SendPhaseRequest(size_t ci, int64_t sched_ns, int64_t now);
  void FlushAll();
  void Flush(size_t ci);
  void Pump(int64_t wake_ns);
  void OnReadable(size_t ci, int64_t now);
  void OnLine(size_t ci, std::string_view line, int64_t now);
  void ExpireStragglers();
  size_t writer_index() const { return options_.connections; }
  bool has_writer() const { return options_.updates != nullptr; }

  Options options_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int64_t armed_ns_ = 0;
  std::vector<Conn> conns_;
  ReplyLog log_;
  Failures failures_;
  uint64_t attempted_ = 0;
  uint64_t cursor_ = 0;  // stream position, continued across phases
  std::string first_error_;

  // The phase in progress.
  PhaseResult* phase_ = nullptr;
  std::vector<Slot> slots_;
  uint64_t phase_inflight_ = 0;
  bool closed_loop_ = false;
  int64_t window_begin_ns_ = 0;
  int64_t send_end_ns_ = 0;
  uint64_t window_completions_ = 0;
  TraceBuffer* trace_ = nullptr;
  uint32_t span_request_ = 0;
  uint32_t span_write_ = 0;

  // The writer connection.
  std::vector<int64_t> update_sent_ns_;
  std::vector<double> update_ack_ms_;

  // Fetch replies in progress.
  std::vector<std::string>* fetch_out_ = nullptr;
  size_t fetch_remaining_ = 0;
};

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_LOADGEN_H_
