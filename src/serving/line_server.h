#ifndef OCULAR_SERVING_LINE_SERVER_H_
#define OCULAR_SERVING_LINE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "serving/metrics.h"

namespace ocular {

/// \file
/// \brief LineServer, the one connection core of the daemon and the
/// fleet front tier (docs/ARCHITECTURE.md, "Concurrent serving core").

/// \brief The connection core's counters, kept by a LineServer's IO
/// thread and reported by both the daemon's and the fleet's `stats`
/// replies (see OCULAR_METRIC_TABLE).
#define OCULAR_CONN_METRICS(ROW)                                            \
  ROW(kShed, "connections_shed", kSum,                                      \
      "connections refused with a 503 at admission (cap or no free fd)")    \
  ROW(kTimedOut, "connections_timed_out", kSum,                             \
      "connections closed with a 408 after the idle timeout")               \
  ROW(kOpen, "connections_open", kSum,                                      \
      "connections open now (a gauge: accepted minus closed)")              \
  ROW(kCapped, "connections_capped", kSum,                                  \
      "503 sheds made because the connection cap was reached")              \
  ROW(kSlowClosed, "connections_slow_closed", kSum,                         \
      "connections dropped as slow consumers (backlog cap or write stall)") \
  ROW(kAcceptEmfile, "accept_emfile", kSum,                                 \
      "accept() failures with EMFILE or ENFILE, each shed with a 503")      \
  ROW(kPeakOutbound, "peak_outbound_bytes", kMax,                           \
      "the largest reply backlog one connection has held, in bytes")
/// \cond
OCULAR_METRIC_TABLE(ConnMetrics, OCULAR_CONN_METRICS);
/// \endcond

/// \brief One serving loop's view of the process's drain requests.
///
/// SIGTERM, SIGINT and LineServer::RequestShutdown each bump one
/// process-wide epoch. A watch remembers the epoch it was armed at, so
/// every loop in a process observes every request for itself, and no
/// loop can take a request from another. A watch armed before the
/// signal handler is installed also answers a request that lands while
/// the process is still loading, as soon as its loop starts.
class ShutdownWatch {
 public:
  /// \brief Armed at the current epoch.
  ShutdownWatch();
  /// \brief True once a drain has been requested since the watch was
  /// armed.
  bool Requested() const;
  /// \brief Arms the watch at the current epoch: a loop that has drained
  /// serves afresh when it next runs.
  void Rearm();

 private:
  uint64_t armed_at_;
};

/// \brief `{"ok":false,"error":message,"code":code}`, plus
/// `"retry_after_ms"` when it is nonzero: the shape of every
/// connection-level refusal (503 shed, 408 idle, 413 oversize) and of the
/// fleet's own coded errors.
std::string CodedErrorReply(const std::string& message, uint32_t code,
                            uint64_t retry_after_ms = 0);

/// \brief Loopback TCP server for a newline-delimited line protocol.
///
/// One epoll IO thread (the thread that calls Run) owns every nonblocking
/// connection and all its state (inbound line buffer, parsed lines,
/// outbound replies) and feeds a fixed worker pool through a bounded
/// dispatch queue; workers see only complete request lines, answered
/// through the Handler in chunks of at most ~256 KiB. One dispatched
/// batch in flight per connection keeps pipelined replies in request
/// order. Every connection policy lives here, the same for every caller:
/// 503 sheds at admission only (Options::max_connections, or fd
/// exhaustion via the EMFILE reserve-fd parachute) — a full dispatch
/// queue is backpressure, never a shed; 413 past
/// Options::max_request_bytes; 408 after Options::idle_timeout_ms
/// without a complete request; slow consumers (outbound cap,
/// write-progress deadline) are dropped instead of growing a buffer or
/// blocking a worker. Idle and slowloris connections cost one fd, never
/// a worker. A drain (SIGTERM latch or Stop()) closes the listener,
/// answers every complete line already read, flushes, and closes each
/// connection; Run then returns.
class LineServer {
 public:
  /// \brief Transport tunables. RequestServer::Options derives from
  /// this struct, so the daemon's flags set these fields directly.
  struct Options {
    /// Depth of the IO-thread → worker dispatch queue (parsed request
    /// batches awaiting a worker). A full queue is backpressure, not
    /// shedding: the IO thread holds the connection's parsed lines and
    /// re-dispatches after the next completion.
    size_t accept_queue = 128;
    /// Open connections the epoll core admits before shedding new
    /// accepts with a 503-style reply (0 = unlimited — bounded only by
    /// the process fd limit, which the EMFILE parachute handles).
    size_t max_connections = 0;
    /// Slow-consumer policy: a connection whose outbound reply buffer
    /// exceeds this many bytes (because the peer never drains its
    /// socket) is dropped and counted as a slow consumer.
    size_t max_outbound_bytes = 8 << 20;
    /// Longest request line a connection may send before it is answered
    /// with a 413-style reply and closed. Generous for real requests (a
    /// full-catalog exclude list is well under it); its real job is
    /// keeping a newline-free byte stream from growing a buffer until
    /// the process OOMs.
    size_t max_request_bytes = 1 << 20;
    /// IO deadline in milliseconds, enforced by the epoll loop's sweep:
    /// a connection with a nonempty outbound buffer that makes no write
    /// progress for this long is dropped (slow consumer), and the sweep
    /// itself ticks at this granularity (so idle expiry, shutdown drain,
    /// Stop(), and deadline checks are noticed within one tick). 0
    /// disables every deadline — idle reaping included — and the loop
    /// parks in epoll_wait until readiness.
    uint32_t io_timeout_ms = 1000;
    /// Close a connection with a 408-style reply after this long without
    /// one complete request line (0 = never; also disabled when
    /// io_timeout_ms is 0, which turns the sweep off). Measured against
    /// completed non-empty request lines, not received bytes, so a
    /// slow-loris peer dribbling one byte per second is reaped on
    /// schedule despite staying technically active.
    uint32_t idle_timeout_ms = 30000;
    /// Backoff hint carried in 503 shed replies ("retry_after_ms"):
    /// clients honoring it (serving/loadgen.cc does) retry after this
    /// base delay with capped exponential backoff instead of hammering a
    /// full server.
    uint32_t retry_after_ms = 50;
  };

  /// \brief What a LineServer serves. Every method but OnConnectionError
  /// runs on the worker thread with index `worker` (in [0, num_workers)).
  class Handler {
   public:
    /// \brief Answers one complete, non-empty request line (no newline)
    /// with one reply line (no newline). Setting `*quit` closes the
    /// connection after the reply; lines pipelined behind it are
    /// dropped.
    virtual std::string Serve(size_t worker, const std::string& line,
                              bool* quit) = 0;
    /// \brief Runs before the worker serves each dispatched batch (the
    /// daemon applies a latched SIGHUP reload here).
    virtual void BeginBatch(size_t worker) { (void)worker; }
    /// \brief Runs before the worker parks on an empty queue (the daemon
    /// drops its model leases here, so an idle pool pins no reloaded-away
    /// generation).
    virtual void Park(size_t worker) { (void)worker; }
    /// \brief Runs on the IO thread once per 408/413 reply it sends (the
    /// daemon counts these as errors).
    virtual void OnConnectionError() {}

   protected:
    /// \brief Not deleted through this interface.
    ~Handler() = default;
  };

  /// \brief A server that will run `num_workers` worker threads calling
  /// `handler` (not owned; must outlive every Run).
  LineServer(Options options, size_t num_workers, Handler* handler);

  /// \brief Listens on 127.0.0.1:`port` (0 = kernel-assigned; see
  /// bound_port()) with backlog SOMAXCONN and serves until a drain
  /// (a shutdown request since this server was made or its last Run
  /// returned, or Stop()) completes. With `max_accepts` > 0 it also
  /// returns once that many connections have been accepted AND every
  /// open connection has finished. Returns an error only on socket setup
  /// failure or a fatal accept/epoll error.
  Status Run(uint16_t port, uint64_t max_accepts = 0);

  /// \brief True when the last Run drained on a shutdown request
  /// (SIGTERM, SIGINT or RequestShutdown), whose owner then prints its
  /// final stats line.
  bool drained_on_shutdown() const { return drained_on_shutdown_; }

  /// \brief The port Run is listening on, or 0 when it is not. Published
  /// after listen() succeeds, so a client that reads a nonzero value can
  /// connect immediately.
  uint16_t bound_port() const {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// \brief Asks Run to drain and return. Callable from any thread;
  /// noticed within one Options::io_timeout_ms tick. A later Run serves
  /// afresh.
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  /// \brief Current connection counters (lock-free; any thread).
  MetricValues<ConnMetrics> Stats() const;

  /// \brief Installs the process-wide SIGTERM/SIGINT handler that
  /// requests a graceful drain of every serving loop (each LineServer,
  /// and the daemon's stdio loop, which just stops reading; see
  /// ShutdownWatch). Idempotent; the handler only bumps an epoch,
  /// noticed within one Options::io_timeout_ms tick — with deadlines
  /// disabled only the thread the signal lands on wakes promptly.
  static void InstallShutdownSignalHandler();
  /// \brief Requests a drain programmatically — what the SIGTERM handler
  /// does, callable from tests. Every loop then running, or started
  /// under a watch armed before this call, drains.
  static void RequestShutdown();

 private:
  struct Core;  // the epoll loop of one Run, defined in line_server.cc

  Options options_;
  size_t num_workers_;
  Handler* handler_;

  std::atomic<bool> stop_{false};
  std::atomic<uint16_t> bound_port_{0};
  ShutdownWatch shutdown_;  // read and re-armed by Run's thread
  bool drained_on_shutdown_ = false;
  MetricShard<ConnMetrics> metrics_;  // written by the IO thread only
};

}  // namespace ocular

#endif  // OCULAR_SERVING_LINE_SERVER_H_
