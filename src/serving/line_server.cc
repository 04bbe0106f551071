#include "serving/line_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "parallel/bounded_queue.h"
#include "serving/net_util.h"

namespace ocular {

namespace {

// SIGTERM/SIGINT drain epoch. The signal may land on any thread; every
// serving loop compares the epoch with its ShutdownWatch at its top, and
// a parked IO loop wakes either by EINTR (the handler thread) or by its
// epoll_wait deadline (everyone else — see Options::io_timeout_ms), so
// the whole process notices within one deadline tick.
std::atomic<uint64_t> g_shutdown_epoch{0};
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "the signal handler bumps the epoch");

void OnShutdownSignal(int /*signum*/) {
  g_shutdown_epoch.fetch_add(1, std::memory_order_relaxed);
}

// Replies accumulate into a per-batch buffer and go out in chunks of at
// most this many bytes: a burst of tiny requests with huge answers (a
// full-catalog `m`) cannot amplify into an unbounded buffer — peak memory
// per dispatched batch is one flush window.
constexpr size_t kReplyFlushBytes = 256 << 10;

// How long an injected "daemon.epoll" stall parks the IO thread — long
// enough to back bytes up into connection buffers (what the drill wants),
// short enough that nothing times out around it.
constexpr uint32_t kEpollStallMs = 100;

// epoll event tags below kFirstConnId are the two non-connection fds.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

// A drain (SIGTERM) that cannot finish — a peer that never drains the
// replies it is owed — is force-closed after this long.
constexpr uint32_t kDrainForceCloseMs = 30000;

// Everything the IO thread knows about one connection. IO-thread-only:
// workers never see this struct — they get copies of complete request
// lines and hand back reply bytes through the completion queue.
struct EpollConn {
  uint64_t id = 0;
  int fd = -1;
  // Unparsed inbound bytes; [0, scan_from) is already known newline-free,
  // so each received chunk is scanned exactly once (framing stays linear
  // in request size even for a byte-at-a-time sender).
  std::string inbound;
  size_t scan_from = 0;
  // Complete request lines parsed but not yet dispatched to a worker.
  std::vector<std::string> ready;
  size_t ready_bytes = 0;
  // Reply bytes not yet written; [0, out_off) already went out.
  std::string outbound;
  size_t out_off = 0;
  // The idle clock counts COMPLETED request lines, not received bytes: a
  // slow-loris peer dribbling a byte a second never advances it.
  std::chrono::steady_clock::time_point last_request;
  // Last instant the outbound buffer shrank (or became nonempty) — the
  // slow-consumer write-progress clock.
  std::chrono::steady_clock::time_point last_progress;
  // epoll interest currently armed (EPOLLIN/EPOLLOUT mask).
  uint32_t armed = EPOLLIN;
  // Exactly one dispatched batch may be in flight per connection — that
  // is what keeps pipelined replies in request order with no sequencing.
  bool inflight = false;
  // No more bytes will be read: peer EOF, oversize line, or drain.
  bool read_closed = false;
  // Close once the outbound buffer drains (a `quit` verb was answered).
  bool quit = false;
  // fd already closed; the entry lingers only until the worker's final
  // completion for it arrives, so completions never dangle.
  bool dead = false;
  // A deferred 413/408 reply to emit after in-flight lines are answered.
  uint32_t pending_fail_code = 0;
  std::string pending_fail_msg;
};

// One dispatched batch: every complete line a connection had ready.
struct ConnWork {
  uint64_t conn_id = 0;
  std::vector<std::string> lines;
};

// One chunk of a batch's replies, handed back worker → IO thread.
struct Completion {
  uint64_t conn_id = 0;
  std::string replies;
  bool final_piece = false;  // the batch is done; the conn may redispatch
  bool quit = false;         // a `quit` verb was in the batch
};

}  // namespace

std::string CodedErrorReply(const std::string& message, uint32_t code,
                            uint64_t retry_after_ms) {
  // Connection-level failures (413 oversize, 408 idle) carry a "code" so
  // clients can tell "fix your framing / you were reaped" apart from a
  // request error; the same convention 503 shed replies use.
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(false);
  w.Key("error");
  w.String(message);
  w.Key("code");
  w.UInt(code);
  if (retry_after_ms != 0) {
    w.Key("retry_after_ms");
    w.UInt(retry_after_ms);
  }
  w.EndObject();
  return w.str();
}

LineServer::LineServer(Options options, size_t num_workers, Handler* handler)
    : options_(options), num_workers_(num_workers), handler_(handler) {}

MetricValues<ConnMetrics> LineServer::Stats() const {
  MetricValues<ConnMetrics> values{};
  metrics_.MergeInto(&values);
  return values;
}

void LineServer::InstallShutdownSignalHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: the thread that takes the signal must fall out of its
  // blocking call (epoll_wait, the stdio loop's read) and see the latch.
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void LineServer::RequestShutdown() {
  g_shutdown_epoch.fetch_add(1, std::memory_order_relaxed);
}

ShutdownWatch::ShutdownWatch()
    : armed_at_(g_shutdown_epoch.load(std::memory_order_relaxed)) {}

bool ShutdownWatch::Requested() const {
  return g_shutdown_epoch.load(std::memory_order_relaxed) != armed_at_;
}

void ShutdownWatch::Rearm() {
  armed_at_ = g_shutdown_epoch.load(std::memory_order_relaxed);
}

/// The epoll readiness loop of one LineServer::Run.
///
/// One IO thread owns every socket and all per-connection state; the
/// shared-nothing workers own only compute. Data flow:
///
///   epoll_wait → read() until EAGAIN → extract complete lines
///     → dispatch ONE batch per connection to the work queue
///   worker: Handler::Serve per line → completion chunks (≤256 KiB)
///     → eventfd wakeup → IO thread appends to the conn's outbound
///     → send() until EAGAIN, EPOLLOUT for the rest
///
/// Robustness is structural: admission cap + EMFILE parachute shed with
/// 503 before a connection exists; a full work queue is backpressure
/// (lines wait on the connection, re-dispatched after completions);
/// oversized lines get 413; idle/slowloris peers get 408 from the sweep;
/// slow consumers (outbound cap or write-progress deadline) are dropped.
struct LineServer::Core {
  using Clock = std::chrono::steady_clock;

  LineServer* server;
  int listener = -1;
  uint64_t max_accepts = 0;

  int ep = -1;
  int wake_fd = -1;
  // The EMFILE parachute: one fd held in reserve so accept() can always
  // be made to succeed once, letting the victim be told "come back later"
  // (503 + retry_after_ms) instead of being stranded in the backlog while
  // the listener spins on EMFILE.
  int reserve_fd = -1;
  bool listening = true;
  bool draining = false;
  Clock::time_point drain_start;
  uint64_t accepted = 0;
  uint64_t next_id = kFirstConnId;
  std::unordered_map<uint64_t, std::unique_ptr<EpollConn>> conns;
  BoundedQueue<ConnWork*> work_queue;
  std::mutex completion_mu;
  std::deque<Completion> completions;
  // Set when a dispatch found the work queue full; cleared by the retry
  // sweep that runs after every completion batch.
  bool dispatch_stalled = false;
  // Connections closed this iteration, pending the ReapDead() erase.
  std::vector<uint64_t> dead_ids;
  Clock::time_point last_sweep = Clock::now();
  Status status = Status::OK();

  Core(LineServer* s, int listener_fd, uint64_t accepts)
      : server(s),
        listener(listener_fd),
        max_accepts(accepts),
        work_queue(s->options_.accept_queue) {}

  const Options& opts() const { return server->options_; }

  // ---- worker side -------------------------------------------------

  void PushCompletion(uint64_t conn_id, std::string replies, bool final_piece,
                      bool quit) {
    {
      std::lock_guard<std::mutex> lock(completion_mu);
      completions.push_back(
          Completion{conn_id, std::move(replies), final_piece, quit});
    }
    const uint64_t one = 1;
    // eventfd is a counter: concurrent worker wakeups coalesce, and the
    // IO thread drains the count with one read.
    (void)!::write(wake_fd, &one, sizeof(one));
  }

  void ServeBatch(size_t worker, ConnWork* work) {
    std::string replies;
    bool quit = false;
    for (const std::string& line : work->lines) {
      bool q = false;
      replies += server->handler_->Serve(worker, line, &q);
      replies.push_back('\n');
      if (replies.size() >= kReplyFlushBytes) {
        PushCompletion(work->conn_id, std::move(replies), false, false);
        replies.clear();
      }
      if (q) {
        // Lines pipelined after a `quit` are dropped, as they always were.
        quit = true;
        break;
      }
    }
    PushCompletion(work->conn_id, std::move(replies), true, quit);
  }

  void WorkerLoop(size_t worker) {
    Handler* handler = server->handler_;
    ConnWork* work = nullptr;
    for (;;) {
      if (!work_queue.TryPop(&work)) {
        handler->Park(worker);
        if (!work_queue.Pop(&work)) break;
      }
      handler->BeginBatch(worker);
      ServeBatch(worker, work);
      delete work;
    }
  }

  // ---- IO-thread side ----------------------------------------------

  static Clock::time_point Now() { return Clock::now(); }

  void StopListening() {
    if (!listening) return;
    listening = false;
    ::epoll_ctl(ep, EPOLL_CTL_DEL, listener, nullptr);
    ::close(listener);
    listener = -1;
  }

  size_t Backlog(const EpollConn* c) const {
    return c->outbound.size() - c->out_off;
  }

  bool WantRead(const EpollConn* c) const {
    if (c->read_closed || c->dead) return false;
    // Backpressure, not memory: stop reading while this connection
    // already holds a full window of parsed-but-undispatched lines or a
    // half-full outbound buffer. Level-triggered epoll re-reports
    // readiness the moment EPOLLIN is re-armed.
    if (c->ready_bytes >= opts().max_request_bytes) return false;
    if (opts().max_outbound_bytes > 0 &&
        Backlog(c) >= opts().max_outbound_bytes / 2) {
      return false;
    }
    return true;
  }

  void Rearm(EpollConn* c) {
    if (c->dead) return;
    uint32_t want = 0;
    if (WantRead(c)) want |= EPOLLIN;
    if (Backlog(c) > 0) want |= EPOLLOUT;
    if (want == c->armed) return;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = want;
    ev.data.u64 = c->id;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c->fd, &ev);
    c->armed = want;
  }

  // Closes the fd and marks the connection dead. The entry itself is
  // erased later — by the end-of-iteration reap pass, or (with a batch
  // still in flight) when the worker's final completion lands — so a
  // pointer held anywhere in the current iteration never dangles.
  void CloseConn(EpollConn* c) {
    if (c->dead) return;
    if (c->fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, c->fd, nullptr);
      ::close(c->fd);
      c->fd = -1;
      server->metrics_.Sub(ConnMetrics::kOpen);
    }
    c->dead = true;
    c->inbound.clear();
    c->ready.clear();
    c->outbound.clear();
    c->out_off = 0;
    dead_ids.push_back(c->id);
  }

  // Erases the connections closed this iteration (except those with a
  // batch still in flight, which ApplyCompletions erases on the final
  // completion). Must be the last thing an iteration does.
  void ReapDead() {
    for (const uint64_t id : dead_ids) {
      auto it = conns.find(id);
      if (it != conns.end() && it->second->dead && !it->second->inflight) {
        conns.erase(it);
      }
    }
    dead_ids.clear();
  }

  // Flushes as much outbound as the socket takes right now; arms EPOLLOUT
  // for the rest. Returns false if the connection was closed.
  bool FlushConn(EpollConn* c) {
    if (c->dead) return false;
    // Injected flush failure ("daemon.flush"): the write path dies
    // mid-batched-stream — unlike daemon.send (which drops a batch before
    // any byte goes out), this can tear a pipelined reply stream at a
    // flush boundary. The kill@C grammar turns it into a SIGKILL window
    // inside the write path.
    if (Backlog(c) > 0 && fault::Maybe("daemon.flush")) {
      CloseConn(c);
      return false;
    }
    while (c->out_off < c->outbound.size()) {
      const ssize_t n =
          ::send(c->fd, c->outbound.data() + c->out_off,
                 c->outbound.size() - c->out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(c);
        return false;
      }
      c->out_off += static_cast<size_t>(n);
      c->last_progress = Now();
    }
    if (c->out_off >= c->outbound.size()) {
      c->outbound.clear();
      c->out_off = 0;
      if ((c->quit || c->read_closed) && !c->inflight && c->ready.empty() &&
          c->pending_fail_code == 0) {
        CloseConn(c);
        return false;
      }
    } else {
      // Slow-consumer buffer cap: what the socket would not take stays
      // buffered, and a peer that lets it grow past the cap is dropped.
      // Checked AFTER flushing so a transiently large chunk to a
      // fast-draining peer never trips it.
      if (opts().max_outbound_bytes > 0 &&
          Backlog(c) > opts().max_outbound_bytes) {
        server->metrics_.Add(ConnMetrics::kSlowClosed);
        CloseConn(c);
        return false;
      }
      if (c->out_off > 0 && c->out_off * 2 >= c->outbound.size()) {
        // Compact once the consumed prefix dominates; amortized O(1).
        c->outbound.erase(0, c->out_off);
        c->out_off = 0;
      }
    }
    Rearm(c);
    return true;
  }

  // Queues reply bytes on the connection and tracks the buffer high-water
  // mark; the caller flushes (which enforces the slow-consumer cap).
  void QueueReply(EpollConn* c, const std::string& bytes) {
    if (bytes.empty()) return;
    if (Backlog(c) == 0) c->last_progress = Now();
    c->outbound += bytes;
    const uint64_t backlog = Backlog(c);
    server->metrics_.Raise(ConnMetrics::kPeakOutbound, backlog);
  }

  // Emits a coded error reply (408/413) and closes once it drains. The
  // reply is deferred behind any batch still in flight so the peer sees
  // its earlier answers first.
  void Fail(EpollConn* c, const std::string& message, uint32_t code) {
    c->read_closed = true;
    c->inbound.clear();
    c->scan_from = 0;
    c->pending_fail_code = code;
    c->pending_fail_msg = message;
    TryFinish(c);
  }

  // Settles a connection that has nothing dispatched and nothing ready:
  // emits a deferred failure reply, or closes it if it is done. Returns
  // false if the connection was closed.
  bool TryFinish(EpollConn* c) {
    if (c->dead) return false;
    if (c->inflight || !c->ready.empty()) {
      Rearm(c);
      return true;
    }
    if (c->pending_fail_code != 0) {
      server->handler_->OnConnectionError();
      const std::string reply =
          CodedErrorReply(c->pending_fail_msg, c->pending_fail_code) + "\n";
      c->pending_fail_code = 0;
      c->pending_fail_msg.clear();
      c->quit = true;
      if (fault::Maybe("daemon.send")) {
        CloseConn(c);
        return false;
      }
      QueueReply(c, reply);
      return FlushConn(c);
    }
    if ((c->quit || c->read_closed) && Backlog(c) == 0) {
      CloseConn(c);
      return false;
    }
    Rearm(c);
    return true;
  }

  // Moves the connection's ready lines into one ConnWork and hands it to
  // the pool. A full queue is backpressure: the lines stay put and the
  // stalled flag schedules a retry after the next completion batch.
  void Dispatch(EpollConn* c) {
    if (c->dead || c->inflight || c->ready.empty()) {
      TryFinish(c);
      return;
    }
    auto work = std::make_unique<ConnWork>();
    work->conn_id = c->id;
    work->lines = std::move(c->ready);
    c->ready.clear();
    if (!work_queue.TryPush(work.get())) {
      c->ready = std::move(work->lines);
      dispatch_stalled = true;
      Rearm(c);
      return;
    }
    work.release();  // the worker deletes it
    c->inflight = true;
    c->ready_bytes = 0;
    Rearm(c);
  }

  // Scans newly appended inbound bytes for complete lines. May set a
  // deferred 413 when the newline-free tail exceeds the request bound.
  void ExtractLines(EpollConn* c) {
    size_t start = 0;
    for (;;) {
      const size_t nl =
          c->inbound.find('\n', std::max(start, c->scan_from));
      if (nl == std::string::npos) break;
      std::string line = c->inbound.substr(start, nl - start);
      start = nl + 1;
      c->scan_from = start;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      // Empty lines are skipped without advancing the idle clock — bare
      // newlines are as free for a slow-loris peer as bare bytes.
      if (line.empty()) continue;
      c->ready_bytes += line.size();
      c->ready.push_back(std::move(line));
      c->last_request = Now();
    }
    c->inbound.erase(0, start);
    c->scan_from = c->inbound.size();
    if (c->inbound.size() >= opts().max_request_bytes) {
      Fail(c,
           "request line exceeds " + std::to_string(opts().max_request_bytes) +
               " bytes",
           413);
    }
  }

  void ReadConn(EpollConn* c) {
    char chunk[16384];
    while (WantRead(c)) {
      const ssize_t n = ::read(c->fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(c);
        return;
      }
      if (n == 0) {
        // Peer EOF: answer the complete lines already parsed, drop the
        // partial tail, close after the replies flush.
        c->read_closed = true;
        c->inbound.clear();
        c->scan_from = 0;
        break;
      }
      c->inbound.append(chunk, static_cast<size_t>(n));
      ExtractLines(c);
      if (c->dead) return;
    }
    Dispatch(c);
  }

  // 503-style shed reply on a just-accepted fd that never becomes a
  // connection: admission cap or fd exhaustion. Best-effort single write
  // (the socket buffer of a fresh connection always takes it), then
  // close.
  void Shed(int fd, const std::string& message) {
    server->metrics_.Add(ConnMetrics::kShed);
    const std::string reply =
        CodedErrorReply(message, 503, opts().retry_after_ms) + "\n";
    if (!fault::Maybe("daemon.send")) {
      (void)net::SendAll(fd, reply.data(), reply.size());
    }
    ::close(fd);
  }

  void CountAccept() {
    ++accepted;
    if (max_accepts > 0 && accepted >= max_accepts) StopListening();
  }

  void AdmitConn(int fd) {
    const int one = 1;
    // Replies go out as batched writes, so Nagle has little to coalesce —
    // disable it so a batch's final partial segment is never held hostage
    // to the peer's delayed ACK.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<EpollConn>();
    conn->id = next_id++;
    conn->fd = fd;
    conn->last_request = conn->last_progress = Now();
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    server->metrics_.Add(ConnMetrics::kOpen);
    conns.emplace(conn->id, std::move(conn));
  }

  int AcceptOne() const {
    return ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
  }

  void AcceptBurst() {
    while (listening) {
      const int fd = AcceptOne();
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE) {
          server->metrics_.Add(ConnMetrics::kAcceptEmfile);
          // Reserve-fd parachute: free one fd, accept the victim, tell it
          // to come back later, restock the reserve. Without this the
          // victim sits in the backlog and the listener spins hot on
          // EMFILE forever.
          if (reserve_fd >= 0) {
            ::close(reserve_fd);
            reserve_fd = -1;
          }
          const int victim = AcceptOne();
          if (victim >= 0) {
            CountAccept();
            Shed(victim, "server out of file descriptors, retry later");
          }
          reserve_fd = ::open("/dev/null", O_RDONLY);
          if (victim < 0) return;
          continue;
        }
        status =
            Status::IOError(std::string("accept: ") + std::strerror(errno));
        StopListening();
        return;
      }
      CountAccept();
      // Injected accept failure ("daemon.accept"): the connection is
      // dropped on the floor as if the kernel had refused it — the client
      // sees a reset, never a half-served session. It still counts
      // against max_accepts so fault runs stay bounded.
      if (fault::Maybe("daemon.accept")) {
        ::close(fd);
        continue;
      }
      if (opts().max_connections > 0 &&
          conns.size() >= opts().max_connections) {
        server->metrics_.Add(ConnMetrics::kCapped);
        Shed(fd, "server at max connections, retry later");
        continue;
      }
      AdmitConn(fd);
    }
  }

  void ApplyCompletions() {
    std::deque<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completion_mu);
      batch.swap(completions);
    }
    for (Completion& comp : batch) {
      auto it = conns.find(comp.conn_id);
      if (it == conns.end()) continue;
      EpollConn* c = it->second.get();
      if (comp.final_piece) c->inflight = false;
      if (c->dead) {
        // The fd died while this batch was in flight; now the entry can
        // be forgotten too.
        if (!c->inflight) conns.erase(it);
        continue;
      }
      if (comp.quit) c->quit = true;
      if (!comp.replies.empty()) {
        // Injected send failure ("daemon.send"): the whole reply chunk is
        // dropped and the connection closed — an abrupt peer-visible
        // failure, but never a torn reply (the fault fires before any
        // byte of the chunk reaches the outbound buffer).
        if (fault::Maybe("daemon.send")) {
          CloseConn(c);
          continue;
        }
        QueueReply(c, comp.replies);
      }
      if (!FlushConn(c)) continue;
      if (comp.final_piece) {
        c->last_request = Now();
        // The next pipelined batch (lines that arrived while this one was
        // in flight) can go out immediately.
        Dispatch(c);
      }
    }
    if (dispatch_stalled) {
      dispatch_stalled = false;
      for (auto& entry : conns) {
        EpollConn* c = entry.second.get();
        if (!c->dead && !c->inflight && !c->ready.empty()) Dispatch(c);
        if (dispatch_stalled) break;  // queue is full again; wait
      }
    }
  }

  void SweepDeadlines() {
    if (opts().io_timeout_ms == 0) return;
    const auto now = Now();
    const auto tick = std::chrono::milliseconds(opts().io_timeout_ms);
    if (now - last_sweep < tick) return;
    last_sweep = now;
    // Collect first: Fail/CloseConn mutate the map.
    std::vector<EpollConn*> stalled;
    std::vector<EpollConn*> idle;
    for (auto& entry : conns) {
      EpollConn* c = entry.second.get();
      if (c->dead) continue;
      if (Backlog(c) > 0 && now - c->last_progress >= tick) {
        // Slow consumer: owed bytes, no write progress for a full
        // deadline — the peer stopped draining its socket.
        stalled.push_back(c);
      } else if (opts().idle_timeout_ms > 0 && !c->inflight &&
                 c->ready.empty() && Backlog(c) == 0 && !c->read_closed &&
                 now - c->last_request >=
                     std::chrono::milliseconds(opts().idle_timeout_ms)) {
        idle.push_back(c);
      }
    }
    for (EpollConn* c : stalled) {
      server->metrics_.Add(ConnMetrics::kSlowClosed);
      CloseConn(c);
    }
    for (EpollConn* c : idle) {
      server->metrics_.Add(ConnMetrics::kTimedOut);
      Fail(c,
           "idle timeout: no complete request in " +
               std::to_string(opts().idle_timeout_ms) + "ms",
           408);
    }
    if (draining && now - drain_start >=
                        std::chrono::milliseconds(kDrainForceCloseMs)) {
      std::vector<EpollConn*> rest;
      rest.reserve(conns.size());
      for (auto& entry : conns) {
        if (!entry.second->dead) rest.push_back(entry.second.get());
      }
      for (EpollConn* c : rest) CloseConn(c);
    }
  }

  void BeginDrain() {
    draining = true;
    drain_start = Now();
    StopListening();
    // Drain walks every live connection: complete requests already read
    // are answered and flushed, partial tails are dropped, and each
    // connection closes once its replies are out.
    std::vector<EpollConn*> live;
    live.reserve(conns.size());
    for (auto& entry : conns) {
      if (!entry.second->dead) live.push_back(entry.second.get());
    }
    for (EpollConn* c : live) {
      c->read_closed = true;
      c->inbound.clear();
      c->scan_from = 0;
      Dispatch(c);
    }
  }

  Status Run() {
    ep = ::epoll_create1(0);
    if (ep < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd < 0) {
      const Status st =
          Status::IOError(std::string("eventfd: ") + std::strerror(errno));
      ::close(ep);
      ep = -1;
      return st;
    }
    reserve_fd = ::open("/dev/null", O_RDONLY);
    net::SetNonBlocking(listener);
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, listener, &ev);
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, wake_fd, &ev);

    std::vector<std::thread> pool;
    pool.reserve(server->num_workers_);
    for (size_t i = 0; i < server->num_workers_; ++i) {
      pool.emplace_back([this, i] { WorkerLoop(i); });
    }

    struct epoll_event events[64];
    for (;;) {
      // Injected IO-loop stall ("daemon.epoll"): the whole readiness loop
      // freezes — reads, flushes, accepts, and deadline sweeps all stop —
      // while workers keep computing. Connections must survive it with
      // nothing but delay. The kill@C grammar turns it into a SIGKILL
      // window inside the IO loop.
      if (fault::Maybe("daemon.epoll")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kEpollStallMs));
      }
      if (!draining && (server->shutdown_.Requested() ||
                        server->stop_.load(std::memory_order_relaxed))) {
        BeginDrain();
      }
      if (!listening && conns.empty()) break;
      int timeout_ms = -1;
      if (opts().io_timeout_ms > 0) {
        timeout_ms = static_cast<int>(opts().io_timeout_ms);
      }
      if (draining) {
        timeout_ms = timeout_ms < 0
                         ? 100
                         : std::min(timeout_ms, 100);
      }
      const int n = ::epoll_wait(ep, events, 64, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;  // signal — re-run the latch checks
        status = Status::IOError(std::string("epoll_wait: ") +
                                 std::strerror(errno));
        break;
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = events[i].data.u64;
        const uint32_t evs = events[i].events;
        if (tag == kListenerTag) {
          if (listening) AcceptBurst();
          continue;
        }
        if (tag == kWakeTag) {
          uint64_t count = 0;
          (void)!::read(wake_fd, &count, sizeof(count));
          continue;
        }
        auto it = conns.find(tag);
        // A connection reaped in an earlier iteration: stale id.
        if (it == conns.end()) continue;
        EpollConn* c = it->second.get();
        if (c->dead) continue;
        if ((evs & EPOLLERR) != 0) {
          CloseConn(c);
          continue;
        }
        if ((evs & (EPOLLIN | EPOLLHUP)) != 0) {
          // EPOLLHUP without readable bytes reads as EOF, which ReadConn
          // turns into answer-then-close.
          ReadConn(c);
          if (c->dead) continue;
        }
        if ((evs & EPOLLOUT) != 0) FlushConn(c);
      }
      ApplyCompletions();
      SweepDeadlines();
      ReapDead();
    }

    // Teardown order matters: close the queue, join the pool (workers
    // write wake_fd until they exit), only then release the fds.
    work_queue.Close();
    {
      ConnWork* leftover = nullptr;
      while (work_queue.TryPop(&leftover)) delete leftover;
    }
    for (std::thread& t : pool) t.join();
    for (auto& entry : conns) {
      EpollConn* c = entry.second.get();
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
        server->metrics_.Sub(ConnMetrics::kOpen);
      }
    }
    conns.clear();
    if (reserve_fd >= 0) ::close(reserve_fd);
    ::close(wake_fd);
    ::close(ep);
    if (listener >= 0) ::close(listener);
    return status;
  }
};

Status LineServer::Run(uint16_t port, uint64_t max_accepts) {
  stop_.store(false, std::memory_order_relaxed);
  drained_on_shutdown_ = false;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // serve localhost only
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st =
        Status::IOError(std::string("bind 127.0.0.1:") + std::to_string(port) +
                        ": " + std::strerror(errno));
    ::close(listener);
    return st;
  }
  if (::listen(listener, SOMAXCONN) != 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listener);
    return st;
  }
  {
    // Publish the (possibly kernel-assigned) port only after listen()
    // succeeded: a client that observes it can connect right away.
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    uint16_t actual = port;
    if (::getsockname(listener, reinterpret_cast<struct sockaddr*>(&bound),
                      &len) == 0) {
      actual = ntohs(bound.sin_port);
    }
    bound_port_.store(actual, std::memory_order_release);
  }

  Core core(this, listener, max_accepts);
  const Status status = core.Run();
  bound_port_.store(0, std::memory_order_release);
  drained_on_shutdown_ = shutdown_.Requested();
  shutdown_.Rearm();
  return status;
}

}  // namespace ocular
