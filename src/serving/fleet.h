#ifndef OCULAR_SERVING_FLEET_H_
#define OCULAR_SERVING_FLEET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "serving/line_server.h"
#include "serving/metrics.h"

namespace ocular {

/// \file
/// \brief The replicated-serving front tier (PR 8): FleetServer proxies
/// the newline-JSON protocol onto N backend `ocular_served` replicas
/// over keep-alive loopback TCP, keeping the fleet answering — with
/// replies bit-identical to any single replica — while individual
/// replicas are killed, hung, shedding, or draining. Routing is
/// rendezvous (highest-random-weight) hashing on the request's `user`
/// so replica-local caches stay warm; user-less verbs round-robin.
/// Robustness comes from four cooperating pieces: a probed health state
/// machine per replica (ReplicaHealth), failover with one bounded
/// retry, optional hedged requests for tail latency, and 503
/// integration in both directions (a replica's shed is a soft
/// route-around; a fleet with no healthy replica sheds itself instead
/// of hanging). See docs/ARCHITECTURE.md ("Front tier") and the
/// "Running a fleet" runbook in docs/OPERATIONS.md.

/// \brief Health states of one replica, as tracked by the front tier.
enum class ReplicaState : uint8_t {
  kHealthy,   ///< routable; failures are being counted against it
  kEjected,   ///< out of rotation; waiting out the reopen backoff
  kHalfOpen,  ///< trial mode: one probe decides readmit vs re-eject
};

/// \brief Human-readable state name ("healthy" / "ejected" /
/// "half-open") for logs and the fleet `stats` reply.
const char* ReplicaStateName(ReplicaState state);

/// \brief Tunables of the per-replica health state machine.
struct HealthOptions {
  /// Consecutive failures (connect error, I/O deadline, malformed
  /// reply) that eject a healthy replica. Successes reset the count —
  /// an occasional blip never ejects, a dead socket does on the third
  /// try.
  uint32_t fail_threshold = 3;
  /// Base delay an ejected replica sits out before a half-open probe,
  /// doubled for every failed reopen cycle of the same outage (capped
  /// at reopen_cap_ms) so a replica that stays dead is probed ever more
  /// lazily.
  uint32_t reopen_after_ms = 500;
  /// Cap on the doubled reopen delay.
  uint64_t reopen_cap_ms = 10'000;
};

/// \brief The half-open health state machine of one replica —
/// deliberately socket-free and clock-free (every transition takes an
/// explicit `now_ms`) so the policy is unit-testable in isolation from
/// the integration drills. Not thread-safe; FleetServer serializes
/// access on its own mutex.
///
/// Transitions:
///   kHealthy  --OnFailure x fail_threshold--> kEjected   (ejections++)
///   kEjected  --MaybeHalfOpen after reopen--> kHalfOpen
///   kHalfOpen --OnSuccess-->                  kHealthy   (readmissions++)
///   kHalfOpen --OnFailure-->                  kEjected   (same outage:
///                 no new ejection counted, reopen delay doubles)
///
/// A 503 shed (OnShed) is a *soft* ejection: the replica is alive and
/// explicitly asking for relief, so it is routed around for its
/// retry_after_ms window without touching the failure count or the
/// state — Routable() goes false for the window, nothing else moves.
/// Stale reports (an in-flight request failing against an
/// already-ejected replica) are ignored.
class ReplicaHealth {
 public:
  explicit ReplicaHealth(HealthOptions options = {}) : options_(options) {}

  /// A request or probe got a well-formed reply from this replica.
  void OnSuccess(int64_t now_ms);
  /// A request or probe failed hard: connect error, I/O deadline, EOF
  /// mid-reply, or a malformed reply line.
  void OnFailure(int64_t now_ms);
  /// The replica answered 503: route around it for `retry_after_ms`
  /// (clamped through retry::ClampRetryAfterMs) without ejecting.
  void OnShed(int64_t now_ms, uint64_t retry_after_ms);
  /// If ejected and the reopen delay has elapsed, enters kHalfOpen and
  /// returns true — the caller owes the replica one probe.
  bool MaybeHalfOpen(int64_t now_ms);

  /// True when requests may be routed here: healthy AND outside any
  /// soft-shed window.
  bool Routable(int64_t now_ms) const {
    return state_ == ReplicaState::kHealthy && now_ms >= soft_until_ms_;
  }
  ReplicaState state() const { return state_; }
  /// When an ejected replica becomes due for a half-open probe.
  int64_t reopen_at_ms() const { return reopen_at_ms_; }
  /// End of the current soft-shed window (0 = none).
  int64_t soft_until_ms() const { return soft_until_ms_; }
  uint32_t consecutive_failures() const { return consecutive_failures_; }
  /// kHealthy -> kEjected transitions (a failed reopen cycle re-ejects
  /// without incrementing: one outage counts once, however long it
  /// lasts and however many probes it eats).
  uint64_t ejections() const { return ejections_; }
  /// kHalfOpen -> kHealthy transitions.
  uint64_t readmissions() const { return readmissions_; }

 private:
  int64_t ReopenDelayMs() const;

  HealthOptions options_;
  ReplicaState state_ = ReplicaState::kHealthy;
  uint32_t consecutive_failures_ = 0;
  /// Failed reopen cycles of the current outage (backoff exponent).
  uint32_t reopen_round_ = 0;
  int64_t reopen_at_ms_ = 0;
  int64_t soft_until_ms_ = 0;
  uint64_t ejections_ = 0;
  uint64_t readmissions_ = 0;
};

/// \brief Appends to `*out` the replica indices [0, num_replicas) in
/// rendezvous (highest-random-weight) order for `key`: each replica's
/// weight is a hash of (key, replica), and the order sorts weights
/// descending. Properties the fleet relies on: the order is
/// deterministic per key (cache-warm routing and reproducible tests),
/// near-uniform over replicas across keys, and *minimally disruptive* —
/// ejecting one replica only moves the keys it owned (every other key's
/// first healthy choice is unchanged), unlike modulo hashing where one
/// ejection reshuffles everything.
void FleetRouteOrder(uint64_t key, uint32_t num_replicas,
                     std::vector<uint32_t>* out);

/// \brief The front tier's proxy counters, kept in one shard on the
/// server and bumped by its workers and prober.
#define OCULAR_FLEET_METRICS(ROW)                                            \
  ROW(kRequestsProxied, "requests_proxied", kSum,                            \
      "client requests taken, any verb, each counted before forwarding")     \
  ROW(kFailovers, "failovers", kSum,                                         \
      "requests answered by a later replica after the first failed or shed") \
  ROW(kHedgesSent, "hedges_sent", kSum,                                      \
      "hedge copies sent when the primary was silent past the hedge delay")  \
  ROW(kHedgesWon, "hedges_won", kSum,                                        \
      "hedge copies that answered first")                                    \
  ROW(kNoHealthy503s, "no_healthy_503s", kSum,                               \
      "requests the fleet shed itself with a 503: no replica could answer")  \
  ROW(kRejectedVerbs, "rejected_verbs", kSum,                                \
      "update and reload requests refused at the front with a 501")          \
  ROW(kProbesSent, "probes_sent", kSum,                                      \
      "health probes (ping) sent to replicas")                               \
  ROW(kProbeFailures, "probe_failures", kSum,                                \
      "health probes that failed hard")
/// \cond
OCULAR_METRIC_TABLE(FleetMetrics, OCULAR_FLEET_METRICS);
/// \endcond

/// \brief One replica's row of the fleet `stats` reply.
struct FleetReplicaStats {
  uint16_t port = 0;
  ReplicaState state = ReplicaState::kHealthy;
  uint64_t forwards = 0;   ///< requests sent to this replica (incl. retries)
  uint64_t failures = 0;   ///< forwards that failed hard
  uint64_t ejections = 0;
  uint64_t readmissions = 0;
};

/// \brief The fleet `stats` reply: the front door's connection counters
/// (no connection cap, so its sheds are fd-exhaustion sheds only), the
/// proxy counters and one row per replica, in fleet order.
struct FleetStatsSnapshot {
  MetricValues<ConnMetrics> conn{};    ///< the front door's counters
  MetricValues<FleetMetrics> fleet{};  ///< the proxy counters
  std::vector<FleetReplicaStats> replicas;  ///< one row per replica
};

/// \brief Renders a snapshot as the front tier's `stats` reply — the pure
/// serialization half of the verb ({"ok":true,"fleet":true,...}, the
/// fleet-wide ejections and readmissions summed over the replica rows,
/// then one object per replica). The verb and the `fleet drained:` line
/// are exactly RenderFleetStats(FleetServer::Stats()).
std::string RenderFleetStats(const FleetStatsSnapshot& s);

/// \brief The front-tier proxy. Its front door is the daemon's own
/// connection core, LineServer — one epoll IO thread holding every
/// client connection (idle clients cost an fd, never a worker; 408 idle
/// reaping, 413, slow-consumer close, drain) feeding a fixed
/// shared-nothing worker pool — but each worker's handler forwards the
/// line to a replica over that worker's own keep-alive backend
/// connections (blocking, one request at a time) and relays the reply
/// byte-for-byte, so fleet replies are bit-identical to single-replica
/// replies by construction.
///
/// Verbs handled at the front instead of forwarded:
///   ping   — the fleet's own liveness ({"fleet":true,...})
///   stats  — FleetStatsSnapshot as JSON ({"fleet":true,...})
///   quit   — ends the client connection
///   update, reload — refused with a 501-style error: both mutate
///       replica-local state, and forwarding to one replica would
///       silently fork the fleet's models (apply them per replica; see
///       the OPERATIONS.md runbook)
/// Everything else — recommend (by user or history), models, and any
/// unknown verb — is forwarded verbatim, so error shapes match a
/// direct replica connection too.
class FleetServer : private LineServer::Handler {
 public:
  struct Options {
    /// Backend replica ports on 127.0.0.1, in fleet order. At least one.
    std::vector<uint16_t> replicas;
    /// Front-door worker threads (each owns one keep-alive connection
    /// per replica).
    size_t num_workers = 4;
    /// Depth of the front door's dispatch queue (LineServer::Options::
    /// accept_queue): a full queue is backpressure, never a shed.
    size_t accept_queue = 128;
    /// Longest client request line before a 413-style reply + close.
    size_t max_request_bytes = 1 << 20;
    /// Per-hop I/O deadline against a replica (connect/send/reply), and
    /// the front door's deadline tick (LineServer::Options::io_timeout_ms:
    /// slow-consumer write deadline, drain/Stop() latch). A replica that
    /// takes longer than this to answer counts a failure.
    uint32_t io_timeout_ms = 1000;
    /// Hedge threshold: when > 0 and the primary replica has not
    /// answered within this many ms, the request is also sent to the
    /// next healthy replica and the first complete reply wins (the
    /// loser's connection is closed — with pipelined keep-alive streams
    /// an orphaned reply cannot be left to desync the next request).
    /// Set it near the fleet's steady-state p99. 0 = off.
    uint32_t hedge_after_ms = 0;
    /// Health-probe cadence per replica (the `ping` verb).
    uint32_t probe_interval_ms = 200;
    /// retry_after_ms hint carried in the fleet's own 503 replies when
    /// every replica is out of rotation (the reply still arrives
    /// promptly — a fleet with nothing healthy must shed, not hang), and
    /// in the front door's fd-exhaustion sheds.
    uint32_t retry_after_ms = 100;
    /// Per-replica health policy.
    HealthOptions health;
  };

  explicit FleetServer(Options options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// \brief Serves on 127.0.0.1:`port` (0 = kernel-assigned, see
  /// bound_port()) through LineServer::Run until Stop(), a SIGTERM/SIGINT
  /// drain latch (LineServer::InstallShutdownSignalHandler — shared with
  /// the daemon), or `max_connections` accepted connections have all
  /// finished (0 = forever). Starts the prober and worker threads; joins
  /// them before returning.
  Status RunLoop(uint16_t port, uint64_t max_connections = 0);

  /// \brief The port RunLoop listens on (0 while not serving);
  /// published after listen() succeeds.
  uint16_t bound_port() const { return lines_.bound_port(); }

  /// \brief Asks RunLoop to return (graceful: in-flight request lines
  /// are answered, then connections close). Callable from any thread;
  /// takes effect within one io_timeout_ms tick.
  void Stop() { lines_.Stop(); }

  /// \brief Proxies one request line inline on the caller's private
  /// backend connections (the same slot HandleLine-style tests use);
  /// NOT safe to call concurrently with itself. The TCP pool uses
  /// separate per-worker slots.
  std::string HandleLine(const std::string& line);

  /// \brief Current counters + per-replica health states.
  FleetStatsSnapshot Stats() const;

 private:
  struct WorkerSlot;

  /// Outcome of one forward attempt against one replica.
  enum class ForwardOutcome {
    kReply,  ///< a complete reply line came back
    kShed,   ///< the replica answered 503 (soft route-around)
    kFailed, ///< connect error, deadline, EOF, or malformed reply
  };

  int64_t NowMs() const;
  bool EnsureBackend(WorkerSlot* w, uint32_t replica);
  void CloseBackend(WorkerSlot* w, uint32_t replica);
  bool SendRequest(WorkerSlot* w, uint32_t replica, const std::string& line);
  ForwardOutcome ClassifyReply(WorkerSlot* w, uint32_t replica,
                               const std::string& reply,
                               uint64_t* shed_hint_ms);
  ForwardOutcome ForwardOnce(WorkerSlot* w, uint32_t replica,
                             const std::string& line, uint32_t timeout_ms,
                             std::string* reply, uint64_t* shed_hint_ms);
  std::string ProxyOne(WorkerSlot* w, const std::string& line, bool* quit);
  std::string ProxyRouted(WorkerSlot* w, const std::string& line,
                          const std::vector<uint32_t>& order);
  std::string HedgedForward(WorkerSlot* w, const std::string& line,
                            uint32_t primary, uint32_t hedge);
  std::string NoHealthyReply();
  std::string FleetPingReply();

  void ReportSuccess(uint32_t replica);
  void ReportFailure(uint32_t replica);
  void ReportShed(uint32_t replica, uint64_t retry_after_ms);

  // LineServer::Handler: pool slot `worker` proxies the line.
  std::string Serve(size_t worker, const std::string& line,
                    bool* quit) override;

  void RunProber();
  void ProbeReplica(uint32_t replica);

  Options options_;
  LineServer lines_;  // the client-facing front door
  std::vector<std::unique_ptr<WorkerSlot>> slots_;  // pool + inline at back

  /// Health state + per-replica tallies, all guarded by one mutex: every
  /// access is an O(replicas) scan or a counter bump, microseconds
  /// against millisecond-scale scoring requests.
  mutable std::mutex health_mu_;
  std::vector<ReplicaHealth> health_;
  std::vector<uint64_t> replica_forwards_;
  std::vector<uint64_t> replica_failures_;

  std::atomic<bool> stop_{false};  // releases the prober
  std::atomic<uint64_t> rr_cursor_{0};  // round-robin for user-less verbs
  MetricShard<FleetMetrics> metrics_;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace ocular

#endif  // OCULAR_SERVING_FLEET_H_
