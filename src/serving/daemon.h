#ifndef OCULAR_SERVING_DAEMON_H_
#define OCULAR_SERVING_DAEMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/fold_in.h"
#include "serving/journal.h"
#include "serving/line_server.h"
#include "serving/metrics.h"
#include "serving/registry.h"
#include "serving/score_engine.h"

namespace ocular {

/// \brief The daemon's counters. Each worker slot keeps a shard for the
/// per-request counters, the server one for reloads, updates and journal
/// recovery; a snapshot sums them all.
#define OCULAR_DAEMON_METRICS(ROW)                                           \
  ROW(kRequestsServed, "requests_served", kSum,                              \
      "requests answered, failed ones included, each counted once answered") \
  ROW(kErrors, "errors", kSum,                                               \
      "replies with \"ok\":false, 408 and 413 connection replies included")  \
  ROW(kReloads, "reloads", kSum,                                             \
      "hot reloads performed, by SIGHUP or the reload verb")                 \
  ROW(kFoldInRequests, "fold_in_requests", kSum,                             \
      "history (fold-in) recommends answered")                               \
  ROW(kHistoryDroppedIds, "history_dropped_ids", kSum,                       \
      "out-of-range item ids dropped from request histories")                \
  ROW(kShardRequests, "shard_requests", kSum,                                \
      "stored-user recommends answered from a sharded binding")              \
  ROW(kUpdates, "updates", kSum,                                             \
      "updates published through the update verb")                           \
  ROW(kJournalRecovered, "journal_recovered", kSum,                          \
      "committed journal records merged into the training base at startup")  \
  ROW(kJournalReplays, "journal_replays", kSum,                              \
      "uncommitted journal records replayed to a new artifact at startup")
/// \cond
OCULAR_METRIC_TABLE(DaemonMetrics, OCULAR_DAEMON_METRICS);
/// \endcond

/// \brief Point-in-time serving statistics, as the `stats` verb reports
/// them: each table merged over its shards, and percentiles exact over
/// the union of the per-worker latency windows (see MergedPercentile).
struct DaemonStatsSnapshot {
  MetricValues<ConnMetrics> conn{};      ///< the connection core's counters
  MetricValues<DaemonMetrics> daemon{};  ///< the daemon's counters
  /// Models currently loaded.
  size_t models_loaded = 0;
  /// Worker threads serving the TCP loop.
  size_t workers = 0;
  /// Median request latency over the merged recent window, microseconds.
  double p50_latency_us = 0.0;
  /// 99th-percentile request latency over the merged window, microseconds.
  double p99_latency_us = 0.0;
};

/// \brief What RequestServer::RecoverJournal did for one model at
/// startup. All-zero/false means the journal was absent or empty — a
/// clean previous shutdown with no updates ever applied.
struct JournalRecoveryStats {
  /// Committed updates whose deltas were re-merged into the training
  /// base (the --datasets CSV is the original snapshot; these restore
  /// everything applied since).
  uint64_t applied_merged = 0;
  /// A trailing uncommitted update was found whose artifact rename never
  /// happened; it was folded in and published now (then committed).
  bool replayed_pending = false;
  /// A trailing uncommitted update was found already published (artifact
  /// fingerprint moved past its base); only the missing commit record
  /// was appended.
  bool healed_commit = false;
  /// The journal ended in a torn/corrupt record (discarded; the prefix
  /// was recovered normally). Expected after a crash mid-append.
  bool torn_tail = false;
};

/// \brief The request-serving core of the long-running daemon
/// (tools/ocular_served.cpp and the `ocular_cli serve` subcommand).
///
/// Speaks a newline-delimited JSON protocol — one request object per input
/// line, one response object per output line — over stdin/stdout
/// (RunStdioLoop) or a loopback TCP socket (RunTcpLoop). Requests:
///
///   {"cmd":"recommend","model":"default","user":3,"m":10}
///   {"cmd":"recommend","model":"default","user":3,"exclude":[1,7]}
///   {"cmd":"recommend","model":"default","history":[5,1,5,9],"m":10}
///   {"cmd":"update","model":"default","adds":[[12,3],[99,7]]}
///   {"cmd":"models"}      — loaded models and their shapes
///   {"cmd":"ping"}        — liveness probe: uptime + registry generation
///   {"cmd":"stats"}       — DaemonStatsSnapshot as JSON
///   {"cmd":"reload"}      — hot-reload every model (same path as SIGHUP)
///   {"cmd":"quit"}        — end the session (TCP: ends the connection)
///
/// Responses always carry "ok"; failures add "error" and never kill the
/// loop. `recommend` serves through the PR 3 blocked engine (ServeTopM)
/// out of a reusable per-worker ServeWorkspace, excluding the user's
/// training row by default (an explicit "exclude" array overrides it).
/// Rankings are bit-identical to RecommendForAllUsers on the same model
/// and exclusions, from every worker.
///
/// Live catalog (the paper's Section VIII deployment): `recommend` with a
/// `history` array instead of `user` serves an anonymous/new client by
/// folding their purchase history into a user factor (core/fold_in) and
/// ranking it through the same blocked engine — bit-identical to the
/// offline RecommendForHistory oracle on the same model. Histories are
/// untrusted wire input: they are sorted, deduplicated, and stripped of
/// out-of-range ids (counted in stats) before the solve, and a history
/// carrying no signal falls back to the deterministic popularity ranking
/// (the reply's "folded" flag says which path answered). `update` applies
/// interaction deltas (`adds` pairs; a `.oclr` may grow the catalog) by
/// folding in each touched user against the fixed item factors (new
/// items first, the roles swapped), rewrites only the member files that
/// hold a refreshed row (write-temp + rename) from the live mapping, and
/// publishes them through the registry generation swap — in-flight
/// requests keep their lease, workers drain onto the new generation
/// lock-free, exactly the SIGHUP-reload guarantees. Updates require a
/// bound dataset (the training matrix is the delta's base) and serialize
/// on one mutex; reads never block.
///
/// Concurrency: RunTcpLoop runs the connection core, LineServer, with
/// `Options::num_workers` workers that own only compute: each keeps its
/// ServeWorkspace, its latency ring, and a cached shared_ptr lease on the
/// current model generation (re-resolved lock-free when
/// ModelRegistry::generation() moves, dropped before the worker parks),
/// so the steady-state request path touches no shared mutable state, and
/// pipelined replies stay bit-identical to the batch oracle.
///
/// Hot reload: InstallReloadSignalHandler() latches SIGHUP into a flag
/// that each worker applies before its next batch (and the stdio loop
/// before its next line); the swap itself is ModelRegistry::ReloadAll, so
/// in-flight requests drain on the old mapping and workers pick up the
/// new generation at their next request — no stop-the-world pause, and
/// no request ever observes a torn model (each request resolves its model
/// lease exactly once). See docs/OPERATIONS.md for the walkthrough.
class RequestServer : private LineServer::Handler {
 public:
  /// \brief Tunables of a server instance; the transport fields
  /// (accept_queue, connection caps, deadlines) come from
  /// LineServer::Options.
  struct Options : LineServer::Options {
    /// Per-request serving defaults (m, min_score, tile size); a request's
    /// own fields override m and min_score.
    ServeOptions serve;
    /// Fold-in solver settings for `history` requests.
    FoldInOptions fold_in;
    /// Write-ahead journal every `update` verb to
    /// `<model>.update.journal` (fsynced before the fold-in starts) so an
    /// acked update survives a crash anywhere in the pipeline — see
    /// serving/journal.h and RecoverJournal(). Off restores the PR 6
    /// fire-and-forget behavior (updates die with the process if the
    /// artifact rename has not happened, and applied deltas are forgotten
    /// on restart).
    bool update_journal = true;
    /// TCP worker threads (0 = one per CPU of the constructing thread's
    /// affinity mask, UsableCpus()).
    size_t num_workers = 0;
  };

  /// \brief Serves the models of `registry` (not owned; must outlive the
  /// server) with default Options.
  explicit RequestServer(ModelRegistry* registry);
  /// \brief Serves the models of `registry` (not owned; must outlive the
  /// server).
  RequestServer(ModelRegistry* registry, Options options);

  /// \brief Answers one JSON request line with one JSON response line
  /// (no trailing newline). Never throws; malformed input yields an
  /// "ok": false response. Serves on the caller's inline worker slot —
  /// NOT safe to call concurrently with itself or RunStdioLoop (the TCP
  /// pool uses separate per-worker slots and may run concurrently).
  std::string HandleLine(const std::string& line);

  /// \brief The `recommend` verb's structured core: top-`options.m` items
  /// for `user` of model `model_name` through the blocked scoring engine.
  /// `exclude_override` (ascending ids), when non-null, replaces the
  /// model's default training-row exclusion. Same thread-affinity rules
  /// as HandleLine.
  Result<std::vector<ScoredItem>> Recommend(
      const std::string& model_name, uint32_t user, const ServeOptions& options,
      const std::vector<uint32_t>* exclude_override = nullptr);

  /// \brief Reads request lines from the file descriptor `in_fd` until
  /// EOF, a `quit` verb or a shutdown request, writing one response line
  /// each to `out_fd` (one write per line; pending SIGHUP reloads are
  /// applied between requests). A read that a signal interrupts keeps the
  /// partial line and reads on after applying the reload. A shutdown
  /// request prints one final `drained:` stats line. Single-threaded.
  void RunStdioLoop(int in_fd, int out_fd);

  /// \brief Serves the line protocol on 127.0.0.1:`port` through
  /// LineServer::Run (see it for `port` and `max_accepts`; a `quit` verb
  /// or client EOF ends that connection, not the server). After a
  /// SIGTERM drain it prints one final `drained:` stats line. The bounded
  /// `max_accepts` form is how tests and the bench end the loop without
  /// signals.
  Status RunTcpLoop(uint16_t port, uint64_t max_accepts = 0);

  /// \brief The port RunTcpLoop is listening on, or 0 when it is not
  /// (LineServer::bound_port).
  uint16_t bound_port() const { return lines_.bound_port(); }

  /// \brief Current counters + exact merged latency percentiles.
  DaemonStatsSnapshot Stats() const;

  /// \brief True once a handled request asked to quit (stdio path).
  bool quit_requested() const { return quit_requested_; }

  /// \brief Worker threads the TCP loop will run (Options::num_workers,
  /// or UsableCpus() for 0).
  size_t num_workers() const { return num_tcp_workers_; }

  /// \brief Installs the process-wide SIGHUP handler that requests a
  /// hot reload (idempotent; async-signal-safe handler, it only sets a
  /// flag).
  static void InstallReloadSignalHandler();

  /// \brief Applies a pending SIGHUP reload if one is latched; returns
  /// whether a reload ran. Also callable directly (the `reload` verb).
  /// Thread-safe: the latch guarantees exactly one thread runs the swap.
  bool ConsumePendingReload();

  /// \brief Replays `<model>.update.journal` against the freshly loaded
  /// model: re-merges every committed update's deltas into the bound
  /// training matrix (rebinding it through the registry), resolves a
  /// trailing crash-windowed record by artifact fingerprint (replay it if
  /// its rename never happened, heal the missing commit if it did), and
  /// returns what was done. Call once per model after registry load and
  /// BEFORE serving; with no journal on disk this is a cheap no-op.
  /// Requires a bound dataset when the journal has records (the deltas
  /// extend the training matrix). Serialized on the update mutex.
  Result<JournalRecoveryStats> RecoverJournal(const std::string& model_name);

 private:
  /// Everything one serving thread owns: scratch buffers, its latency
  /// shard, and its cached model leases. Shared-nothing — exactly one
  /// thread touches a slot's non-atomic members at any time; the atomics
  /// are read lock-free by Stats(). Cacheline-aligned so adjacent
  /// workers' counters do not false-share.
  struct alignas(64) WorkerState {

    ServeWorkspace workspace;
    std::vector<uint32_t> exclude_scratch;
    std::vector<uint32_t> history_scratch;  // sanitized request history
    FoldInWorkspace fold_in;                // per-request fold-in solve

    /// Model leases cached against the registry generation: a request
    /// resolves its model once, so a concurrent hot swap can never hand
    /// it factors from two generations.
    uint64_t seen_generation = 0;
    std::map<std::string, std::shared_ptr<const ServableModel>> leases;

    MetricShard<DaemonMetrics> metrics;
    /// Latency samples kept for the p50/p99 report.
    LatencyRing latency{4096};
  };

  /// What one applied `update` published: the binding's shape, how many
  /// member files were rewritten (the `.oclr` itself, or a set's shards)
  /// and how many user rows were folded in afresh.
  struct UpdateOutcome {
    uint32_t num_users = 0;
    uint32_t num_items = 0;
    uint32_t shards_touched = 0;
    uint32_t users_refreshed = 0;
  };

  WorkerState* InlineWorker() { return workers_.back().get(); }
  void RefreshLeases(WorkerState* w);
  std::shared_ptr<const ServableModel> LeaseModel(WorkerState* w,
                                                  const std::string& name);
  /// `*shard_out` (when non-null) reports which shard served the user:
  /// the shard index for a sharded binding, -1 for a monolithic store —
  /// so HandleRecommend can surface the shard hit without re-leasing.
  Result<std::vector<ScoredItem>> RecommendOn(
      WorkerState* w, const std::string& model_name, uint32_t user,
      const ServeOptions& options,
      const std::vector<uint32_t>* exclude_override,
      int64_t* shard_out = nullptr);
  std::string HandleLineOn(WorkerState* w, const std::string& line,
                           bool* quit);
  std::string HandleRecommend(WorkerState* w, const JsonValue& request);
  std::string HandleHistory(WorkerState* w, const JsonValue& history,
                            const std::string& model_name,
                            const ServeOptions& serve);
  std::string HandleUpdate(WorkerState* w, const JsonValue& request);
  Result<UpdateOutcome> ApplyUpdate(
      WorkerState* w, const std::string& model_name,
      const std::vector<std::pair<uint32_t, uint32_t>>& adds,
      uint32_t num_users, uint32_t num_items);
  /// The update algorithm, shared by ApplyUpdate and journal replay:
  /// merges `record.adds` into `base`, folds in new items (the roles
  /// swapped, against Σ_u f_u), then every touched user and new row
  /// against all the items, rewrites each member file holding a
  /// refreshed row by streaming the rest out of the live mapping, and
  /// publishes the new generation. `*published` turns true once the
  /// binding's own file (the `.oclr` or the manifest) has been renamed.
  Result<UpdateOutcome> FoldInAndPublish(const ServableModel& model,
                                         const std::string& model_name,
                                         const PackedRows& base,
                                         const UpdateRecord& record,
                                         bool* published);
  std::string HandleModels();
  std::string HandlePing();
  std::string HandleStats();
  std::string HandleReload(WorkerState* w);
  std::string ErrorReply(WorkerState* w, const std::string& message);

  // LineServer::Handler, for the TCP pool's slots [0, num_tcp_workers_).
  std::string Serve(size_t worker, const std::string& line,
                    bool* quit) override;
  void BeginBatch(size_t worker) override;
  void Park(size_t worker) override;
  void OnConnectionError() override;

  ModelRegistry* registry_;
  Options options_;
  size_t num_tcp_workers_ = 1;
  LineServer lines_;
  /// The stdio loop's drain requests (the TCP loop's are lines_').
  ShutdownWatch stdio_shutdown_;
  bool quit_requested_ = false;
  /// Construction instant; the `ping` verb's uptime_ms is measured from
  /// here, so a health prober can tell a long-lived replica from one
  /// that silently restarted between probes.
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  /// Slots [0, num_tcp_workers_) belong to the TCP pool; the extra slot
  /// at the back serves HandleLine/Recommend/RunStdioLoop callers. The
  /// vector itself is immutable after construction.
  std::vector<std::unique_ptr<WorkerState>> workers_;

  /// The server's own shard: reloads, updates, journal recovery.
  MetricShard<DaemonMetrics> metrics_;
  /// Serializes `update`s (merge → fold in → persist → publish).
  /// Recommends never take it: they keep serving the current generation
  /// and drain onto the published one lease-by-lease.
  std::mutex update_mu_;
};

}  // namespace ocular

#endif  // OCULAR_SERVING_DAEMON_H_
