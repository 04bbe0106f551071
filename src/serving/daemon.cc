#include "serving/daemon.h"

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
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <cstdio>

#include "common/fault.h"
#include "common/fs_util.h"
#include "core/model_store.h"
#include "parallel/bounded_queue.h"
#include "serving/journal.h"
#include "serving/net_util.h"
#include "serving/render.h"

namespace ocular {

namespace {

// SIGHUP latch. A signal handler may only touch async-signal-safe state;
// the actual reload runs on a serving thread between requests.
std::atomic<bool> g_pending_reload{false};

void OnSighup(int /*signum*/) {
  g_pending_reload.store(true, std::memory_order_relaxed);
}

// SIGTERM/SIGINT drain latch. The signal may land on any thread; every
// serving loop polls the latch at its top, and parked reads/accepts wake
// either by EINTR (the handler thread) or by their receive deadline
// (everyone else — see Options::io_timeout_ms), so the whole process
// notices within one deadline tick.
std::atomic<bool> g_pending_shutdown{false};

void OnShutdownSignal(int /*signum*/) {
  g_pending_shutdown.store(true, std::memory_order_relaxed);
}

// Reads a non-negative integer field, with bounds checking against
// `max_value`. Returns defaults when the field is absent.
Result<uint64_t> GetUIntField(const JsonValue& request, const char* key,
                              uint64_t def, uint64_t max_value) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr) return def;
  if (!field->is_number() || field->number() < 0.0 ||
      field->number() != std::floor(field->number())) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a non-negative integer");
  }
  if (field->number() > static_cast<double>(max_value)) {
    return Status::InvalidArgument(std::string("'") + key + "' out of range");
  }
  return static_cast<uint64_t>(field->number());
}

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// How long an injected "daemon.handle" stall parks the worker. Long
// enough that any sane front-tier deadline or hedge threshold fires
// first, short enough that a drill's requests still drain in test time.
constexpr uint32_t kHandleStallMs = 1000;

size_t ResolveWorkerCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

double MergedPercentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = std::min(
      samples->size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples->size() - 1)));
  return (*samples)[idx];
}

RequestServer::RequestServer(ModelRegistry* registry)
    : RequestServer(registry, Options()) {}

RequestServer::RequestServer(ModelRegistry* registry, Options options)
    : registry_(registry),
      options_(options),
      num_tcp_workers_(ResolveWorkerCount(options.num_workers)) {
  // TCP pool slots plus the inline slot for HandleLine/stdio callers.
  // The slot VECTOR must be complete here — Stats() iterates it lock-free
  // from any thread, so it can never grow later — but only the inline
  // slot pre-sizes its serving scratch: pool slots warm up when (and if)
  // RunTcpLoop actually starts their threads, so stdio/library users
  // don't pay for a pool they never run.
  workers_.reserve(num_tcp_workers_ + 1);
  for (size_t w = 0; w < num_tcp_workers_ + 1; ++w) {
    workers_.push_back(std::make_unique<WorkerState>(
        std::max<size_t>(options_.latency_window, 1)));
  }
  InlineWorker()->workspace.Reserve(options_.serve.m,
                                    options_.serve.block_items);
}

void RequestServer::InstallReloadSignalHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSighup;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a SIGHUP arriving mid-accept/mid-read surfaces as EINTR
  // so the serving loop can apply the reload promptly.
  ::sigaction(SIGHUP, &sa, nullptr);
}

void RequestServer::InstallShutdownSignalHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART for the same reason as SIGHUP: the thread that takes
  // the signal must fall out of its blocking call and see the latch.
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void RequestServer::RequestShutdown() {
  g_pending_shutdown.store(true, std::memory_order_relaxed);
}

bool RequestServer::ShutdownRequested() {
  return g_pending_shutdown.load(std::memory_order_relaxed);
}

bool RequestServer::ConsumeShutdownRequest() {
  return g_pending_shutdown.exchange(false, std::memory_order_relaxed);
}

bool RequestServer::ConsumePendingReload() {
  if (!g_pending_reload.exchange(false, std::memory_order_relaxed)) {
    return false;
  }
  // Failed models keep their previous generation serving; surface the
  // failure (SIGHUP has no reply channel) and do not count it as a
  // performed reload, so stats can't report a stale model as refreshed.
  const Status status = registry_->ReloadAll();
  if (!status.ok()) {
    std::fprintf(stderr, "hot reload failed: %s\n",
                 status.ToString().c_str());
    return true;
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RequestServer::RefreshLeases(WorkerState* w) {
  const uint64_t generation = registry_->generation();
  if (generation != w->seen_generation) {
    w->leases.clear();
    w->seen_generation = generation;
  }
}

std::shared_ptr<const ServableModel> RequestServer::LeaseModel(
    WorkerState* w, const std::string& name) {
  // Lock-free fast path: the lease survives until the registry publishes
  // a new generation, at which point this worker drops its cache and
  // re-resolves — draining onto the new model without a global pause.
  RefreshLeases(w);
  auto it = w->leases.find(name);
  if (it != w->leases.end()) return it->second;
  std::shared_ptr<const ServableModel> model = registry_->Get(name);
  if (model != nullptr) w->leases.emplace(name, model);
  return model;
}

Result<std::vector<ScoredItem>> RequestServer::RecommendOn(
    WorkerState* w, const std::string& model_name, uint32_t user,
    const ServeOptions& options,
    const std::vector<uint32_t>* exclude_override, int64_t* shard_out) {
  // Resolved exactly once per request: the whole answer comes from one
  // model generation even if a hot swap lands mid-request.
  std::shared_ptr<const ServableModel> model = LeaseModel(w, model_name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + model_name + "'");
  }
  if (user >= model->num_users()) {
    return Status::OutOfRange("user " + std::to_string(user) +
                              " out of range (model has " +
                              std::to_string(model->num_users()) +
                              " users)");
  }
  if (model->sharded) {
    w->shard_requests.fetch_add(1, std::memory_order_relaxed);
    if (shard_out != nullptr) *shard_out = model->shard_of(user);
  } else if (shard_out != nullptr) {
    *shard_out = -1;
  }
  std::span<const uint32_t> exclude =
      exclude_override != nullptr ? std::span<const uint32_t>(*exclude_override)
                                  : model->ExcludeRow(user);
  // More than the whole catalog is the whole catalog: clamping keeps a
  // hostile {"m":4000000000} from forcing a selection-buffer reservation
  // sized to the request instead of to the model.
  ServeOptions bounded = options;
  bounded.m = std::min(bounded.m, model->num_items());
  auto ranked =
      ServeTopM(*model->recommender, user, exclude, bounded, &w->workspace);
  return std::vector<ScoredItem>(ranked.begin(), ranked.end());
}

Result<std::vector<ScoredItem>> RequestServer::Recommend(
    const std::string& model_name, uint32_t user, const ServeOptions& options,
    const std::vector<uint32_t>* exclude_override) {
  return RecommendOn(InlineWorker(), model_name, user, options,
                     exclude_override);
}

std::string RequestServer::ErrorReply(WorkerState* w,
                                      const std::string& message) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(false);
  writer.Key("error");
  writer.String(message);
  writer.EndObject();
  w->errors.fetch_add(1, std::memory_order_relaxed);
  return writer.str();
}

std::string RequestServer::CodedErrorReply(WorkerState* w,
                                           const std::string& message,
                                           uint32_t code) {
  // Connection-level failures (413 oversize, 408 idle) carry a "code" so
  // clients can tell "fix your framing / you were reaped" apart from a
  // request error; the same convention 503 shed replies use.
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(false);
  writer.Key("error");
  writer.String(message);
  writer.Key("code");
  writer.UInt(code);
  writer.EndObject();
  w->errors.fetch_add(1, std::memory_order_relaxed);
  return writer.str();
}

std::string RequestServer::HandleRecommend(WorkerState* w,
                                           const JsonValue& request) {
  std::string model_name = "default";
  if (const JsonValue* m = request.Find("model"); m != nullptr) {
    if (!m->is_string()) return ErrorReply(w, "'model' must be a string");
    model_name = m->string();
  }
  auto m = GetUIntField(request, "m", options_.serve.m, UINT32_MAX);
  if (!m.ok()) return ErrorReply(w, m.status().message());

  ServeOptions serve = options_.serve;
  serve.m = static_cast<uint32_t>(*m);
  if (const JsonValue* ms = request.Find("min_score"); ms != nullptr) {
    if (!ms->is_number()) return ErrorReply(w, "'min_score' must be a number");
    serve.min_score = ms->number();
  }

  // Anonymous/new users recommend by history (fold-in) instead of by
  // stored user id — the two addressing modes are mutually exclusive.
  if (const JsonValue* history = request.Find("history"); history != nullptr) {
    if (request.Find("user") != nullptr) {
      return ErrorReply(w, "'user' and 'history' are mutually exclusive");
    }
    if (request.Find("exclude") != nullptr) {
      return ErrorReply(
          w, "'exclude' is not supported with 'history' (the history itself "
             "is excluded)");
    }
    return HandleHistory(w, *history, model_name, serve);
  }

  auto user = GetUIntField(request, "user", 0, UINT32_MAX);
  if (!user.ok()) return ErrorReply(w, user.status().message());
  if (request.Find("user") == nullptr) {
    return ErrorReply(w, "'user' or 'history' is required");
  }

  const std::vector<uint32_t>* exclude_override = nullptr;
  if (const JsonValue* ex = request.Find("exclude"); ex != nullptr) {
    if (!ex->is_array()) {
      return ErrorReply(w, "'exclude' must be an array of item ids");
    }
    w->exclude_scratch.clear();
    for (const JsonValue& e : ex->array()) {
      if (!e.is_number() || e.number() < 0.0 ||
          e.number() != std::floor(e.number()) || e.number() > UINT32_MAX) {
        return ErrorReply(w, "'exclude' entries must be item ids");
      }
      w->exclude_scratch.push_back(static_cast<uint32_t>(e.number()));
    }
    std::sort(w->exclude_scratch.begin(), w->exclude_scratch.end());
    w->exclude_scratch.erase(
        std::unique(w->exclude_scratch.begin(), w->exclude_scratch.end()),
        w->exclude_scratch.end());
    exclude_override = &w->exclude_scratch;
  }

  int64_t shard = -1;
  auto ranked = RecommendOn(w, model_name, static_cast<uint32_t>(*user), serve,
                            exclude_override, &shard);
  if (!ranked.ok()) return ErrorReply(w, ranked.status().ToString());

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("model");
  writer.String(model_name);
  writer.Key("user");
  writer.UInt(*user);
  if (shard >= 0) {
    // Only sharded bindings carry the field: monolithic replies stay
    // byte-identical to every previous release, which the scale test's
    // oracle comparison and old clients both rely on.
    writer.Key("shard");
    writer.UInt(static_cast<uint64_t>(shard));
  }
  WriteRankedItems(&writer, *ranked);
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleHistory(WorkerState* w,
                                         const JsonValue& history,
                                         const std::string& model_name,
                                         const ServeOptions& serve) {
  if (!history.is_array()) {
    return ErrorReply(w, "'history' must be an array of item ids");
  }
  w->history_scratch.clear();
  for (const JsonValue& e : history.array()) {
    if (!e.is_number() || e.number() < 0.0 ||
        e.number() != std::floor(e.number()) || e.number() > UINT32_MAX) {
      return ErrorReply(w, "'history' entries must be item ids");
    }
    w->history_scratch.push_back(static_cast<uint32_t>(e.number()));
  }
  // One lease for the whole request, same as the stored-user path.
  std::shared_ptr<const ServableModel> model = LeaseModel(w, model_name);
  if (model == nullptr) {
    return ErrorReply(
        w, Status::NotFound("no model named '" + model_name + "'").ToString());
  }
  if (model->fold_in == nullptr) {
    return ErrorReply(w, Status::FailedPrecondition(
                             "model '" + model_name +
                             "' does not support fold-in (not an OCuLaR "
                             "probability model)")
                             .ToString());
  }
  const FoldInContext& ctx = *model->fold_in;
  const HistorySanitizeResult sanitized =
      SanitizeHistory(&w->history_scratch, ctx.num_items());
  if (sanitized.dropped_out_of_range > 0) {
    w->dropped_history_ids.fetch_add(sanitized.dropped_out_of_range,
                                     std::memory_order_relaxed);
  }
  w->fold_in_requests.fetch_add(1, std::memory_order_relaxed);

  auto rec = RecommendForHistoryInto(
      ctx, w->history_scratch, serve.m, serve.min_score, serve.block_items,
      options_.fold_in, &w->fold_in, &w->workspace.tile,
      &w->workspace.selection);
  if (!rec.ok()) return ErrorReply(w, rec.status().ToString());

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("model");
  writer.String(model_name);
  writer.Key("folded");
  writer.Bool(rec->folded);
  writer.Key("dropped");
  writer.UInt(sanitized.dropped_out_of_range);
  WriteRankedItems(&writer, rec->items);
  writer.EndObject();
  return writer.str();
}

Result<RequestServer::UpdateOutcome> RequestServer::ApplyShardedUpdate(
    const ServableModel& model, const std::string& model_name,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds,
    uint32_t num_users, uint32_t num_items) {
  // A sharded binding never grows online: the shard ranges and the shared
  // item factors are fixed at save time, so an id past either dimension
  // needs an offline retrain + reshard (`ocular_cli shard`), not an
  // update.
  if (num_users > model.num_users() || num_items > model.num_items()) {
    return Status::FailedPrecondition(
        "sharded model '" + model_name +
        "' cannot grow online; retrain and reshard offline (ocular_cli "
        "shard)");
  }
  for (auto [u, i] : adds) {
    if (u >= model.num_users() || i >= model.num_items()) {
      return Status::FailedPrecondition(
          "add (" + std::to_string(u) + ", " + std::to_string(i) +
          ") is outside sharded model '" + model_name + "' (" +
          std::to_string(model.num_users()) + " x " +
          std::to_string(model.num_items()) +
          "); retrain and reshard offline (ocular_cli shard)");
    }
  }
  if (model.fold_in == nullptr) {
    return Status::FailedPrecondition(
        "sharded update refreshes users by fold-in, but model '" + model_name +
        "' has no fold-in context (not an OCuLaR probability model)");
  }
  if (fault::Maybe("update.apply")) return fault::InjectedError("update.apply");

  // Merge the deltas into a private copy of the training matrix: a
  // touched user's fold-in history is its FULL updated row (Section V's
  // new-user solve against fixed item factors), and the republish rebinds
  // the merged matrix as the exclusion source.
  OCULAR_ASSIGN_OR_RETURN(
      CsrMatrix merged_train,
      model.train->WithEntries(adds, model.num_users(), model.num_items()));
  auto merged = std::make_shared<const CsrMatrix>(std::move(merged_train));

  std::vector<uint32_t> touched_users;
  touched_users.reserve(adds.size());
  for (auto [u, i] : adds) touched_users.push_back(u);
  std::sort(touched_users.begin(), touched_users.end());
  touched_users.erase(
      std::unique(touched_users.begin(), touched_users.end()),
      touched_users.end());

  const FoldInContext& ctx = *model.fold_in;
  FoldInWorkspace fold_ws;
  ShardSetManifest manifest = model.manifest;
  uint32_t shards_touched = 0;
  size_t next = 0;
  for (uint32_t s = 0;
       s < model.shard_map.num_shards() && next < touched_users.size(); ++s) {
    const uint32_t begin = model.shard_map.begin(s);
    const uint32_t end = model.shard_map.end(s);
    if (touched_users[next] >= end) continue;

    // Copy-on-write per shard: the live mapping is never written. Only
    // shards owning a touched user are copied, folded, and rewritten —
    // the untouched siblings keep their files, fingerprints and mappings.
    ConstMatrixView rows = model.shard_stores[s]->user_factors();
    DenseMatrix block(rows.rows(), rows.cols());
    for (uint32_t r = 0; r < rows.rows(); ++r) {
      std::span<const double> src = rows.Row(r);
      std::copy(src.begin(), src.end(), block.Row(r).begin());
    }
    for (; next < touched_users.size() && touched_users[next] < end; ++next) {
      const uint32_t u = touched_users[next];
      const std::span<const uint32_t> history = merged->Row(u);
      fold_ws.Reserve(ctx.dims(), history.size());
      OCULAR_RETURN_IF_ERROR(
          FoldInUserInto(ctx, history, options_.fold_in, &fold_ws));
      std::copy(fold_ws.f.begin(), fold_ws.f.end(),
                block.Row(u - begin).begin());
    }

    // Same publish discipline as the monolithic retrain — write-temp,
    // fsync, verify-open, durable-rename — applied to ONE shard file.
    const std::string shard_path =
        ShardSetResolve(model.model_path, manifest.shards[s].file);
    const std::string tmp_path = shard_path + ".update.tmp";
    OCULAR_RETURN_IF_ERROR(
        SaveShardUserFactors(model.meta(), block, tmp_path));
    Status durable = fs::FsyncFile(tmp_path);
    if (durable.ok()) {
      if (auto verify = ModelStore::Open(tmp_path); !verify.ok()) {
        durable = Status::IOError("shard update artifact failed verification: " +
                                  verify.status().ToString());
      }
    }
    if (durable.ok()) durable = fs::DurableRename(tmp_path, shard_path);
    if (!durable.ok()) {
      if (::access(tmp_path.c_str(), F_OK) == 0) ::remove(tmp_path.c_str());
      // Shards already renamed this call now disagree with the published
      // manifest on disk; the serving generation is untouched, and the
      // next open refuses with a fingerprint mismatch instead of serving
      // the torn set (OPERATIONS.md covers the recovery).
      return durable;
    }
    OCULAR_ASSIGN_OR_RETURN(manifest.shards[s].fingerprint,
                            fs::FileFingerprint(shard_path));
    ++shards_touched;
  }

  // Manifest last, durably: readers open either the old consistent set or
  // the new one, never a mix.
  if (shards_touched > 0) {
    const std::string manifest_tmp = model.model_path + ".update.tmp";
    OCULAR_RETURN_IF_ERROR(SaveShardSetManifest(manifest, manifest_tmp));
    Status durable = fs::FsyncFile(manifest_tmp);
    if (durable.ok()) {
      durable = fs::DurableRename(manifest_tmp, model.model_path);
    }
    if (!durable.ok()) {
      if (::access(manifest_tmp.c_str(), F_OK) == 0) {
        ::remove(manifest_tmp.c_str());
      }
      return durable;
    }
  }

  // The per-shard generation swap: Load aliases every untouched member
  // from the serving generation and reopens only the rewritten files.
  OCULAR_RETURN_IF_ERROR(registry_->Load(model_name, model.model_path, merged));
  updates_.fetch_add(1, std::memory_order_relaxed);

  UpdateOutcome outcome;
  outcome.num_users = model.num_users();
  outcome.num_items = model.num_items();
  outcome.sweeps_run = 0;
  outcome.converged = true;
  outcome.sharded = true;
  outcome.shards_touched = shards_touched;
  outcome.users_refreshed = static_cast<uint32_t>(touched_users.size());
  return outcome;
}

Result<RequestServer::UpdateOutcome> RequestServer::RetrainAndPublish(
    const ServableModel& model, const std::string& model_name,
    const std::shared_ptr<const CsrMatrix>& updated_train, uint32_t users,
    uint32_t items, uint32_t sweeps, uint64_t seed, bool* published) {
  *published = false;
  // Copy-on-write: the live mapping is never touched — the update
  // materializes a private copy, retrains it, and publishes the result as
  // a new generation.
  if (fault::Maybe("update.apply")) return fault::InjectedError("update.apply");
  OCULAR_ASSIGN_OR_RETURN(LoadedModel loaded, model.store.MaterializeOcular());

  OcularConfig config = loaded.config;
  config.max_sweeps = sweeps;
  ExpandOptions expand;
  expand.seed = seed;  // 0 = shape-derived stream (see ExpandOptions)
  OCULAR_ASSIGN_OR_RETURN(
      OcularFitResult fit,
      UpdateModel(loaded.model, *updated_train, config, expand));

  // Persist write-temp, fsync, verify, durable-rename: a crash mid-write
  // can never leave a torn model file behind the running mapping, a crash
  // right after the ack can never lose the renamed artifact to unflushed
  // page cache, and a silently corrupted write can never be published
  // (the verify-open checks every section checksum before the swap).
  const std::string tmp_path = model.model_path + ".update.tmp";
  OCULAR_RETURN_IF_ERROR(SaveModelBinary(fit.model, config, tmp_path));
  Status durable = fs::FsyncFile(tmp_path);
  if (durable.ok()) {
    if (auto verify = ModelStore::Open(tmp_path); !verify.ok()) {
      durable = Status::IOError("update artifact failed verification: " +
                                verify.status().ToString());
    }
  }
  if (durable.ok()) durable = fs::DurableRename(tmp_path, model.model_path);
  if (!durable.ok()) {
    // DurableRename can fail on either side of the rename (the dirsync
    // comes after it). The tmp file still existing proves the rename
    // never happened — clean up and report an unpublished failure; tmp
    // gone means the artifact DID move, and only its directory-entry
    // durability is in doubt — treat as published (fs_util.h contract)
    // so the journal commits what clients will observe.
    if (::access(tmp_path.c_str(), F_OK) == 0) {
      ::remove(tmp_path.c_str());
      return durable;
    }
    std::fprintf(stderr,
                 "update on '%s': published but directory sync failed: %s\n",
                 model_name.c_str(), durable.ToString().c_str());
  }
  *published = true;
  // The same generation swap as SIGHUP reload: in-flight requests drain
  // on their leased mapping, workers re-resolve lock-free.
  OCULAR_RETURN_IF_ERROR(
      registry_->Load(model_name, model.model_path, updated_train));
  updates_.fetch_add(1, std::memory_order_relaxed);

  UpdateOutcome outcome;
  outcome.num_users = users;
  outcome.num_items = items;
  outcome.sweeps_run = fit.sweeps_run;
  outcome.converged = fit.converged;
  return outcome;
}

Result<RequestServer::UpdateOutcome> RequestServer::ApplyUpdate(
    WorkerState* w, const std::string& model_name,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds,
    uint32_t num_users, uint32_t num_items, uint32_t sweeps, uint64_t seed) {
  // One update at a time; concurrent recommends keep serving the current
  // generation and never take this mutex.
  std::lock_guard<std::mutex> lock(update_mu_);
  std::shared_ptr<const ServableModel> model = LeaseModel(w, model_name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + model_name + "'");
  }
  if (model->train == nullptr) {
    return Status::FailedPrecondition(
        "update requires a dataset bound to model '" + model_name +
        "' (--datasets): the interaction deltas extend the training matrix");
  }
  if (model->sharded) {
    // Sharded bindings refresh touched users by fold-in against the fixed
    // shared item factors and republish only the rewritten shard files.
    // The update journal stays out of this path — it is a single-artifact
    // recovery mechanism keyed on one file fingerprint; sharded updates
    // are instead made durable per shard file (write-temp + fsync +
    // verify + rename), with the manifest republished last.
    return ApplyShardedUpdate(*model, model_name, adds, num_users, num_items);
  }
  uint32_t users = std::max(model->num_users(), num_users);
  uint32_t items = std::max(model->num_items(), num_items);
  for (auto [u, i] : adds) {
    users = std::max(users, u + 1);
    items = std::max(items, i + 1);
  }
  OCULAR_ASSIGN_OR_RETURN(CsrMatrix merged,
                          model->train->WithEntries(adds, users, items));
  auto updated_train = std::make_shared<const CsrMatrix>(std::move(merged));

  // Write-ahead: the full replay recipe is durable before the retrain
  // starts, so a crash anywhere past this point can be recovered to the
  // exact artifact this call would have published (RecoverJournal). An
  // append failure fails the update — the client's ack must never be
  // backed by nothing but RAM.
  UpdateJournal journal;
  const bool journaling = options_.update_journal;
  if (journaling) {
    UpdateRecord record;
    OCULAR_ASSIGN_OR_RETURN(record.base_fingerprint,
                            fs::FileFingerprint(model->model_path));
    record.seed = seed;
    record.num_users = users;
    record.num_items = items;
    record.sweeps = sweeps;
    record.adds = adds;
    OCULAR_RETURN_IF_ERROR(
        journal.Open(UpdateJournal::PathFor(model->model_path)));
    OCULAR_RETURN_IF_ERROR(journal.AppendUpdate(record));
  }

  bool published = false;
  Result<UpdateOutcome> outcome =
      RetrainAndPublish(*model, model_name, updated_train, users, items,
                        sweeps, seed, &published);
  if (journaling) {
    // The journal's verdict follows the artifact, not the reply: a
    // failure AFTER the rename still commits (clients will observe the
    // new artifact), a clean failure before it aborts so recovery never
    // replays an update the client saw fail. A failed closing append
    // merely leaves the record pending — the fingerprint check at next
    // start resolves it the right way, so serving continues.
    const Status closing = (outcome.ok() || published) ? journal.AppendCommit()
                                                       : journal.AppendAbort();
    if (!closing.ok()) {
      std::fprintf(stderr, "update journal on '%s': %s\n", model_name.c_str(),
                   closing.ToString().c_str());
    }
  }
  return outcome;
}

Result<JournalRecoveryStats> RequestServer::RecoverJournal(
    const std::string& model_name) {
  std::lock_guard<std::mutex> lock(update_mu_);
  JournalRecoveryStats stats;
  std::shared_ptr<const ServableModel> model = registry_->Get(model_name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + model_name + "'");
  }
  const std::string journal_path = UpdateJournal::PathFor(model->model_path);
  OCULAR_ASSIGN_OR_RETURN(UpdateJournal::Plan plan,
                          UpdateJournal::LoadPlan(journal_path));
  stats.torn_tail = plan.torn_tail;
  if (plan.applied.empty() && !plan.has_pending) return stats;
  if (model->train == nullptr) {
    return Status::FailedPrecondition(
        "journal " + journal_path + " has records but model '" + model_name +
        "' has no bound dataset (--datasets): the deltas extend the training "
        "matrix");
  }

  // A trailing record with no commit/abort is the crash window. The
  // artifact fingerprint decides which side of the rename the crash hit:
  // still equal to the record's base means the retrain never published —
  // replay it; moved past it means the rename landed and only the commit
  // record is missing — the adds are law, heal the journal.
  bool replay_pending = false;
  if (plan.has_pending) {
    OCULAR_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                            fs::FileFingerprint(model->model_path));
    if (fingerprint == plan.pending.base_fingerprint) {
      replay_pending = true;
    } else {
      plan.applied.push_back(plan.pending);
      plan.has_pending = false;
      stats.healed_commit = true;
    }
  }

  // Re-merge every applied record's deltas into the training base: the
  // --datasets CSV is the original snapshot and knows nothing about
  // updates applied by previous incarnations. WithEntries keeps each row
  // sorted and deduplicated, so the merge is order-insensitive and
  // idempotent — recovering twice yields the same canonical matrix.
  uint32_t users = model->train->num_rows();
  uint32_t items = model->train->num_cols();
  std::vector<std::pair<uint32_t, uint32_t>> applied_adds;
  for (const UpdateRecord& record : plan.applied) {
    users = std::max(users, record.num_users);
    items = std::max(items, record.num_items);
    applied_adds.insert(applied_adds.end(), record.adds.begin(),
                        record.adds.end());
  }
  OCULAR_ASSIGN_OR_RETURN(
      CsrMatrix merged_train,
      model->train->WithEntries(applied_adds, users, items));
  auto merged = std::make_shared<const CsrMatrix>(std::move(merged_train));
  stats.applied_merged = plan.applied.size();

  if (!replay_pending) {
    if (!plan.applied.empty()) {
      OCULAR_RETURN_IF_ERROR(
          registry_->Load(model_name, model->model_path, merged));
      journal_recovered_.fetch_add(plan.applied.size(),
                                   std::memory_order_relaxed);
    }
    if (stats.healed_commit) {
      UpdateJournal journal;
      OCULAR_RETURN_IF_ERROR(journal.Open(journal_path));
      OCULAR_RETURN_IF_ERROR(journal.AppendCommit());
    }
    return stats;
  }

  // Replay: rebuild the pending update's training matrix on top of the
  // recovered base and run the exact pipeline the crashed process was
  // running — same adds, same dims, same sweeps, same seed, same base
  // artifact — so the recovered generation is bit-identical to what the
  // lost ack promised.
  uint32_t replay_users = std::max(users, plan.pending.num_users);
  uint32_t replay_items = std::max(items, plan.pending.num_items);
  OCULAR_ASSIGN_OR_RETURN(
      CsrMatrix replay_matrix,
      merged->WithEntries(plan.pending.adds, replay_users, replay_items));
  auto replay_train =
      std::make_shared<const CsrMatrix>(std::move(replay_matrix));
  bool published = false;
  Result<UpdateOutcome> outcome = RetrainAndPublish(
      *model, model_name, replay_train, replay_users, replay_items,
      plan.pending.sweeps, plan.pending.seed, &published);
  if (!outcome.ok() && !published) {
    // Leave the record pending: the next start retries the replay. The
    // caller decides whether to serve without the promised update.
    return outcome.status();
  }
  UpdateJournal journal;
  OCULAR_RETURN_IF_ERROR(journal.Open(journal_path));
  OCULAR_RETURN_IF_ERROR(journal.AppendCommit());
  stats.replayed_pending = true;
  journal_recovered_.fetch_add(plan.applied.size(), std::memory_order_relaxed);
  journal_replays_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

std::string RequestServer::HandleUpdate(WorkerState* w,
                                        const JsonValue& request) {
  std::string model_name = "default";
  if (const JsonValue* m = request.Find("model"); m != nullptr) {
    if (!m->is_string()) return ErrorReply(w, "'model' must be a string");
    model_name = m->string();
  }
  const JsonValue* adds_field = request.Find("adds");
  if (adds_field == nullptr || !adds_field->is_array()) {
    return ErrorReply(w, "'adds' must be an array of [user, item] pairs");
  }
  std::vector<std::pair<uint32_t, uint32_t>> adds;
  adds.reserve(adds_field->array().size());
  for (const JsonValue& pair : adds_field->array()) {
    if (!pair.is_array() || pair.array().size() != 2) {
      return ErrorReply(w, "'adds' must be an array of [user, item] pairs");
    }
    uint32_t ids[2];
    for (int n = 0; n < 2; ++n) {
      const JsonValue& v = pair.array()[n];
      // UINT32_MAX itself is out: id + 1 would wrap the grown shape.
      if (!v.is_number() || v.number() < 0.0 ||
          v.number() != std::floor(v.number()) || v.number() >= UINT32_MAX) {
        return ErrorReply(
            w, "'adds' entries must be non-negative ids below 4294967295");
      }
      ids[n] = static_cast<uint32_t>(v.number());
    }
    adds.emplace_back(ids[0], ids[1]);
  }
  auto num_users = GetUIntField(request, "num_users", 0, UINT32_MAX);
  if (!num_users.ok()) return ErrorReply(w, num_users.status().message());
  auto num_items = GetUIntField(request, "num_items", 0, UINT32_MAX);
  if (!num_items.ok()) return ErrorReply(w, num_items.status().message());
  auto sweeps =
      GetUIntField(request, "sweeps", options_.update_sweeps, 100000);
  if (!sweeps.ok()) return ErrorReply(w, sweeps.status().message());
  if (*sweeps == 0) return ErrorReply(w, "'sweeps' must be at least 1");
  // JSON numbers are doubles: cap explicit seeds at 2^53 so every
  // accepted value round-trips exactly.
  auto seed = GetUIntField(request, "seed", 0, uint64_t{1} << 53);
  if (!seed.ok()) return ErrorReply(w, seed.status().message());

  const double start_us = NowMicros();
  auto outcome = ApplyUpdate(w, model_name, adds,
                             static_cast<uint32_t>(*num_users),
                             static_cast<uint32_t>(*num_items),
                             static_cast<uint32_t>(*sweeps), *seed);
  if (!outcome.ok()) return ErrorReply(w, outcome.status().ToString());

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("model");
  writer.String(model_name);
  writer.Key("users");
  writer.UInt(outcome->num_users);
  writer.Key("items");
  writer.UInt(outcome->num_items);
  writer.Key("sweeps_run");
  writer.UInt(outcome->sweeps_run);
  writer.Key("converged");
  writer.Bool(outcome->converged);
  if (outcome->sharded) {
    writer.Key("shards_touched");
    writer.UInt(outcome->shards_touched);
    writer.Key("users_refreshed");
    writer.UInt(outcome->users_refreshed);
  }
  writer.Key("publish_us");
  writer.Double(NowMicros() - start_us);
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleModels() {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("models");
  w.BeginArray();
  for (const std::string& name : registry_->Names()) {
    std::shared_ptr<const ServableModel> model = registry_->Get(name);
    if (model == nullptr) continue;  // raced with an unload
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("algorithm");
    w.String(model->meta().algorithm);
    w.Key("users");
    w.UInt(model->num_users());
    w.Key("items");
    w.UInt(model->num_items());
    w.Key("k");
    w.UInt(model->k());
    w.Key("mapped_bytes");
    w.UInt(model->mapped_bytes());
    w.Key("sharded");
    w.Bool(model->sharded);
    w.Key("shards");
    w.UInt(model->num_shards());
    w.Key("path");
    w.String(model->model_path);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string RequestServer::HandlePing() {
  // The health-probe verb: a fleet front tier pings replicas on an
  // interval, so the reply must stay cheap and unblockable — no model
  // lease is resolved (a probe cannot stall behind a reload or an
  // update publish) and no per-worker scratch is touched. uptime_ms
  // lets a prober tell a long-lived replica from one that silently
  // restarted; generation says which model swap it is serving.
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("uptime_ms");
  w.UInt(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count()));
  w.Key("generation");
  w.UInt(registry_->generation());
  w.EndObject();
  return w.str();
}

std::string RequestServer::HandleStats() {
  const DaemonStatsSnapshot snapshot = Stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("models_loaded");
  w.UInt(snapshot.models_loaded);
  w.Key("workers");
  w.UInt(snapshot.workers);
  w.Key("requests_served");
  w.UInt(snapshot.requests_served);
  w.Key("errors");
  w.UInt(snapshot.errors);
  w.Key("reloads");
  w.UInt(snapshot.reloads);
  w.Key("connections_shed");
  w.UInt(snapshot.connections_shed);
  w.Key("connections_timed_out");
  w.UInt(snapshot.connections_timed_out);
  w.Key("connections_open");
  w.UInt(snapshot.connections_open);
  w.Key("connections_capped");
  w.UInt(snapshot.connections_capped);
  w.Key("connections_slow_closed");
  w.UInt(snapshot.connections_slow_closed);
  w.Key("accept_emfile");
  w.UInt(snapshot.accept_emfile);
  w.Key("peak_outbound_bytes");
  w.UInt(snapshot.peak_outbound_bytes);
  w.Key("fold_in_requests");
  w.UInt(snapshot.fold_in_requests);
  w.Key("history_dropped_ids");
  w.UInt(snapshot.history_dropped_ids);
  w.Key("shard_requests");
  w.UInt(snapshot.shard_requests);
  w.Key("updates");
  w.UInt(snapshot.updates);
  w.Key("journal_recovered");
  w.UInt(snapshot.journal_recovered);
  w.Key("journal_replays");
  w.UInt(snapshot.journal_replays);
  w.Key("p50_latency_us");
  w.Double(snapshot.p50_latency_us);
  w.Key("p99_latency_us");
  w.Double(snapshot.p99_latency_us);
  w.EndObject();
  return w.str();
}

std::string RequestServer::HandleReload(WorkerState* w) {
  Status status = registry_->ReloadAll();
  if (!status.ok()) return ErrorReply(w, status.ToString());
  reloads_.fetch_add(1, std::memory_order_relaxed);
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("reloaded");
  writer.UInt(registry_->size());
  writer.EndObject();
  return writer.str();
}

std::string RequestServer::HandleLine(const std::string& line) {
  bool quit = false;
  std::string reply = HandleLineOn(InlineWorker(), line, &quit);
  if (quit) quit_requested_ = true;
  return reply;
}

std::string RequestServer::HandleLineOn(WorkerState* w,
                                        const std::string& line, bool* quit) {
  const double start_us = NowMicros();
  // Injected handling stall ("daemon.handle"): the worker sleeps a fixed
  // second before answering — a hung-but-alive replica (allocator stall,
  // page-cache miss storm, runaway request ahead in the pipeline), which
  // is exactly what the fleet front tier's deadlines and hedged requests
  // are tested against. The kill@C grammar turns the same point into a
  // mid-request SIGKILL window: the process dies while a request is in
  // flight and the reply never leaves.
  if (fault::Maybe("daemon.handle")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kHandleStallMs));
  }
  std::string reply;
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    reply = ErrorReply(w, parsed.status().ToString());
  } else if (!parsed->is_object()) {
    reply = ErrorReply(w, "request must be a JSON object");
  } else {
    std::string cmd = "recommend";
    bool bad_cmd = false;
    if (const JsonValue* c = parsed->Find("cmd"); c != nullptr) {
      if (c->is_string()) {
        cmd = c->string();
      } else {
        bad_cmd = true;
      }
    }
    if (bad_cmd) {
      reply = ErrorReply(w, "'cmd' must be a string");
    } else if (cmd == "recommend") {
      reply = HandleRecommend(w, *parsed);
    } else if (cmd == "update") {
      reply = HandleUpdate(w, *parsed);
    } else if (cmd == "models") {
      reply = HandleModels();
    } else if (cmd == "ping") {
      reply = HandlePing();
    } else if (cmd == "stats") {
      reply = HandleStats();
    } else if (cmd == "reload") {
      reply = HandleReload(w);
    } else if (cmd == "quit") {
      *quit = true;
      JsonWriter writer;
      writer.BeginObject();
      writer.Key("ok");
      writer.Bool(true);
      writer.Key("bye");
      writer.Bool(true);
      writer.EndObject();
      reply = writer.str();
    } else {
      reply = ErrorReply(w, "unknown cmd '" + cmd + "'");
    }
  }
  w->requests.fetch_add(1, std::memory_order_relaxed);
  w->latency.Record(NowMicros() - start_us);
  return reply;
}

DaemonStatsSnapshot RequestServer::Stats() const {
  DaemonStatsSnapshot snapshot;
  snapshot.models_loaded = registry_->size();
  snapshot.workers = num_tcp_workers_;
  snapshot.reloads = reloads_.load(std::memory_order_relaxed);
  snapshot.connections_shed = shed_.load(std::memory_order_relaxed);
  snapshot.connections_timed_out = timed_out_.load(std::memory_order_relaxed);
  snapshot.connections_open = open_conns_.load(std::memory_order_relaxed);
  snapshot.connections_capped = capped_.load(std::memory_order_relaxed);
  snapshot.connections_slow_closed =
      slow_closed_.load(std::memory_order_relaxed);
  snapshot.accept_emfile = accept_emfile_.load(std::memory_order_relaxed);
  snapshot.peak_outbound_bytes =
      peak_outbound_.load(std::memory_order_relaxed);
  snapshot.updates = updates_.load(std::memory_order_relaxed);
  snapshot.journal_recovered =
      journal_recovered_.load(std::memory_order_relaxed);
  snapshot.journal_replays = journal_replays_.load(std::memory_order_relaxed);
  std::vector<double> window;
  for (const auto& w : workers_) {
    snapshot.requests_served += w->requests.load(std::memory_order_relaxed);
    snapshot.errors += w->errors.load(std::memory_order_relaxed);
    snapshot.fold_in_requests +=
        w->fold_in_requests.load(std::memory_order_relaxed);
    snapshot.history_dropped_ids +=
        w->dropped_history_ids.load(std::memory_order_relaxed);
    snapshot.shard_requests += w->shard_requests.load(std::memory_order_relaxed);
    w->latency.AppendWindowTo(&window);
  }
  snapshot.p50_latency_us = MergedPercentile(&window, 0.50);
  snapshot.p99_latency_us = MergedPercentile(&window, 0.99);
  return snapshot;
}

void RequestServer::RunStdioLoop(std::istream& in, std::ostream& out) {
  std::string line;
  std::string partial;  // prefix extracted before an interrupted read
  while (!quit_requested_) {
    ConsumePendingReload();
    if (g_pending_shutdown.exchange(false, std::memory_order_relaxed)) {
      // SIGTERM drain, stdio flavor: every request read so far has been
      // answered and flushed (one write per line), so just stop reading.
      std::fprintf(stderr, "drained: %s\n", HandleStats().c_str());
      break;
    }
    errno = 0;
    if (!std::getline(in, line)) {
      // A SIGHUP arriving while blocked in getline fails the stream with
      // EINTR (the handler is installed without SA_RESTART); that is a
      // reload request, not end of input — recover and keep serving. The
      // stream flags are not trustworthy here (libstdc++ reports the
      // interrupted read as eof), so the errno check decides, and the
      // C-stdio error state backing std::cin must be cleared too. Any
      // half-read line is carried over so the request stream stays
      // aligned.
      if (errno == EINTR) {
        partial += line;
        in.clear();
        if (&in == &std::cin) std::clearerr(stdin);
        continue;
      }
      break;
    }
    if (!partial.empty()) {
      line = partial + line;
      partial.clear();
    }
    if (line.empty()) continue;
    out << HandleLine(line) << '\n';
    out.flush();
  }
}

namespace {

// Replies accumulate into a per-batch buffer and go out in chunks of at
// most this many bytes: a burst of tiny requests with huge answers (a
// full-catalog `m`) cannot amplify into an unbounded buffer — peak memory
// per dispatched batch is one flush window, exactly the PR 5 bound.
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

/// The epoll readiness loop behind RequestServer::RunTcpLoop (PR 10).
///
/// One IO thread owns every socket and all per-connection state; the
/// shared-nothing workers own only compute. Data flow:
///
///   epoll_wait → read() until EAGAIN → extract complete lines
///     → dispatch ONE batch per connection to the work queue
///   worker: HandleLineOn per line → completion chunks (≤256 KiB)
///     → eventfd wakeup → IO thread appends to the conn's outbound
///     → send() until EAGAIN, EPOLLOUT for the rest
///
/// Robustness is structural: admission cap + EMFILE parachute shed with
/// 503 before a connection exists; a full work queue is backpressure
/// (lines wait on the connection, re-dispatched after completions);
/// oversized lines get 413; idle/slowloris peers get 408 from the sweep;
/// slow consumers (outbound cap or write-progress deadline) are dropped.
struct RequestServerEpollCore {
  using Clock = std::chrono::steady_clock;

  RequestServer* server;
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

  RequestServerEpollCore(RequestServer* s, int listener_fd, uint64_t accepts)
      : server(s),
        listener(listener_fd),
        max_accepts(accepts),
        work_queue(s->options_.accept_queue) {}

  const RequestServer::Options& opts() const { return server->options_; }

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

  void ServeBatch(RequestServer::WorkerState* w, ConnWork* work) {
    w->reply_batch.clear();
    bool quit = false;
    for (const std::string& line : work->lines) {
      bool q = false;
      w->reply_batch += server->HandleLineOn(w, line, &q);
      w->reply_batch.push_back('\n');
      if (w->reply_batch.size() >= kReplyFlushBytes) {
        PushCompletion(work->conn_id, std::move(w->reply_batch), false, false);
        w->reply_batch.clear();
      }
      if (q) {
        // Lines pipelined after a `quit` are dropped, as they always were.
        quit = true;
        break;
      }
    }
    PushCompletion(work->conn_id, std::move(w->reply_batch), true, quit);
    w->reply_batch.clear();
  }

  void WorkerLoop(RequestServer::WorkerState* w) {
    w->workspace.Reserve(opts().serve.m, opts().serve.block_items);
    ConnWork* work = nullptr;
    for (;;) {
      if (!work_queue.TryPop(&work)) {
        // Drop stale model leases BEFORE parking: an idle worker must not
        // pin a reloaded-away generation's mapping while it waits.
        w->leases.clear();
        if (!work_queue.Pop(&work)) break;
      }
      server->ConsumePendingReload();
      ServeBatch(w, work);
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
      server->open_conns_.fetch_sub(1, std::memory_order_relaxed);
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
        server->slow_closed_.fetch_add(1, std::memory_order_relaxed);
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
    if (backlog > server->peak_outbound_.load(std::memory_order_relaxed)) {
      // Single writer (the IO thread); plain store is enough.
      server->peak_outbound_.store(backlog, std::memory_order_relaxed);
    }
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
      // The errors counter behind CodedErrorReply is atomic, so the
      // inline worker slot is safe to use from the IO thread.
      const std::string reply =
          server->CodedErrorReply(server->InlineWorker(), c->pending_fail_msg,
                                  c->pending_fail_code) +
          "\n";
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
    server->shed_.fetch_add(1, std::memory_order_relaxed);
    JsonWriter w;
    w.BeginObject();
    w.Key("ok");
    w.Bool(false);
    w.Key("error");
    w.String(message);
    w.Key("code");
    w.UInt(503);
    w.Key("retry_after_ms");
    w.UInt(opts().retry_after_ms);
    w.EndObject();
    const std::string reply = w.str() + "\n";
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
    server->open_conns_.fetch_add(1, std::memory_order_relaxed);
    conns.emplace(conn->id, std::move(conn));
  }

  void AcceptBurst() {
    while (listening) {
      const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE) {
          server->accept_emfile_.fetch_add(1, std::memory_order_relaxed);
          // Reserve-fd parachute: free one fd, accept the victim, tell it
          // to come back later, restock the reserve. Without this the
          // victim sits in the backlog and the listener spins hot on
          // EMFILE forever.
          if (reserve_fd >= 0) {
            ::close(reserve_fd);
            reserve_fd = -1;
          }
          const int victim =
              ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
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
        server->capped_.fetch_add(1, std::memory_order_relaxed);
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
      server->slow_closed_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(c);
    }
    for (EpollConn* c : idle) {
      server->timed_out_.fetch_add(1, std::memory_order_relaxed);
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
    pool.reserve(server->num_tcp_workers_);
    for (size_t i = 0; i < server->num_tcp_workers_; ++i) {
      RequestServer::WorkerState* w = server->workers_[i].get();
      pool.emplace_back([this, w] { WorkerLoop(w); });
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
      server->ConsumePendingReload();
      if (!draining && RequestServer::ShutdownRequested()) BeginDrain();
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
        server->open_conns_.fetch_sub(1, std::memory_order_relaxed);
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

Status RequestServer::RunTcpLoop(uint16_t port, uint64_t max_accepts) {
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

  RequestServerEpollCore core(this, listener, max_accepts);
  const Status status = core.Run();
  bound_port_.store(0, std::memory_order_release);
  // Drain exit: consume the latch (so a test can serve again in this
  // process) and flush one final stats line — the last thing an operator
  // sees from a SIGTERMed daemon is what it did with its life.
  if (g_pending_shutdown.exchange(false, std::memory_order_relaxed)) {
    std::fprintf(stderr, "drained: %s\n", HandleStats().c_str());
  }
  return status;
}

}  // namespace ocular
