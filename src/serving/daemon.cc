#include "serving/daemon.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/fs_util.h"
#include "common/thread_pool.h"
#include "core/model_store.h"
#include "serving/journal.h"
#include "serving/render.h"

namespace ocular {

namespace {

// SIGHUP latch. A signal handler may only touch async-signal-safe state;
// the actual reload runs on a serving thread between requests.
std::atomic<bool> g_pending_reload{false};

void OnSighup(int /*signum*/) {
  g_pending_reload.store(true, std::memory_order_relaxed);
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
  return requested > 0 ? requested : UsableCpus();
}

// The durable publish ladder of every update artifact: `write` fills
// `path`.update.tmp, then fsync, verify-open (every section checksum;
// skipped when `verify_what` is null), durable rename. A crash mid-write
// can never leave a torn file behind the running mapping, a crash right
// after the ack can never lose the renamed artifact to unflushed page
// cache, and a silently corrupted write can never be published. A failed
// write removes the tmp file: one that failed after opening it (ENOSPC,
// EFBIG) would leave a partial, model-sized file behind.
// DurableRename can fail on either side of the rename (the dirsync comes
// after it): a tmp file still there proves the rename never happened and
// is removed; tmp gone means the artifact DID move and only its
// directory-entry durability is in doubt, which `*moved` reports.
Status PublishDurably(const std::string& path, const char* verify_what,
                      const std::function<Status(const std::string&)>& write,
                      bool* moved = nullptr) {
  const std::string tmp_path = path + ".update.tmp";
  if (Status written = write(tmp_path); !written.ok()) {
    ::remove(tmp_path.c_str());
    return written;
  }
  Status durable = fs::FsyncFile(tmp_path);
  if (durable.ok() && verify_what != nullptr) {
    if (auto verify = ModelStore::Open(tmp_path); !verify.ok()) {
      durable = Status::IOError(std::string(verify_what) +
                                " failed verification: " +
                                verify.status().ToString());
    }
  }
  if (durable.ok()) durable = fs::DurableRename(tmp_path, path);
  if (!durable.ok()) {
    if (::access(tmp_path.c_str(), F_OK) == 0) {
      ::remove(tmp_path.c_str());
    } else if (moved != nullptr) {
      *moved = true;
    }
  }
  return durable;
}

}  // namespace

RequestServer::RequestServer(ModelRegistry* registry)
    : RequestServer(registry, Options()) {}

RequestServer::RequestServer(ModelRegistry* registry, Options options)
    : registry_(registry),
      options_(options),
      num_tcp_workers_(ResolveWorkerCount(options.num_workers)),
      lines_(options_, num_tcp_workers_, this) {
  // TCP pool slots plus the inline slot for HandleLine/stdio callers.
  // The slot VECTOR must be complete here — Stats() iterates it lock-free
  // from any thread, so it can never grow later. Each slot's serving
  // scratch is sized by its first request, and TopMSelector::Begin bounds
  // the selection buffer by the catalog, so a default m past every
  // catalog costs no memory.
  workers_.reserve(num_tcp_workers_ + 1);
  for (size_t w = 0; w < num_tcp_workers_ + 1; ++w) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
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
  metrics_.Add(DaemonMetrics::kReloads);
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
    w->metrics.Add(DaemonMetrics::kShardRequests);
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
  w->metrics.Add(DaemonMetrics::kErrors);
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
    w->metrics.Add(DaemonMetrics::kHistoryDroppedIds,
                   sanitized.dropped_out_of_range);
  }
  w->metrics.Add(DaemonMetrics::kFoldInRequests);

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

namespace {

/// A set's shard ranges and shared item factors are fixed at save time,
/// so an id past either dimension needs an offline retrain and reshard,
/// not an update. Checked for requests and for replayed journal records.
Status CheckSetDoesNotGrow(const ServableModel& model,
                           const std::string& model_name, uint32_t users,
                           uint32_t items) {
  if (!model.sharded ||
      (users <= model.num_users() && items <= model.num_items())) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "sharded model '" + model_name + "' (" +
      std::to_string(model.num_users()) + " x " +
      std::to_string(model.num_items()) +
      ") cannot grow online; retrain and reshard offline (ocular_cli shard)");
}

/// Users [begin, begin + rows) of a rewritten user section: a refreshed
/// user's folded row, else the serving generation's row in `old` (its
/// local row u - begin), read straight out of the mapping.
SectionSource UserRows(const FoldedUpdate& folded, ConstMatrixView old,
                       uint32_t begin, uint32_t rows) {
  return {rows, old.cols(),
          [&folded, old, begin](uint32_t r, uint32_t c, std::span<double> out) {
            std::span<const double> row = folded.UserRow(begin + r);
            if (row.empty()) row = old.Row(r);
            std::copy_n(row.begin() + c, out.size(), out.begin());
          }};
}

}  // namespace

Result<RequestServer::UpdateOutcome> RequestServer::FoldInAndPublish(
    const ServableModel& model, const std::string& model_name,
    const PackedRows& base, const UpdateRecord& record, bool* published) {
  *published = false;
  if (model.fold_in == nullptr) {
    return Status::FailedPrecondition(
        "update folds users in, but model '" + model_name +
        "' has no fold-in context (not an OCuLaR probability model)");
  }
  const uint32_t users = record.num_users;
  const uint32_t items = record.num_items;
  OCULAR_RETURN_IF_ERROR(CheckSetDoesNotGrow(model, model_name, users, items));
  if (fault::Maybe("update.apply")) return fault::InjectedError("update.apply");
  // A touched user's fold-in history is its FULL merged row, and the
  // merged rows become the new generation's exclusion source. Dataset
  // rows past the model's users stay in it as exclusions only. Only the
  // touched rows are decoded and re-packed; the rest keep their bytes.
  OCULAR_ASSIGN_OR_RETURN(
      PackedRows merged_train,
      base.WithEntries(record.adds, std::max(users, base.num_rows()), items));
  auto merged = std::make_shared<const PackedRows>(std::move(merged_train));
  const FoldInContext& ctx = *model.fold_in;
  OCULAR_ASSIGN_OR_RETURN(
      const FoldedUpdate folded,
      FoldInUpdate(ctx, model.binding.user_blocks(), *merged, record.adds,
                   users, items, options_.fold_in));

  // Rewrite each member that holds a refreshed row, streaming the rest of
  // its rows out of the live mapping; the serving generation is never
  // written, and every rewritten file is v4. A `.oclr` is one member
  // holding the users and Vᵀ; a set's shard holds users only, and its
  // items file never changes.
  const ShardMap& map = model.binding.map;
  ShardSetManifest manifest = model.binding.manifest;
  uint32_t shards_touched = 0;
  // The binding's own file (the `.oclr`, or a set's manifest) is the
  // commit point. Once it has moved the update is published, even when
  // the directory sync after the rename failed (fs_util.h contract), so
  // the journal commits what clients will observe.
  const auto publish_binding =
      [&](const char* verify_what,
          const std::function<Status(const std::string&)>& write) -> Status {
    bool moved = false;
    const Status durable =
        PublishDurably(model.model_path, verify_what, write, &moved);
    if (!durable.ok() && !moved) return durable;
    *published = true;
    if (!durable.ok()) {
      std::fprintf(stderr,
                   "update on '%s': published but directory sync failed: %s\n",
                   model_name.c_str(), durable.ToString().c_str());
    }
    return Status::OK();
  };
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    const uint32_t begin = map.begin(s);
    const uint32_t end = model.sharded ? map.end(s) : users;
    const auto first =
        std::lower_bound(folded.users.begin(), folded.users.end(), begin);
    if ((first == folded.users.end() || *first >= end) &&
        items == model.num_items()) {
      continue;
    }
    const SectionSource user_rows = UserRows(
        folded, model.binding.shards[s]->user_factors(), begin, end - begin);
    if (model.sharded) {
      // On a failure, shards already renamed by this call disagree with
      // the manifest on disk: the serving generation is untouched, and
      // the next open refuses the torn set with a fingerprint mismatch
      // (OPERATIONS.md covers the recovery).
      const std::string path =
          ShardSetResolve(model.model_path, manifest.shards[s].file);
      OCULAR_RETURN_IF_ERROR(PublishDurably(
          path, "shard update artifact", [&](const std::string& tmp) {
            return WriteModelSections(model.meta(), user_rows,
                                      {ctx.dims(), 0, nullptr}, tmp);
          }));
      OCULAR_ASSIGN_OR_RETURN(manifest.shards[s].fingerprint,
                              fs::FileFingerprint(path));
    } else {
      const SectionSource item_cols = {
          ctx.dims(), items,
          [&](uint32_t c, uint32_t i, std::span<double> out) {
            for (uint32_t j = 0; j < out.size(); ++j) {
              out[j] = folded.ItemCell(ctx, i + j, c);
            }
          }};
      OCULAR_RETURN_IF_ERROR(publish_binding(
          "update artifact", [&](const std::string& tmp) {
            return WriteModelSections(model.meta(), user_rows, item_cols,
                                      tmp);
          }));
    }
    ++shards_touched;
  }
  // A set's manifest last: readers open either the old consistent set or
  // the new one, never a mix.
  if (model.sharded && shards_touched > 0) {
    OCULAR_RETURN_IF_ERROR(publish_binding(
        /*verify_what=*/nullptr, [&](const std::string& tmp) {
          return SaveShardSetManifest(manifest, tmp);
        }));
  }

  // The same generation swap as SIGHUP reload: in-flight requests drain
  // on their leased mapping, workers re-resolve lock-free, and a set
  // aliases every member it did not rewrite.
  OCULAR_RETURN_IF_ERROR(
      registry_->LoadPacked(model_name, model.model_path, merged));
  metrics_.Add(DaemonMetrics::kUpdates);

  UpdateOutcome outcome;
  outcome.num_users = users;
  outcome.num_items = items;
  outcome.shards_touched = shards_touched;
  outcome.users_refreshed = static_cast<uint32_t>(folded.users.size());
  return outcome;
}

Result<RequestServer::UpdateOutcome> RequestServer::ApplyUpdate(
    WorkerState* w, const std::string& model_name,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds,
    uint32_t num_users, uint32_t num_items) {
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
  UpdateRecord record;
  record.num_users = std::max(model->num_users(), num_users);
  record.num_items = std::max(model->num_items(), num_items);
  for (auto [u, i] : adds) {
    record.num_users = std::max(record.num_users, u + 1);
    record.num_items = std::max(record.num_items, i + 1);
  }
  // A `.oclr` grows to cover every row of the bound dataset; a set keeps
  // its users, and its dataset rows past them are exclusions only.
  if (!model->sharded) {
    record.num_users = std::max(record.num_users, model->train->num_rows());
  }
  OCULAR_RETURN_IF_ERROR(CheckSetDoesNotGrow(*model, model_name,
                                             record.num_users,
                                             record.num_items));
  record.adds = adds;

  // Write-ahead: the adds and the resolved shape are durable before the
  // fold-in starts, so a crash anywhere past this point is recovered to
  // the exact artifact this call would have published (RecoverJournal).
  // The record is keyed on the binding's file: the `.oclr`, or a set's
  // manifest. An append failure fails the update — the client's ack must
  // never be backed by nothing but RAM.
  UpdateJournal journal;
  const bool journaling = options_.update_journal;
  if (journaling) {
    OCULAR_ASSIGN_OR_RETURN(record.base_fingerprint,
                            fs::FileFingerprint(model->model_path));
    OCULAR_RETURN_IF_ERROR(
        journal.Open(UpdateJournal::PathFor(model->model_path)));
    OCULAR_RETURN_IF_ERROR(journal.AppendUpdate(record));
  }

  bool published = false;
  Result<UpdateOutcome> outcome =
      FoldInAndPublish(*model, model_name, *model->train, record, &published);
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
  // binding's fingerprint decides which side of the rename the crash hit:
  // still equal to the record's base means the update never published —
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
      PackedRows merged_train,
      model->train->WithEntries(applied_adds, users, items));
  stats.applied_merged = plan.applied.size();

  if (replay_pending) {
    // Replay: the same fold-in the crashed process was running — same
    // base artifact, same merged history, same adds and shape — so the
    // recovered generation is bit-identical to what the lost ack promised.
    bool published = false;
    Result<UpdateOutcome> outcome = FoldInAndPublish(
        *model, model_name, merged_train, plan.pending, &published);
    if (!outcome.ok() && !published) {
      // Leave the record pending: the next start retries the replay. The
      // caller decides whether to serve without the promised update.
      return outcome.status();
    }
    stats.replayed_pending = true;
    metrics_.Add(DaemonMetrics::kJournalReplays);
  } else if (!plan.applied.empty()) {
    OCULAR_RETURN_IF_ERROR(registry_->LoadPacked(
        model_name, model->model_path,
        std::make_shared<const PackedRows>(std::move(merged_train))));
  }
  metrics_.Add(DaemonMetrics::kJournalRecovered, plan.applied.size());
  if (stats.replayed_pending || stats.healed_commit) {
    UpdateJournal journal;
    OCULAR_RETURN_IF_ERROR(journal.Open(journal_path));
    OCULAR_RETURN_IF_ERROR(journal.AppendCommit());
  }
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
  // A fold-in needs neither `sweeps` nor `seed`; both are accepted for
  // wire compatibility and still checked, so a bad value keeps its error.
  auto sweeps = GetUIntField(request, "sweeps", 1, 100000);
  if (!sweeps.ok()) return ErrorReply(w, sweeps.status().message());
  if (*sweeps == 0) return ErrorReply(w, "'sweeps' must be at least 1");
  auto seed = GetUIntField(request, "seed", 0, uint64_t{1} << 53);
  if (!seed.ok()) return ErrorReply(w, seed.status().message());

  const double start_us = NowMicros();
  auto outcome = ApplyUpdate(w, model_name, adds,
                             static_cast<uint32_t>(*num_users),
                             static_cast<uint32_t>(*num_items));
  // A published update replaced the generation this worker leased. Drop
  // the lease before replying, so the old generation is freed now rather
  // than when this worker next parks, which may be after the client's
  // next update has started beside it.
  RefreshLeases(w);
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
  // A fold-in solves each refreshed row to convergence and runs no sweep.
  writer.Key("sweeps_run");
  writer.UInt(0);
  writer.Key("converged");
  writer.Bool(true);
  writer.Key("shards_touched");
  writer.UInt(outcome->shards_touched);
  writer.Key("users_refreshed");
  writer.UInt(outcome->users_refreshed);
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
  WriteMetrics<DaemonMetrics>(snapshot.daemon, &w);
  WriteMetrics<ConnMetrics>(snapshot.conn, &w);
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
  metrics_.Add(DaemonMetrics::kReloads);
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
  w->metrics.Add(DaemonMetrics::kRequestsServed);
  w->latency.Record(NowMicros() - start_us);
  return reply;
}

DaemonStatsSnapshot RequestServer::Stats() const {
  DaemonStatsSnapshot snapshot;
  snapshot.conn = lines_.Stats();
  snapshot.models_loaded = registry_->size();
  snapshot.workers = num_tcp_workers_;
  metrics_.MergeInto(&snapshot.daemon);
  std::vector<double> window;
  for (const auto& w : workers_) {
    w->metrics.MergeInto(&snapshot.daemon);
    w->latency.AppendWindowTo(&window);
  }
  snapshot.p50_latency_us = MergedPercentile(&window, 0.50);
  snapshot.p99_latency_us = MergedPercentile(&window, 0.99);
  return snapshot;
}

void RequestServer::RunStdioLoop(int in_fd, int out_fd) {
  std::string buffered;  // bytes read and not yet served
  size_t start = 0;      // where the next line begins in `buffered`
  bool at_eof = false;
  std::string line;
  char chunk[4096];
  while (!quit_requested_) {
    ConsumePendingReload();
    if (stdio_shutdown_.Requested()) {
      // SIGTERM drain, stdio flavor: every request read so far has been
      // answered (one write per line), so just stop reading.
      stdio_shutdown_.Rearm();
      std::fprintf(stderr, "drained: %s\n", HandleStats().c_str());
      break;
    }
    const size_t newline = buffered.find('\n', start);
    if (newline == std::string::npos) {
      if (at_eof) break;
      buffered.erase(0, start);
      start = 0;
      const ssize_t got = ::read(in_fd, chunk, sizeof(chunk));
      if (got > 0) {
        buffered.append(chunk, static_cast<size_t>(got));
      } else if (got == 0) {
        // A last line without its newline is still a request.
        at_eof = true;
        if (!buffered.empty()) buffered.push_back('\n');
      } else if (errno != EINTR) {
        break;
      }
      // EINTR: a SIGHUP (installed without SA_RESTART) woke the read. The
      // loop's top applies the reload; the partial line stays buffered,
      // so the request stream stays aligned.
      continue;
    }
    line.assign(buffered, start, newline - start);
    start = newline + 1;
    if (line.empty()) continue;
    std::string reply = HandleLine(line);
    reply.push_back('\n');
    for (size_t sent = 0; sent < reply.size();) {
      const ssize_t put =
          ::write(out_fd, reply.data() + sent, reply.size() - sent);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) break;  // nobody reads the replies; keep serving
      sent += static_cast<size_t>(put);
    }
  }
}

std::string RequestServer::Serve(size_t worker, const std::string& line,
                                 bool* quit) {
  return HandleLineOn(workers_[worker].get(), line, quit);
}

void RequestServer::BeginBatch(size_t /*worker*/) { ConsumePendingReload(); }

void RequestServer::Park(size_t worker) {
  // Drop stale model leases BEFORE parking: an idle worker must not pin a
  // reloaded-away generation's mapping while it waits.
  workers_[worker]->leases.clear();
}

void RequestServer::OnConnectionError() {
  // Metric shards are atomic, so the inline worker slot is safe to bump
  // from the IO thread.
  InlineWorker()->metrics.Add(DaemonMetrics::kErrors);
}

Status RequestServer::RunTcpLoop(uint16_t port, uint64_t max_accepts) {
  const Status status = lines_.Run(port, max_accepts);
  // Drain exit: flush one final stats line — the last thing an operator
  // sees from a SIGTERMed daemon is what it did with its life.
  if (lines_.drained_on_shutdown()) {
    std::fprintf(stderr, "drained: %s\n", HandleStats().c_str());
  }
  return status;
}

}  // namespace ocular
