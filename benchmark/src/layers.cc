#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "common/fs_util.h"
#include "common/json.h"
#include "core/fold_in.h"
#include "core/incremental.h"
#include "core/model_store.h"
#include "eval/recommender.h"
#include "measure.h"
#include "oracle.h"
#include "parallel/partition.h"
#include "serving/daemon.h"
#include "serving/journal.h"
#include "serving/registry.h"
#include "serving/render.h"
#include "serving/score_engine.h"
#include "sparse/coo.h"
#include "sparse/dense.h"

namespace ocular::bench {

namespace {

constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

double Us(int64_t from, int64_t to) {
  return static_cast<double>(to - from) / 1e3;
}

double Ms(int64_t from, int64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

struct Mean {
  double total = 0.0;
  size_t n = 0;
  void Add(double v) {
    total += v;
    ++n;
  }
  double value() const { return n == 0 ? 0.0 : total / static_cast<double>(n); }
};

/// Share of each kind's replayed lines the reported means keep.
constexpr double kKeptShare = 0.99;

/// Timings of one replayed line, in microseconds.
struct LineTimes {
  bool user = false;
  double parse = 0.0, get = 0.0, render = 0.0, handle = 0.0;
  /// ServeTopM (stored user) or the fold-in solve + ranking (history).
  double work = 0.0;
  double kernel = 0.0, select = 0.0, bytes = 0.0;  // stored-user lines
  double solve = 0.0;                              // history lines
  /// Every variant of the line together: the stall filter's key.
  double cost = 0.0;
};

/// Span ids of the replay, interned once.
struct ReplaySpans {
  explicit ReplaySpans(TraceBuffer* t)
      : request(t->Intern("request")),
        parse(t->Intern("json.parse")),
        get(t->Intern("registry.get")),
        kernel(t->Intern("kernel")),
        select(t->Intern("select")),
        solve(t->Intern("foldin.solve")),
        fold_rank(t->Intern("foldin.rank")),
        render(t->Intern("render")),
        topm(t->Intern("serve.topm")),
        handle(t->Intern("daemon.handle")) {}
  uint32_t request, parse, get, kernel, select, solve, fold_rank, render, topm,
      handle;
};

Result<CsrMatrix> MergeAdds(
    const CsrMatrix& train, uint32_t users, uint32_t items,
    std::span<const std::pair<uint32_t, uint32_t>> adds) {
  CooBuilder coo;
  coo.Reserve(train.nnz() + adds.size());
  for (auto [u, i] : train.ToPairs()) coo.Add(u, i);
  for (auto [u, i] : adds) coo.Add(u, i);
  OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(users, items));
  return CsrMatrix::FromCoo(entries);
}

}  // namespace

Result<ReplayStats> ReplayLayers(const std::string& model_path,
                                 std::shared_ptr<const CsrMatrix> train,
                                 const std::vector<std::string>& lines,
                                 size_t warmup, uint32_t m,
                                 TraceBuffer* trace) {
  ModelRegistry registry;
  OCULAR_RETURN_IF_ERROR(registry.Load("default", model_path, train));
  RequestServer::Options options;
  options.serve.m = m;
  options.num_workers = 1;
  options.update_journal = false;
  RequestServer server(&registry, options);
  const std::shared_ptr<const ServableModel> pinned = registry.Get("default");
  const Recommender& rec = *pinned->recommender;
  if (pinned->fold_in == nullptr) {
    return Status::FailedPrecondition("model has no fold-in context");
  }
  const FoldInContext& ctx = *pinned->fold_in;
  const uint32_t n = rec.num_items();
  const uint32_t block = kDefaultScoreBlockItems;
  const uint32_t mm = std::min(m, n);

  std::vector<double> scores(std::min(n, block));
  // Per tile: kernel start; after the last tile, selection end.
  std::vector<int64_t> stamps;
  std::vector<ScoredItem> selection;
  selection.reserve(topm::SelectionCapacity(mm));
  ServeWorkspace ws;
  ws.Reserve(mm, block);
  ServeOptions serve;
  serve.m = mm;
  FoldInOptions fold_options;
  FoldInWorkspace fold_ws;
  std::vector<uint32_t> history;
  std::vector<double> tile;
  std::vector<ScoredItem> ranked;
  const ReplaySpans ids(trace);

  ReplayStats st;
  std::vector<LineTimes> timed;
  timed.reserve(lines.size());
  // Which lines are stored-user requests, and for whom (untimed).
  std::vector<int64_t> line_user(lines.size(), -1);
  for (size_t li = 0; li < lines.size(); ++li) {
    auto parsed = JsonValue::Parse(lines[li]);
    if (!parsed.ok()) return parsed.status();
    if (const JsonValue* user = parsed->Find("user"); user != nullptr) {
      line_user[li] = static_cast<int64_t>(user->number());
    }
  }

  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    const bool is_user = line_user[li] >= 0;
    const auto u = static_cast<uint32_t>(std::max<int64_t>(line_user[li], 0));
    const std::span<const uint32_t> exclude =
        is_user ? pinned->ExcludeRow(u) : std::span<const uint32_t>();
    // Layer-by-layer stamps: parse, get, kernel/select (or solve/rank),
    // render.
    int64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
    std::string layered;
    auto run_layers = [&]() -> Status {
      t0 = NowNs();
      auto parsed = JsonValue::Parse(line);
      t1 = NowNs();
      if (!parsed.ok()) return parsed.status();
      const std::shared_ptr<const ServableModel> model =
          registry.Get("default");
      t2 = NowNs();
      JsonWriter w;
      if (is_user) {
        // The tile loop of RecommendBlockedInto, stamped between the kernel
        // and the selection of every tile.
        TopMSelector sel;
        sel.Begin(&selection, mm, kNoFloor, n);
        size_t ex = 0;
        stamps.assign(1, NowNs());
        for (uint32_t b0 = 0; b0 < n; b0 += block) {
          const uint32_t b1 = std::min(n, b0 + block);
          const std::span<double> tile_scores(scores.data(), b1 - b0);
          rec.RawScoreBlock(u, b0, b1, tile_scores);
          stamps.push_back(NowNs());
          topm::MaskExcluded(tile_scores, b0, model->ExcludeRow(u), &ex);
          sel.ScanRun(tile_scores.data(), b0, b1 - b0);
          stamps.push_back(NowNs());
        }
        sel.FinishRaw(rec);
        t4 = NowNs();
        stamps.back() = t4;
        w.BeginObject();
        w.Key("ok");
        w.Bool(true);
        w.Key("model");
        w.String("default");
        w.Key("user");
        w.UInt(u);
        WriteRankedItems(&w, selection);
        w.EndObject();
      } else {
        history.clear();
        for (const JsonValue& e : parsed->Find("history")->array()) {
          history.push_back(static_cast<uint32_t>(e.number()));
        }
        const HistorySanitizeResult sanitized =
            SanitizeHistory(&history, ctx.num_items());
        fold_ws.Reserve(ctx.dims(), history.size());
        OCULAR_RETURN_IF_ERROR(
            FoldInUserInto(ctx, history, fold_options, &fold_ws));
        t3 = NowNs();
        // The ranking half of RecommendForHistoryInto, on the solve above:
        // the folded factor through the blocked engine, or the popularity
        // fallback when the solve gives nothing.
        const bool folded =
            !history.empty() && vec::SquaredNorm(fold_ws.f) > 0.0;
        const uint32_t mh = std::min(m, ctx.num_items());
        if (folded) {
          const FoldedUserRecommender folded_rec(&ctx, fold_ws.f);
          RecommendBlockedInto(folded_rec, 0, mh, history, kNoFloor, block,
                               &tile, &ranked);
        } else {
          TopMInto(ctx.popularity, mh, history, kNoFloor, &ranked);
        }
        t4 = NowNs();
        w.BeginObject();
        w.Key("ok");
        w.Bool(true);
        w.Key("model");
        w.String("default");
        w.Key("folded");
        w.Bool(folded);
        w.Key("dropped");
        w.UInt(sanitized.dropped_out_of_range);
        WriteRankedItems(&w, ranked);
        w.EndObject();
      }
      t5 = NowNs();
      layered = w.str();
      return Status::OK();
    };
    int64_t f0 = 0, f1 = 0;
    auto run_fused = [&]() {
      f0 = NowNs();
      ServeTopM(rec, u, exclude, serve, &ws);
      f1 = NowNs();
    };
    int64_t h0 = 0, h1 = 0;
    std::string reply;
    auto run_handle = [&]() {
      h0 = NowNs();
      reply = server.HandleLine(line);
      h1 = NowNs();
    };
    // Rotating the order gives each variant the same share of warm and
    // cold caches, so their means compare fairly. History lines have no
    // fused variant.
    const size_t variants = is_user ? 3 : 2;
    for (size_t step = 0; step < variants; ++step) {
      switch ((li + step) % variants) {
        case 0:
          OCULAR_RETURN_IF_ERROR(run_layers());
          break;
        case 1:
          run_handle();
          break;
        default:
          run_fused();
          break;
      }
    }
    if (st.mismatch.empty() && is_user) {
      const std::string diff = RankedListMismatch(ws.selection, selection);
      if (!diff.empty()) st.mismatch = "ServeTopM vs layers: " + diff;
    }
    if (st.mismatch.empty() && reply != layered) {
      st.mismatch = "HandleLine reply differs on line " + std::to_string(li) +
                    ": " + reply.substr(0, 200);
    }
    if (li < warmup) continue;

    LineTimes& lt = timed.emplace_back();
    lt.user = is_user;
    lt.parse = Us(t0, t1);
    lt.get = Us(t1, t2);
    lt.render = Us(t4, t5);
    lt.handle = Us(h0, h1);
    const int32_t parent = trace->Add(ids.request, TraceBuffer::kReplayTrack,
                                      li, -1, t0, t5);
    trace->Add(ids.parse, TraceBuffer::kReplayTrack, li, parent, t0, t1);
    trace->Add(ids.get, TraceBuffer::kReplayTrack, li, parent, t1, t2);
    if (is_user) {
      lt.select = Us(t2, stamps[0]);  // Begin
      trace->Add(ids.select, TraceBuffer::kReplayTrack, li, parent, t2,
                 stamps[0]);
      for (size_t k = 0; k + 2 < stamps.size(); k += 2) {
        lt.kernel += Us(stamps[k], stamps[k + 1]);
        lt.select += Us(stamps[k + 1], stamps[k + 2]);
        trace->Add(ids.kernel, TraceBuffer::kReplayTrack, li, parent,
                   stamps[k], stamps[k + 1]);
        trace->Add(ids.select, TraceBuffer::kReplayTrack, li, parent,
                   stamps[k + 1], stamps[k + 2]);
      }
      size_t active = 0;
      for (const double f : pinned->store.user_factors().Row(u)) {
        active += f != 0.0 ? 1 : 0;
      }
      lt.bytes = static_cast<double>(active) * n * sizeof(double);
      lt.work = Us(f0, f1);
      lt.cost = Us(t0, t5) + lt.work + lt.handle;
      trace->Add(ids.topm, TraceBuffer::kReplayTrack, li, -1, f0, f1);
    } else {
      lt.solve = Us(t2, t3);
      lt.work = Us(t2, t4);
      lt.cost = Us(t0, t5) + lt.handle;
      trace->Add(ids.solve, TraceBuffer::kReplayTrack, li, parent, t2, t3);
      trace->Add(ids.fold_rank, TraceBuffer::kReplayTrack, li, parent, t3, t4);
    }
    trace->Add(ids.render, TraceBuffer::kReplayTrack, li, parent, t4, t5);
    trace->Add(ids.handle, TraceBuffer::kReplayTrack, li, -1, h0, h1);
  }
  std::vector<double> handle_all;
  for (const LineTimes& lt : timed) handle_all.push_back(lt.handle);
  st.handle_p50_us = Median(std::move(handle_all));

  // A host stall of a few milliseconds in one of a thousand lines moves a
  // mean by more than the layers differ, so the means leave out the lines
  // of each kind whose variants together ran past the kind's 99th
  // percentile; each kept line counts on both sides of the reconciliation.
  for (const bool user : {true, false}) {
    std::vector<double> costs;
    for (const LineTimes& lt : timed) {
      if (lt.user == user) costs.push_back(lt.cost);
    }
    std::sort(costs.begin(), costs.end());
    const double cutoff = NearestRank(costs, kKeptShare);
    Mean parse, get, work, render, handle, kernel, select, bytes, solve,
        fold_rank;
    for (const LineTimes& lt : timed) {
      if (lt.user != user || lt.cost > cutoff) continue;
      parse.Add(lt.parse);
      get.Add(lt.get);
      work.Add(lt.work);
      render.Add(lt.render);
      handle.Add(lt.handle);
      if (user) {
        kernel.Add(lt.kernel);
        select.Add(lt.select);
        bytes.Add(lt.bytes);
      } else {
        solve.Add(lt.solve);
        fold_rank.Add(lt.work - lt.solve);
      }
    }
    LineKindStats& out = user ? st.user : st.history;
    out.lines = handle.n;
    out.dropped = costs.size() - handle.n;
    out.parse_us = parse.value();
    out.get_us = get.value();
    out.work_us = work.value();
    out.render_us = render.value();
    out.handle_us = handle.value();
    if (user) {
      st.kernel_us = kernel.value();
      st.kernel_bytes = bytes.value();
      st.select_us = select.value();
    } else {
      st.foldin_solve_us = solve.value();
      st.foldin_rank_us = fold_rank.value();
    }
  }
  return st;
}

Result<UpdateStepStats> TimeUpdateSteps(
    const std::string& model_path, const CsrMatrix& train,
    const std::vector<std::vector<std::pair<uint32_t, uint32_t>>>& adds,
    const std::vector<std::string>& lines, const std::string& work_dir) {
  namespace sfs = std::filesystem;
  constexpr size_t kReps = 3;
  if (adds.size() < kReps || lines.size() < kReps) {
    return Status::InvalidArgument("need at least 3 updates");
  }
  const std::string steps_path = work_dir + "/steps.oclr";
  const std::string handle_path = work_dir + "/handle.oclr";
  std::error_code ec;
  sfs::copy_file(model_path, steps_path, sfs::copy_options::overwrite_existing,
                 ec);
  if (!ec) {
    sfs::copy_file(model_path, handle_path,
                   sfs::copy_options::overwrite_existing, ec);
  }
  if (ec) return Status::IOError("cannot copy model: " + ec.message());

  ModelRegistry registry;
  OCULAR_RETURN_IF_ERROR(registry.Load(
      "default", steps_path, std::make_shared<const CsrMatrix>(train)));
  std::vector<double> journal, retrain, save, open, load, handle;
  CsrMatrix base = train;
  for (size_t rep = 0; rep < kReps; ++rep) {
    OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(steps_path));
    OCULAR_ASSIGN_OR_RETURN(
        CsrMatrix merged,
        MergeAdds(base, store.num_users(), store.num_items(), adds[rep]));

    UpdateRecord record;
    OCULAR_ASSIGN_OR_RETURN(record.base_fingerprint,
                            fs::FileFingerprint(steps_path));
    record.num_users = store.num_users();
    record.num_items = store.num_items();
    record.sweeps = 1;
    record.adds = adds[rep];
    UpdateJournal log;
    OCULAR_RETURN_IF_ERROR(log.Open(UpdateJournal::PathFor(steps_path)));
    const int64_t j0 = NowNs();
    OCULAR_RETURN_IF_ERROR(log.AppendUpdate(record));
    OCULAR_RETURN_IF_ERROR(log.AppendCommit());
    journal.push_back(Ms(j0, NowNs()));

    OCULAR_ASSIGN_OR_RETURN(LoadedModel loaded, store.MaterializeOcular());
    OcularConfig config = loaded.config;
    config.max_sweeps = 1;
    const int64_t r0 = NowNs();
    OCULAR_ASSIGN_OR_RETURN(OcularFitResult fit,
                            UpdateModel(loaded.model, merged, config));
    retrain.push_back(Ms(r0, NowNs()));

    const std::string tmp = steps_path + ".tmp";
    const int64_t s0 = NowNs();
    OCULAR_RETURN_IF_ERROR(SaveModelBinary(fit.model, config, tmp));
    OCULAR_RETURN_IF_ERROR(fs::FsyncFile(tmp));
    OCULAR_RETURN_IF_ERROR(fs::DurableRename(tmp, steps_path));
    save.push_back(Ms(s0, NowNs()));

    const int64_t o0 = NowNs();
    OCULAR_ASSIGN_OR_RETURN(ModelStore reopened, ModelStore::Open(steps_path));
    open.push_back(Ms(o0, NowNs()));

    auto shared = std::make_shared<const CsrMatrix>(merged);
    const int64_t l0 = NowNs();
    OCULAR_RETURN_IF_ERROR(registry.Load("default", steps_path, shared));
    load.push_back(Ms(l0, NowNs()));
    base = std::move(merged);
  }

  ModelRegistry handle_registry;
  OCULAR_RETURN_IF_ERROR(handle_registry.Load(
      "default", handle_path, std::make_shared<const CsrMatrix>(train)));
  RequestServer::Options options;
  options.num_workers = 1;
  RequestServer server(&handle_registry, options);
  for (size_t rep = 0; rep < kReps; ++rep) {
    std::string line = lines[rep];
    if (!line.empty() && line.back() == '\n') line.pop_back();
    const int64_t h0 = NowNs();
    const std::string reply = server.HandleLine(line);
    handle.push_back(Ms(h0, NowNs()));
    if (!IsOkReply(reply)) return Status::Internal("update failed: " + reply);
  }

  UpdateStepStats st;
  st.journal_append_ms = Median(journal);
  st.retrain_ms = Median(retrain);
  st.save_ms = Median(save);
  st.open_ms = Median(open);
  st.registry_load_ms = Median(load);
  st.handle_ms = Median(handle);
  return st;
}

double MedianSweepSeconds(const std::vector<SweepStats>& trace,
                          uint32_t sweeps) {
  std::vector<double> seconds;
  for (size_t s = 1; s < std::min<size_t>(sweeps, trace.size()); ++s) {
    seconds.push_back(trace[s].seconds_elapsed - trace[s - 1].seconds_elapsed);
  }
  return Median(std::move(seconds));
}

Result<TrainLayerStats> CompareSerialTraining(
    const CsrMatrix& train, const OcularConfig& config, uint32_t sweeps,
    const OcularFitResult& parallel_fit) {
  if (sweeps < 2 || parallel_fit.trace.size() < sweeps) {
    return Status::InvalidArgument("need at least 2 traced sweeps");
  }
  OcularConfig serial_config = config;
  serial_config.max_sweeps = sweeps;
  OCULAR_ASSIGN_OR_RETURN(OcularFitResult serial,
                          OcularTrainer(serial_config).Fit(train));
  if (serial.trace.size() < sweeps) {
    return Status::Internal("serial fit stopped early");
  }
  TrainLayerStats st;
  st.serial_sweep_s = MedianSweepSeconds(serial.trace, sweeps);
  st.parallel_sweep_s = MedianSweepSeconds(parallel_fit.trace, sweeps);
  const CsrMatrix transposed = train.Transpose();
  for (const CsrMatrix* side : {&train, &transposed}) {
    const auto& row_ptr = side->row_ptr();
    const auto ranges = BalancedRowRanges(row_ptr, 2, 1);
    double max_nnz = 0.0;
    for (auto [lo, hi] : ranges) {
      max_nnz =
          std::max(max_nnz, static_cast<double>(row_ptr[hi] - row_ptr[lo]));
    }
    const double mean_nnz =
        static_cast<double>(side->nnz()) / static_cast<double>(ranges.size());
    st.imbalance = std::max(st.imbalance, max_nnz / mean_nnz);
  }
  return st;
}

double StreamReadGbps(size_t bytes, int passes) {
  std::vector<double> buf(std::max<size_t>(bytes / sizeof(double), 8), 1.0);
  double best_s = std::numeric_limits<double>::infinity();
  double sink = 0.0;
  for (int p = 0; p < passes; ++p) {
    const int64_t t0 = NowNs();
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const size_t n = buf.size() & ~size_t{3};
    for (size_t i = 0; i < n; i += 4) {
      a0 += buf[i];
      a1 += buf[i + 1];
      a2 += buf[i + 2];
      a3 += buf[i + 3];
    }
    sink += a0 + a1 + a2 + a3;
    best_s = std::min(best_s, static_cast<double>(NowNs() - t0) / 1e9);
  }
  // Keeps the reduction observable so the loads are not elided.
  volatile double keep = sink;
  (void)keep;
  return static_cast<double>(buf.size() * sizeof(double)) / best_s / 1e9;
}

}  // namespace ocular::bench
