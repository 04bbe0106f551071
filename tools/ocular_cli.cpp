// ocular — command-line interface to the OCuLaR library: dataset stats
// and synthesis, training, recommendation and explanation, evaluation,
// model conversion and sharding, the serving daemon, and a load generator.
// Run it with no arguments for every command's flags.
//
// Examples:
//   ocular synth --dataset=b2b --scale=0.02 --output=/tmp/b2b.tsv
//   ocular train --input=/tmp/b2b.tsv --model=/tmp/b2b.model --k=16
//       --lambda=0.5   (continued from previous line)
//   ocular recommend --model=/tmp/b2b.model --input=/tmp/b2b.tsv --user=3
//   ocular explain --model=/tmp/b2b.model --input=/tmp/b2b.tsv --user=3
//       --item=17 --json   (continued from previous line)
//   ocular evaluate --input=/tmp/b2b.tsv --k=16 --lambda=0.5 --m=50

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/coclusters.h"
#include "core/explain.h"
#include "core/fold_in.h"
#include "core/model_io.h"
#include "core/model_shard.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "data/loaders.h"
#include "data/split.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "serving/loadgen.h"
#include "serving/score_engine.h"
#include "tools/serve_main.h"

namespace ocular {
namespace {

/// --input and how to read it.
std::vector<FlagSpec> InputFlags() {
  return {StringFlag("input", "", "interaction dataset (required)"),
          ChoiceFlag("format", {"csv", "ml100k", "ml1m"}, "csv",
                     "dataset format"),
          CharFlag("delimiter", '\t', "csv field delimiter"),
          BoolFlag("compact-ids", false,
                   "renumber csv user and item ids densely")};
}

Result<Dataset> LoadInput(const Flags& flags) {
  if (!flags.Has("input")) {
    return Status::InvalidArgument("missing required flag --input");
  }
  const std::string& path = flags.String("input");
  const std::string& format = flags.String("format");
  if (format == "ml100k") return LoadMovieLens100K(path);
  if (format == "ml1m") return LoadMovieLens1M(path);
  CsvOptions opts;
  opts.delimiter = flags.Char("delimiter");
  opts.compact_ids = flags.Bool("compact-ids");
  return LoadCsv(path, opts);
}

/// The trainer flags of `train` and `evaluate`.
std::vector<FlagSpec> TrainerFlags() {
  return {
      // K + 2 (the bias dimensions) must still fit in 32 bits.
      IntFlag("k", 1, UINT32_MAX - 2, "16", "co-clusters (K)"),
      RealFlag("lambda", 0.0, kNoUpperBound, "0.5", "regularization (lambda)"),
      ChoiceFlag("variant", {"absolute", "relative"}, "absolute",
                 "OCuLaR or R-OCuLaR"),
      IntFlag("sweeps", 1, UINT32_MAX, "60", "most solver sweeps"),
      BoolFlag("biases", false, "add user and item bias dimensions"),
      IntFlag("seed", 0, INT64_MAX, "1",
              "trainer seed; evaluate's split takes it too (42 when not "
              "given)")};
}

/// The flags of `groups`, in order.
std::vector<FlagSpec> Concat(
    std::initializer_list<std::vector<FlagSpec>> groups) {
  std::vector<FlagSpec> out;
  for (const std::vector<FlagSpec>& group : groups) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

OcularConfig ConfigFromFlags(const Flags& flags) {
  OcularConfig cfg;
  cfg.k = flags.Int<uint32_t>("k");
  cfg.max_sweeps = flags.Int<uint32_t>("sweeps");
  cfg.lambda = flags.Real("lambda");
  cfg.seed = flags.Int<uint64_t>("seed");
  cfg.use_biases = flags.Bool("biases");
  if (flags.String("variant") == "relative") {
    cfg.variant = OcularVariant::kRelative;
  }
  return cfg;
}

int CmdStats(const Flags& flags) {
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", RenderDatasetStats(
                        ComputeDatasetStats(ds->interactions())).c_str());
  return 0;
}

int CmdSynth(const Flags& flags) {
  const std::string& name = flags.String("dataset");
  const double scale = flags.Real("scale");
  const std::string& output = flags.String("output");
  if (output.empty()) {
    std::fprintf(stderr, "--output is required\n");
    return 1;
  }
  Rng rng(flags.Int<uint64_t>("seed"));
  Result<PlantedCoClusterData> data =
      name == "movielens"   ? MakeMovieLensLike(scale, &rng)
      : name == "citeulike" ? MakeCiteULikeLike(scale, &rng)
      : name == "netflix"   ? MakeNetflixLike(scale, &rng)
                            : MakeB2BLike(scale, &rng);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  Status st = SaveCsv(data->dataset, output);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%s)\n", output.c_str(),
              data->dataset.Summary().c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const OcularConfig cfg = ConfigFromFlags(flags);
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const std::string& model_path = flags.String("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "InvalidArgument: missing required flag --model\n");
    return 1;
  }
  OcularRecommender rec(cfg);
  Status st = rec.Fit(ds->interactions());
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = SaveModel(rec.model(), cfg, model_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("trained %s on %s: %u sweeps, converged=%s, Q=%.4f\n",
              rec.name().c_str(), ds->Summary().c_str(),
              static_cast<unsigned>(rec.trace().size()),
              rec.converged() ? "yes" : "no",
              rec.trace().empty() ? 0.0 : rec.trace().back().objective);
  std::printf("model written to %s (%zu bytes of factors)\n",
              model_path.c_str(), rec.model().MemoryBytes());
  return 0;
}

int CmdRecommend(const Flags& flags) {
  // Accepts v1 text, binary OCLR, and `*.shardset` manifests alike
  // (LoadModelAuto sniffs and gathers).
  auto loaded = LoadModelAuto(flags.String("model"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const auto m = flags.Int<uint32_t>("m");

  std::vector<ScoredItem> top;
  if (flags.Has("history")) {
    // Ad-hoc history: fold-in inference for a user not in the training
    // data (new-client serving path).
    const std::vector<int64_t>& ids = flags.IntList("history");
    std::vector<uint32_t> history(ids.begin(), ids.end());
    // Same normalization the daemon applies to wire histories: sort,
    // dedup, drop out-of-catalog ids (warned, not fatal — a stale client
    // list should not kill the query). An empty or fully-dropped history
    // falls back to the deterministic popularity ranking.
    const HistorySanitizeResult sanitized =
        SanitizeHistory(&history, loaded->model.num_items());
    if (sanitized.dropped_out_of_range > 0) {
      std::fprintf(stderr,
                   "warning: dropped %zu --history ids outside the "
                   "model's %u-item catalog\n",
                   sanitized.dropped_out_of_range,
                   loaded->model.num_items());
    }
    auto recs = RecommendForHistory(loaded->model, loaded->config, history, m);
    if (!recs.ok()) {
      std::fprintf(stderr, "%s\n", recs.status().ToString().c_str());
      return 1;
    }
    top = std::move(recs).value();
  } else {
    const auto user = flags.Has("user") ? flags.Int<uint32_t>("user") : 0;
    if (!flags.Has("user") || user >= loaded->model.num_users()) {
      std::fprintf(stderr, "--user out of range (model has %u users)\n",
                   loaded->model.num_users());
      return 1;
    }
    // Blocked scoring engine over the loaded model — the same kernels the
    // bulk RecommendForAllUsers path runs. The selection buffer is sized
    // on first use, to at most the catalog.
    OcularModelRecommender shim(loaded->model);
    std::span<const uint32_t> exclude;
    if (user < ds->interactions().num_rows()) {
      exclude = ds->interactions().Row(user);
    }
    ServeOptions serve;
    serve.m = m;
    ServeWorkspace ws;
    auto ranked = ServeTopM(shim, user, exclude, serve, &ws);
    top.assign(ranked.begin(), ranked.end());
  }

  if (flags.Bool("json")) {
    JsonWriter w;
    w.BeginArray();
    for (const auto& si : top) {
      w.BeginObject();
      w.Key("item");
      w.UInt(si.item);
      w.Key("label");
      w.String(ds->ItemLabel(si.item));
      w.Key("score");
      w.Double(si.score);
      w.EndObject();
    }
    w.EndArray();
    std::printf("%s\n", w.str().c_str());
  } else {
    for (const auto& si : top) {
      std::printf("%-30s %.4f\n", ds->ItemLabel(si.item).c_str(), si.score);
    }
  }
  return 0;
}

int CmdExplain(const Flags& flags) {
  auto loaded = LoadModelAuto(flags.String("model"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  if (!flags.Has("user") || !flags.Has("item")) {
    std::fprintf(stderr, "--user and --item are required\n");
    return 1;
  }
  auto expl = ExplainRecommendation(loaded->model, ds->interactions(),
                                    flags.Int<uint32_t>("user"),
                                    flags.Int<uint32_t>("item"));
  if (!expl.ok()) {
    std::fprintf(stderr, "%s\n", expl.status().ToString().c_str());
    return 1;
  }
  if (flags.Bool("json")) {
    std::printf("%s\n", ExplanationToJson(*expl, *ds).c_str());
  } else {
    std::printf("%s", RenderExplanationText(*expl, *ds).c_str());
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const OcularConfig cfg = ConfigFromFlags(flags);
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  Rng rng(flags.Has("seed") ? flags.Int<uint64_t>("seed") : 42);
  auto split = SplitInteractions(ds->interactions(),
                                 flags.Real("train-fraction"), &rng);
  if (!split.ok()) {
    std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
    return 1;
  }
  OcularRecommender rec(cfg);
  Status st = rec.Fit(split->train);
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const auto m = flags.Int<uint32_t>("m");
  auto metrics = EvaluateRankingAtM(rec, split->train, split->test, m);
  if (!metrics.ok()) {
    std::fprintf(stderr, "%s\n", metrics.status().ToString().c_str());
    return 1;
  }
  auto auc = SampledAuc(rec, split->train, split->test, 3, &rng);
  std::printf("%s  K=%u lambda=%s\n", rec.name().c_str(), cfg.k,
              FormatDouble(cfg.lambda, 3).c_str());
  std::printf("recall@%u=%.4f  MAP@%u=%.4f  NDCG@%u=%.4f  MRR@%u=%.4f  "
              "AUC=%.4f  (%u users)\n",
              m, metrics->recall, m, metrics->map, m, metrics->ndcg, m,
              metrics->mrr, auc.ok() ? *auc : 0.0, metrics->num_users);
  return 0;
}

int CmdConvert(const Flags& flags) {
  const std::string& in = flags.String("in");
  const std::string& out = flags.String("out");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "convert needs --in=FILE and --out=FILE\n");
    return 1;
  }
  // A shardset manifest is text that a v1-model parse would misread line
  // by line — catch it up front and point at the subcommand that
  // understands it.
  if (IsShardSetFile(in)) {
    std::fprintf(stderr,
                 "%s is a shardset manifest, not a v1 text model; use "
                 "'ocular shard --manifest=%s' to inspect it (convert "
                 "operates on the member .oclr files)\n",
                 in.c_str(), in.c_str());
    return 1;
  }
  Status st;
  if (flags.String("to") == "binary") {
    if (IsBinaryModelFile(in)) {
      std::fprintf(stderr, "%s is already a binary model file\n",
                   in.c_str());
      return 1;
    }
    st = ConvertTextModelToBinary(in, out);
  } else {
    auto store = ModelStore::Open(in);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    auto loaded = store->MaterializeOcular();
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    st = SaveModel(loaded->model, loaded->config, out);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdShard(const Flags& flags) {
  // Inspect/route mode: read an existing manifest, optionally answer
  // "which shard serves user U" from the pure routing table.
  if (flags.Has("manifest")) {
    const std::string& manifest_path = flags.String("manifest");
    auto manifest = LoadShardSetManifest(manifest_path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
      return 1;
    }
    auto map = manifest->Map();
    if (!map.ok()) {
      std::fprintf(stderr, "%s\n", map.status().ToString().c_str());
      return 1;
    }
    if (flags.Has("route")) {
      const auto user = flags.Int<uint32_t>("route");
      if (user >= map->num_users()) {
        std::fprintf(stderr, "--route out of range (shardset has %u users)\n",
                     map->num_users());
        return 1;
      }
      const uint32_t s = map->shard_of(user);
      std::printf("user %u -> shard %u [%u, %u) in %s\n", user, s,
                  map->begin(s), map->end(s),
                  manifest->shards[s].file.c_str());
      return 0;
    }
    std::printf("%s: %u users x %u items, K=%u, %zu shards (%s split)\n",
                manifest_path.c_str(), manifest->num_users,
                manifest->num_items, manifest->k, manifest->shards.size(),
                manifest->split.c_str());
    std::printf("  items %s fp=%016llx\n", manifest->items_file.c_str(),
                static_cast<unsigned long long>(manifest->items_fingerprint));
    for (size_t s = 0; s < manifest->shards.size(); ++s) {
      const ShardSetEntry& e = manifest->shards[s];
      std::printf("  shard %03zu [%u, %u) %s fp=%016llx\n", s, e.user_begin,
                  e.user_end, e.file.c_str(),
                  static_cast<unsigned long long>(e.fingerprint));
    }
    return 0;
  }

  // Split mode: cut one binary model into an N-shard set.
  const std::string& in = flags.String("in");
  const std::string& out = flags.String("out");
  if (in.empty() || out.empty() || !flags.Has("shards")) {
    std::fprintf(stderr,
                 "shard needs --in=FILE.oclr --out=BASE.shardset --shards=N "
                 "(or --manifest=FILE.shardset to inspect)\n");
    return 1;
  }
  const auto shards = flags.Int<uint32_t>("shards");
  auto store = ModelStore::Open(in);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  Status st = SaveModelSharded(store->meta(), store->user_factors(),
                               store->item_factors_t(), shards, out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u users x %u items split %u ways\n", out.c_str(),
              store->num_users(), store->num_items(), shards);
  return 0;
}

int CmdLoadtest(const Flags& flags) {
  LoadGenOptions options;
  if (!flags.Has("port")) {
    std::fprintf(stderr, "loadtest needs --port of a running daemon\n");
    return 1;
  }
  options.port = flags.Int<uint16_t>("port");

  // Idle-flood mode: hold --idle-conns keep-alive connections (plus
  // optional slowloris dribblers and never-reading consumers) while
  // --burst-clients do real traffic through the flood. Exercises the
  // daemon's event-driven connection core rather than raw throughput.
  // --requests, --pipeline and --m default smaller in this mode.
  const auto idle_conns = flags.Int<uint32_t>("idle-conns");
  if (idle_conns > 0) {
    IdleFloodOptions flood;
    flood.port = options.port;
    flood.idle_conns = idle_conns;
    flood.burst_clients = flags.Int<uint32_t>("burst-clients");
    flood.requests_per_client =
        flags.Has("requests") ? flags.Int<uint64_t>("requests") : 500;
    flood.pipeline =
        flags.Has("pipeline") ? flags.Int<uint32_t>("pipeline") : 8;
    flood.m = flags.Has("m") ? flags.Int<uint32_t>("m") : 20;
    flood.num_users = flags.Int<uint32_t>("users");
    flood.model = flags.String("model");
    flood.zipf_skew = flags.Real("zipf-skew");
    flood.slow_writers = flags.Int<uint32_t>("slow-writers");
    flood.never_readers = flags.Int<uint32_t>("never-readers");
    flood.duration_ms = flags.Int<uint32_t>("duration-ms");
    auto flood_result = RunIdleFlood(flood);
    if (!flood_result.ok()) {
      std::fprintf(stderr, "%s\n", flood_result.status().ToString().c_str());
      return 1;
    }
    if (flags.Bool("json")) {
      JsonWriter w;
      w.BeginObject();
      w.Key("idle_conns");
      w.UInt(flood.idle_conns);
      w.Key("connections_held");
      w.UInt(flood_result->connections_held);
      w.Key("connections_dropped");
      w.UInt(flood_result->connections_dropped);
      w.Key("slow_writers_reaped");
      w.UInt(flood_result->slow_writers_reaped);
      w.Key("never_readers_closed");
      w.UInt(flood_result->never_readers_closed);
      w.Key("burst_requests");
      w.UInt(flood_result->burst_requests);
      w.Key("burst_ok");
      w.UInt(flood_result->burst_ok);
      w.Key("burst_errors");
      w.UInt(flood_result->burst_errors);
      w.Key("shed_retries");
      w.UInt(flood_result->shed_retries);
      w.Key("burst_rps");
      w.Double(flood_result->burst_rps);
      w.Key("burst_p50_us");
      w.Double(flood_result->burst_p50_us);
      w.Key("burst_p99_us");
      w.Double(flood_result->burst_p99_us);
      w.Key("seconds");
      w.Double(flood_result->seconds);
      w.EndObject();
      std::printf("%s\n", w.str().c_str());
    } else {
      std::printf("idle flood: %llu/%u connections held for %.3f s\n",
                  static_cast<unsigned long long>(
                      flood_result->connections_held),
                  flood.idle_conns, flood_result->seconds);
      std::printf("  burst     : %llu requests, %llu ok, %llu errors, "
                  "%.0f req/s, p99 %.1f us\n",
                  static_cast<unsigned long long>(flood_result->burst_requests),
                  static_cast<unsigned long long>(flood_result->burst_ok),
                  static_cast<unsigned long long>(flood_result->burst_errors),
                  flood_result->burst_rps, flood_result->burst_p99_us);
      if (flood.slow_writers > 0) {
        std::printf("  slowloris : %llu/%u reaped by the server\n",
                    static_cast<unsigned long long>(
                        flood_result->slow_writers_reaped),
                    flood.slow_writers);
      }
      if (flood.never_readers > 0) {
        std::printf("  mute conns: %llu/%u disconnected by the server\n",
                    static_cast<unsigned long long>(
                        flood_result->never_readers_closed),
                    flood.never_readers);
      }
      if (flood_result->shed_retries > 0) {
        std::printf("  shed      : %llu 503 replies absorbed by backoff\n",
                    static_cast<unsigned long long>(
                        flood_result->shed_retries));
      }
    }
    const bool healthy = flood_result->connections_held == flood.idle_conns &&
                         flood_result->burst_errors == 0;
    return healthy ? 0 : 3;
  }

  options.clients = flags.Int<uint32_t>("clients");
  options.requests_per_client = flags.Int<uint64_t>("requests");
  options.pipeline = flags.Int<uint32_t>("pipeline");
  options.m = flags.Int<uint32_t>("m");
  options.num_users = flags.Int<uint32_t>("users");
  options.model = flags.String("model");
  options.history_every = flags.Int<uint32_t>("history-every");
  options.history_len = flags.Int<uint32_t>("history-len");
  options.num_items = flags.Int<uint32_t>("items");
  if (options.history_every > 0 && options.num_items == 0) {
    std::fprintf(stderr,
                 "--history-every needs --items=I (the catalog size "
                 "generated histories draw from)\n");
    return 1;
  }
  options.reconnect_on_close = flags.Bool("reconnect");

  auto result = RunLoadGen(options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (flags.Bool("json")) {
    JsonWriter w;
    w.BeginObject();
    w.Key("clients");
    w.UInt(options.clients);
    w.Key("pipeline");
    w.UInt(options.pipeline);
    w.Key("requests");
    w.UInt(result->requests);
    w.Key("ok_replies");
    w.UInt(result->ok_replies);
    w.Key("error_replies");
    w.UInt(result->error_replies);
    w.Key("shed_retries");
    w.UInt(result->shed_retries);
    w.Key("reconnects");
    w.UInt(result->reconnects);
    w.Key("seconds");
    w.Double(result->seconds);
    w.Key("requests_per_second");
    w.Double(result->requests_per_second);
    w.Key("p50_latency_us");
    w.Double(result->p50_latency_us);
    w.Key("p99_latency_us");
    w.Double(result->p99_latency_us);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%llu requests over %u clients (pipeline %u) in %.3f s\n",
                static_cast<unsigned long long>(result->requests),
                options.clients, options.pipeline, result->seconds);
    std::printf("  throughput: %10.0f req/s\n", result->requests_per_second);
    std::printf("  latency   : p50 %.1f us, p99 %.1f us\n",
                result->p50_latency_us, result->p99_latency_us);
    if (result->error_replies > 0) {
      std::printf("  errors    : %llu replies answered ok:false\n",
                  static_cast<unsigned long long>(result->error_replies));
    }
    if (result->shed_retries > 0) {
      std::printf("  shed      : %llu 503 replies absorbed by backoff\n",
                  static_cast<unsigned long long>(result->shed_retries));
    }
    if (result->reconnects > 0) {
      std::printf("  reconnects: %llu dropped connections ridden through\n",
                  static_cast<unsigned long long>(result->reconnects));
    }
  }
  return result->error_replies == 0 ? 0 : 3;
}

/// One subcommand: its flags and what runs them. `serve` is the shared
/// RunServeCommand and is not listed here.
struct Command {
  FlagTable table;
  int (*run)(const Flags&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {{"ocular stats", "Describes an interaction dataset.", InputFlags()},
       CmdStats},
      {{"ocular synth",
        "Writes a synthetic dataset shaped like one of the paper's.",
        {ChoiceFlag("dataset", {"movielens", "citeulike", "b2b", "netflix"},
                    "b2b", "dataset shape"),
         RealFlag("scale", 0.0, 1.0, "0.02",
                  "fraction of the full dataset's users, in (0, 1]"),
         StringFlag("output", "", "tab-separated file to write (required)"),
         IntFlag("seed", 0, INT64_MAX, "1", "generator seed")}},
       CmdSynth},
      {{"ocular train", "Fits an OCuLaR or R-OCuLaR model and saves it.",
        Concat({InputFlags(), TrainerFlags(),
                {StringFlag("model", "",
                            "text model file to write (required)")}})},
       CmdTrain},
      {{"ocular recommend",
        "Top-M items for a stored --user, or for an ad-hoc --history.",
        Concat({InputFlags(),
                {StringFlag("model", "",
                            "text model, binary model or shardset"),
                 IntFlag("user", 0, UINT32_MAX, "", "stored user"),
                 IntListFlag("history", 0, UINT32_MAX,
                             "item ids of an ad-hoc user, folded in"),
                 IntFlag("m", 0, UINT32_MAX, "10", "items to list"),
                 BoolFlag("json", false, "print a JSON array")}})},
       CmdRecommend},
      {{"ocular explain", "Co-cluster rationale for a (user, item) pair.",
        Concat({InputFlags(),
                {StringFlag("model", "",
                            "text model, binary model or shardset"),
                 IntFlag("user", 0, UINT32_MAX, "", "user (required)"),
                 IntFlag("item", 0, UINT32_MAX, "", "item (required)"),
                 BoolFlag("json", false, "print JSON")}})},
       CmdExplain},
      {{"ocular evaluate",
        "Train/test split evaluation: recall, MAP, NDCG and MRR at M, and "
        "AUC.",
        Concat({InputFlags(), TrainerFlags(),
                {IntFlag("m", 0, UINT32_MAX, "50", "cutoff M"),
                 RealFlag("train-fraction", 0.0, 1.0, "0.75",
                          "share of each user's positives kept for "
                          "training")}})},
       CmdEvaluate},
      {{"ocular convert",
        "Converts a v1 text model to a binary OCLR file, or back.",
        {StringFlag("in", "", "model file to read (required)"),
         StringFlag("out", "", "model file to write (required)"),
         ChoiceFlag("to", {"binary", "text"}, "binary", "format to write")}},
       CmdConvert},
      {{"ocular shard",
        "Splits a binary model into a user-range shardset (--in, --out,\n"
        "--shards), or inspects one (--manifest, optionally --route).",
        {StringFlag("in", "", "binary model to split"),
         StringFlag("out", "", "shardset manifest to write"),
         IntFlag("shards", 1, UINT32_MAX, "", "shards to split into"),
         StringFlag("manifest", "", "shardset manifest to inspect"),
         IntFlag("route", 0, UINT32_MAX, "",
                 "user whose shard to print")}},
       CmdShard},
      {{"ocular loadtest",
        "Concurrent-client load on a running daemon or fleet. With\n"
        "--idle-conns it holds that many idle keep-alive connections while\n"
        "--burst-clients send traffic through them, and --requests,\n"
        "--pipeline and --m default to 500, 8 and 20.",
        {IntFlag("port", 1, 65535, "", "daemon port on 127.0.0.1 (required)"),
         IntFlag("clients", 1, 4096, "8", "concurrent clients"),
         IntFlag("requests", 1, 100000000, "1000", "requests per client"),
         // Capped so one batch always fits in the socket buffers: the
         // client writes a whole batch before reading its replies.
         IntFlag("pipeline", 1, 512, "16", "requests in flight per client"),
         IntFlag("m", 1, UINT32_MAX, "50", "top-M per request"),
         IntFlag("users", 1, UINT32_MAX, "1", "user ids drawn from"),
         StringFlag("model", "default", "model name"),
         BoolFlag("json", false, "print a JSON record"),
         BoolFlag("reconnect", false,
                  "resend a batch whose connection closed (fleet restarts)"),
         IntFlag("history-every", 0, UINT32_MAX, "0",
                 "every Nth request is a fold-in history request; 0 = none"),
         IntFlag("history-len", 1, 4096, "8", "items per history"),
         IntFlag("items", 0, UINT32_MAX, "0",
                 "catalog size histories draw from"),
         IntFlag("idle-conns", 0, 1000000, "0",
                 "idle keep-alive connections to hold; 0 = plain load"),
         IntFlag("burst-clients", 0, 4096, "4",
                 "clients sending traffic through the idle flood"),
         IntFlag("slow-writers", 0, 65536, "0",
                 "connections that dribble a request byte by byte"),
         IntFlag("never-readers", 0, 65536, "0",
                 "connections that never read their replies"),
         IntFlag("duration-ms", 0, 3600000, "1000", "idle-flood duration"),
         RealFlag("zipf-skew", 0.0, 64.0, "3", "burst user skew")}},
       CmdLoadtest},
  };
  return commands;
}

/// Every command's usage; returns 2, the exit code of a usage error.
int PrintCommandsUsage(const FlagTable& serve) {
  std::string usage = "usage: ocular <command> [flags]\n";
  for (const Command& c : Commands()) usage += "\n" + Usage(c.table);
  usage += "\n" + Usage(serve);
  std::fprintf(stderr, "%s", usage.c_str());
  return 2;
}

int Run(int argc, char** argv) {
  const FlagTable serve = ServeFlagTable("ocular serve");
  if (argc < 2) return PrintCommandsUsage(serve);
  const std::string command = argv[1];
  if (command == "serve") {
    return RunServeCommand(serve.program, argc - 1, argv + 1);
  }
  for (const Command& c : Commands()) {
    if (c.table.program == "ocular " + command) {
      return c.run(ParseFlagsOrExit(c.table, argc - 1, argv + 1));
    }
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return PrintCommandsUsage(serve);
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) { return ocular::Run(argc, argv); }
