// ocular — command-line interface to the OCuLaR library.
//
// Subcommands:
//   stats      describe an interaction dataset
//   synth      generate a synthetic dataset (shape-calibrated stand-ins)
//   train      fit an OCuLaR / R-OCuLaR model and save it
//   recommend  top-M recommendations for a user (or an ad-hoc history)
//   explain    co-cluster rationale for a (user, item) pair
//   evaluate   train/test split evaluation (recall@M, MAP@M, AUC)
//   convert    v1 text model <-> binary OCLR (.oclr) model file
//   shard      split a binary model into a user-sharded *.shardset, or
//              inspect/route against an existing manifest
//   serve      resident model server (same engine as ocular_served)
//   loadtest   concurrent-client throughput/latency probe of a running
//              daemon (the same load generator bench_daemon_hot uses)
//
// Examples:
//   ocular synth --dataset=b2b --scale=0.02 --output=/tmp/b2b.tsv
//   ocular train --input=/tmp/b2b.tsv --model=/tmp/b2b.model --k=16
//       --lambda=0.5   (continued from previous line)
//   ocular recommend --model=/tmp/b2b.model --input=/tmp/b2b.tsv --user=3
//   ocular explain --model=/tmp/b2b.model --input=/tmp/b2b.tsv --user=3
//       --item=17 --json   (continued from previous line)
//   ocular evaluate --input=/tmp/b2b.tsv --k=16 --lambda=0.5 --m=50

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
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

constexpr char kUsage[] = R"(usage: ocular <command> [flags]

commands:
  stats      --input=FILE [--format=csv|ml100k|ml1m] [--delimiter=C]
  synth      --dataset=movielens|citeulike|b2b|netflix --scale=S
             --output=FILE [--seed=N]
  train      --input=FILE --model=FILE [--k=N] [--lambda=L]
             [--variant=absolute|relative] [--sweeps=N] [--biases]
             [--seed=N] [--format=...]
  recommend  --model=FILE --input=FILE (--user=N | --history=i1,i2,...)
             [--m=N] [--json]
  explain    --model=FILE --input=FILE --user=N --item=N [--json]
  evaluate   --input=FILE [--k=N] [--lambda=L] [--m=N]
             [--train-fraction=F] [--seed=N] [--format=...]
  convert    --in=FILE --out=FILE [--to=binary|text]
  shard      --in=FILE.oclr --out=BASE.shardset --shards=N
             | --manifest=FILE.shardset [--route=USER]
  serve      --models=name=path[,...] [--datasets=name=path[,...]]
             [--port=N] [--m=N] [--workers=N] [--accept-queue=N]
             [--update-sweeps=N]
  loadtest   --port=N [--clients=C] [--requests=R] [--pipeline=P]
             [--users=U] [--m=N] [--model=NAME] [--json] [--reconnect]
             [--history-every=N --items=I [--history-len=L]]
             | --port=N --idle-conns=N [--burst-clients=C] [--requests=R]
             [--slow-writers=N] [--never-readers=N] [--duration-ms=D]
             [--zipf-skew=S]   (idle-flood mode: hold N keep-alive
             connections while bursty traffic rides through)
)";

Result<Dataset> LoadInput(const Flags& flags) {
  OCULAR_ASSIGN_OR_RETURN(std::string path, flags.RequireString("input"));
  const std::string format = flags.GetString("format", "csv");
  if (format == "ml100k") return LoadMovieLens100K(path);
  if (format == "ml1m") return LoadMovieLens1M(path);
  if (format == "csv") {
    CsvOptions opts;
    const std::string delim = flags.GetString("delimiter", "\t");
    opts.delimiter = delim.empty() ? '\t' : delim[0];
    opts.compact_ids = flags.GetBool("compact-ids", false);
    return LoadCsv(path, opts);
  }
  return Status::InvalidArgument("unknown --format '" + format + "'");
}

/// Reads the trainer flags. A --k or --sweeps that is not an integer in
/// range, or a --lambda that is not a finite number >= 0, is an error that
/// names the flag: a cast would turn --k=-1 into 4294967295, and a value
/// that does not parse would silently train at the default.
Result<OcularConfig> ConfigFromFlags(const Flags& flags) {
  const auto count = [&flags](const std::string& name, uint32_t def,
                              uint32_t max) -> Result<uint32_t> {
    if (!flags.Has(name)) return def;
    const Result<int64_t> value = flags.RequireInt(name);
    if (!value.ok() || *value < 1 || *value > max) {
      return Status::InvalidArgument("--" + name + "=" +
                                     flags.GetString(name) +
                                     " is not an integer in [1, " +
                                     std::to_string(max) + "]");
    }
    return static_cast<uint32_t>(*value);
  };
  OcularConfig cfg;
  // K + 2 (the bias dimensions) must still fit in 32 bits.
  OCULAR_ASSIGN_OR_RETURN(
      cfg.k, count("k", 16, std::numeric_limits<uint32_t>::max() - 2));
  OCULAR_ASSIGN_OR_RETURN(
      cfg.max_sweeps,
      count("sweeps", 60, std::numeric_limits<uint32_t>::max()));
  cfg.lambda = 0.5;
  if (flags.Has("lambda")) {
    const Result<double> lambda = flags.RequireDouble("lambda");
    if (!lambda.ok() || !std::isfinite(*lambda) || *lambda < 0.0) {
      return Status::InvalidArgument("--lambda=" + flags.GetString("lambda") +
                                     " is not a finite number >= 0");
    }
    cfg.lambda = *lambda;
  }
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.use_biases = flags.GetBool("biases", false);
  if (flags.GetString("variant", "absolute") == "relative") {
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
  const std::string name = flags.GetString("dataset", "b2b");
  const double scale = flags.GetDouble("scale", 0.02);
  const std::string output = flags.GetString("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "--output is required\n");
    return 1;
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  Result<PlantedCoClusterData> data =
      name == "movielens"   ? MakeMovieLensLike(scale, &rng)
      : name == "citeulike" ? MakeCiteULikeLike(scale, &rng)
      : name == "netflix"   ? MakeNetflixLike(scale, &rng)
      : name == "b2b"       ? MakeB2BLike(scale, &rng)
                            : Result<PlantedCoClusterData>(
                                  Status::InvalidArgument(
                                      "unknown --dataset '" + name + "'"));
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
  const Result<OcularConfig> cfg = ConfigFromFlags(flags);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    return 1;
  }
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto model_path = flags.RequireString("model");
  if (!model_path.ok()) {
    std::fprintf(stderr, "%s\n", model_path.status().ToString().c_str());
    return 1;
  }
  OcularRecommender rec(*cfg);
  Status st = rec.Fit(ds->interactions());
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = SaveModel(rec.model(), *cfg, *model_path);
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
              model_path->c_str(), rec.model().MemoryBytes());
  return 0;
}

int CmdRecommend(const Flags& flags) {
  // Accepts v1 text, binary OCLR, and `*.shardset` manifests alike
  // (LoadModelAuto sniffs and gathers).
  auto loaded = LoadModelAuto(flags.GetString("model"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const uint32_t m = static_cast<uint32_t>(flags.GetInt("m", 10));

  std::vector<ScoredItem> top;
  if (flags.Has("history")) {
    // Ad-hoc history: fold-in inference for a user not in the training
    // data (new-client serving path).
    std::vector<uint32_t> history;
    const std::string raw_history = flags.GetString("history");
    for (auto field : Split(raw_history, ',')) {
      auto parsed = ParseInt64(field);
      if (!parsed.ok() || parsed.value() < 0) {
        std::fprintf(stderr, "bad --history entry '%s'\n",
                     std::string(field).c_str());
        return 1;
      }
      history.push_back(static_cast<uint32_t>(parsed.value()));
    }
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
    const int64_t user = flags.GetInt("user", -1);
    if (user < 0 || user >= loaded->model.num_users()) {
      std::fprintf(stderr, "--user out of range (model has %u users)\n",
                   loaded->model.num_users());
      return 1;
    }
    // Blocked scoring engine over the loaded model — the same kernels the
    // bulk RecommendForAllUsers path runs.
    OcularModelRecommender shim(loaded->model);
    std::span<const uint32_t> exclude;
    if (static_cast<uint32_t>(user) < ds->interactions().num_rows()) {
      exclude = ds->interactions().Row(static_cast<uint32_t>(user));
    }
    ServeOptions serve;
    serve.m = m;
    ServeWorkspace ws;
    ws.Reserve(serve.m, serve.block_items);
    auto ranked =
        ServeTopM(shim, static_cast<uint32_t>(user), exclude, serve, &ws);
    top.assign(ranked.begin(), ranked.end());
  }

  if (flags.GetBool("json")) {
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
  auto loaded = LoadModelAuto(flags.GetString("model"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const int64_t user = flags.GetInt("user", -1);
  const int64_t item = flags.GetInt("item", -1);
  if (user < 0 || item < 0) {
    std::fprintf(stderr, "--user and --item are required\n");
    return 1;
  }
  auto expl = ExplainRecommendation(loaded->model, ds->interactions(),
                                    static_cast<uint32_t>(user),
                                    static_cast<uint32_t>(item));
  if (!expl.ok()) {
    std::fprintf(stderr, "%s\n", expl.status().ToString().c_str());
    return 1;
  }
  if (flags.GetBool("json")) {
    std::printf("%s\n", ExplanationToJson(*expl, *ds).c_str());
  } else {
    std::printf("%s", RenderExplanationText(*expl, *ds).c_str());
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const Result<OcularConfig> cfg = ConfigFromFlags(flags);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    return 1;
  }
  auto ds = LoadInput(flags);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  const double train_fraction = flags.GetDouble("train-fraction", 0.75);
  auto split = SplitInteractions(ds->interactions(), train_fraction, &rng);
  if (!split.ok()) {
    std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
    return 1;
  }
  OcularRecommender rec(*cfg);
  Status st = rec.Fit(split->train);
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint32_t m = static_cast<uint32_t>(flags.GetInt("m", 50));
  auto metrics = EvaluateRankingAtM(rec, split->train, split->test, m);
  if (!metrics.ok()) {
    std::fprintf(stderr, "%s\n", metrics.status().ToString().c_str());
    return 1;
  }
  auto auc = SampledAuc(rec, split->train, split->test, 3, &rng);
  std::printf("%s  K=%u lambda=%s\n", rec.name().c_str(), cfg->k,
              FormatDouble(cfg->lambda, 3).c_str());
  std::printf("recall@%u=%.4f  MAP@%u=%.4f  NDCG@%u=%.4f  MRR@%u=%.4f  "
              "AUC=%.4f  (%u users)\n",
              m, metrics->recall, m, metrics->map, m, metrics->ndcg, m,
              metrics->mrr, auc.ok() ? *auc : 0.0, metrics->num_users);
  return 0;
}

int CmdConvert(const Flags& flags) {
  auto in = flags.RequireString("in");
  auto out = flags.RequireString("out");
  if (!in.ok() || !out.ok()) {
    std::fprintf(stderr, "convert needs --in=FILE and --out=FILE\n");
    return 1;
  }
  // A shardset manifest is text that a v1-model parse would misread line
  // by line — catch it up front and point at the subcommand that
  // understands it.
  if (IsShardSetFile(*in)) {
    std::fprintf(stderr,
                 "%s is a shardset manifest, not a v1 text model; use "
                 "'ocular shard --manifest=%s' to inspect it (convert "
                 "operates on the member .oclr files)\n",
                 in->c_str(), in->c_str());
    return 1;
  }
  const std::string to = flags.GetString("to", "binary");
  Status st;
  if (to == "binary") {
    if (IsBinaryModelFile(*in)) {
      std::fprintf(stderr, "%s is already a binary model file\n",
                   in->c_str());
      return 1;
    }
    st = ConvertTextModelToBinary(*in, *out);
  } else if (to == "text") {
    auto store = ModelStore::Open(*in);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    auto loaded = store->MaterializeOcular();
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    st = SaveModel(loaded->model, loaded->config, *out);
  } else {
    std::fprintf(stderr, "--to must be 'binary' or 'text'\n");
    return 1;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out->c_str());
  return 0;
}

int CmdShard(const Flags& flags) {
  // Inspect/route mode: read an existing manifest, optionally answer
  // "which shard serves user U" from the pure routing table.
  if (flags.Has("manifest")) {
    const std::string manifest_path = flags.GetString("manifest");
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
      const int64_t user = flags.GetInt("route", -1);
      if (user < 0 || user >= map->num_users()) {
        std::fprintf(stderr, "--route out of range (shardset has %u users)\n",
                     map->num_users());
        return 1;
      }
      const uint32_t s = map->shard_of(static_cast<uint32_t>(user));
      std::printf("user %lld -> shard %u [%u, %u) in %s\n",
                  static_cast<long long>(user), s, map->begin(s), map->end(s),
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
  auto in = flags.RequireString("in");
  auto out = flags.RequireString("out");
  if (!in.ok() || !out.ok()) {
    std::fprintf(stderr,
                 "shard needs --in=FILE.oclr --out=BASE.shardset --shards=N "
                 "(or --manifest=FILE.shardset to inspect)\n");
    return 1;
  }
  const int64_t shards = flags.GetInt("shards", 0);
  if (shards < 1 || shards > UINT32_MAX) {
    std::fprintf(stderr, "--shards must be at least 1\n");
    return 1;
  }
  auto store = ModelStore::Open(*in);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  Status st = SaveModelSharded(store->meta(), store->user_factors(),
                               store->item_factors(), store->item_factors_t(),
                               static_cast<uint32_t>(shards), *out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u users x %u items split %u ways\n", out->c_str(),
              store->num_users(), store->num_items(),
              static_cast<uint32_t>(shards));
  return 0;
}

int CmdLoadtest(const Flags& flags) {
  LoadGenOptions options;
  const int64_t port = flags.GetInt("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "loadtest needs --port of a running daemon\n");
    return 1;
  }
  options.port = static_cast<uint16_t>(port);

  // Idle-flood mode: hold --idle-conns keep-alive connections (plus
  // optional slowloris dribblers and never-reading consumers) while
  // --burst-clients do real traffic through the flood. Exercises the
  // daemon's event-driven connection core rather than raw throughput.
  const int64_t idle_conns = flags.GetInt("idle-conns", 0);
  if (idle_conns > 0) {
    IdleFloodOptions flood;
    flood.port = options.port;
    const int64_t burst_clients = flags.GetInt("burst-clients", 4);
    const int64_t requests = flags.GetInt("requests", 500);
    const int64_t pipeline = flags.GetInt("pipeline", 8);
    const int64_t m = flags.GetInt("m", 20);
    const int64_t users = flags.GetInt("users", 1);
    const int64_t slow_writers = flags.GetInt("slow-writers", 0);
    const int64_t never_readers = flags.GetInt("never-readers", 0);
    const int64_t duration_ms = flags.GetInt("duration-ms", 1000);
    const double zipf_skew = flags.GetDouble("zipf-skew", 3.0);
    if (idle_conns > 1'000'000 || burst_clients < 0 || burst_clients > 4096 ||
        requests < 1 || requests > 100'000'000 || pipeline < 1 ||
        pipeline > 512 || m < 1 || m > UINT32_MAX || users < 1 ||
        users > UINT32_MAX || slow_writers < 0 || slow_writers > 65536 ||
        never_readers < 0 || never_readers > 65536 || duration_ms < 0 ||
        duration_ms > 3600000 || zipf_skew < 0.0 || zipf_skew > 64.0) {
      std::fprintf(stderr,
                   "idle-flood flags out of range: --idle-conns in [1, 1e6], "
                   "--burst-clients in [0, 4096], --pipeline in [1, 512], "
                   "--slow-writers/--never-readers in [0, 65536], "
                   "--duration-ms in [0, 3600000], --zipf-skew in [0, 64]\n");
      return 1;
    }
    flood.idle_conns = static_cast<uint32_t>(idle_conns);
    flood.burst_clients = static_cast<uint32_t>(burst_clients);
    flood.requests_per_client = static_cast<uint64_t>(requests);
    flood.pipeline = static_cast<uint32_t>(pipeline);
    flood.m = static_cast<uint32_t>(m);
    flood.num_users = static_cast<uint32_t>(users);
    flood.model = flags.GetString("model", "default");
    flood.zipf_skew = zipf_skew;
    flood.slow_writers = static_cast<uint32_t>(slow_writers);
    flood.never_readers = static_cast<uint32_t>(never_readers);
    flood.duration_ms = static_cast<uint32_t>(duration_ms);
    auto flood_result = RunIdleFlood(flood);
    if (!flood_result.ok()) {
      std::fprintf(stderr, "%s\n", flood_result.status().ToString().c_str());
      return 1;
    }
    if (flags.GetBool("json")) {
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

  const int64_t clients = flags.GetInt("clients", 8);
  const int64_t requests = flags.GetInt("requests", 1000);
  const int64_t pipeline = flags.GetInt("pipeline", 16);
  const int64_t m = flags.GetInt("m", 50);
  const int64_t users = flags.GetInt("users", 1);
  // --pipeline is capped so one request batch always fits in the socket
  // buffers: the client writes the whole batch before reading, so an
  // oversized batch would deadlock against a worker blocked writing
  // replies the client is not yet consuming.
  if (clients < 1 || clients > 4096 || requests < 1 ||
      requests > 100'000'000 || pipeline < 1 || pipeline > 512 || m < 1 ||
      m > UINT32_MAX || users < 1 || users > UINT32_MAX) {
    std::fprintf(stderr,
                 "loadtest flags out of range: --clients in [1, 4096], "
                 "--pipeline in [1, 512], --requests in [1, 1e8], "
                 "--m/--users >= 1\n");
    return 1;
  }
  options.clients = static_cast<uint32_t>(clients);
  options.requests_per_client = static_cast<uint64_t>(requests);
  options.pipeline = static_cast<uint32_t>(pipeline);
  options.m = static_cast<uint32_t>(m);
  options.num_users = static_cast<uint32_t>(users);
  options.model = flags.GetString("model", "default");
  // Mixed-verb traffic: --history-every=N makes every Nth request per
  // client a fold-in "history" request over a catalog of --items ids.
  const int64_t history_every = flags.GetInt("history-every", 0);
  const int64_t history_len = flags.GetInt("history-len", 8);
  const int64_t items = flags.GetInt("items", 0);
  if (history_every < 0 || history_every > UINT32_MAX || history_len < 1 ||
      history_len > 4096 || items < 0 || items > UINT32_MAX) {
    std::fprintf(stderr,
                 "loadtest history flags out of range: --history-every "
                 ">= 0, --history-len in [1, 4096], --items >= 0\n");
    return 1;
  }
  if (history_every > 0 && items == 0) {
    std::fprintf(stderr,
                 "--history-every needs --items=I (the catalog size "
                 "generated histories draw from)\n");
    return 1;
  }
  options.history_every = static_cast<uint32_t>(history_every);
  options.history_len = static_cast<uint32_t>(history_len);
  options.num_items = static_cast<uint32_t>(items);
  // Fleet mode: ride through a proxy or replica restarting mid-run by
  // rolling back and resending the outstanding batch instead of failing.
  options.reconnect_on_close = flags.GetBool("reconnect", false);

  auto result = RunLoadGen(options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (flags.GetBool("json")) {
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

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string command = argv[1];
  Flags flags = Flags::Parse(argc - 1, argv + 1);
  if (command == "stats") return CmdStats(flags);
  if (command == "synth") return CmdSynth(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "recommend") return CmdRecommend(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "shard") return CmdShard(flags);
  if (command == "serve") return RunServeCommand(flags);
  if (command == "loadtest") return CmdLoadtest(flags);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) { return ocular::Run(argc, argv); }
