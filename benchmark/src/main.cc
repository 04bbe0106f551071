// ocular_bench: the end-to-end benchmark of OCuLaR (see benchmark/README.md).
//
//   ocular_bench --workload serve-cul --seed 7 --trace 0
//                --served PATH --fleet PATH [--fingerprints FILE] [--out DIR]
//
// A run generates the workload's inputs from the seed, trains and publishes
// the model, starts the real `ocular_served` (or `ocular_fleet`) processes,
// drives them from one epoll thread, checks every reply against the
// offline oracle, and prints each metric by name with its unit. The last
// stdout line is one JSON object: {"correct","attempted","failed",
// "metrics"} — the end-to-end metrics with --trace 0, the per-layer
// metrics of the traced run with --trace 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fold_in.h"
#include "core/model_store.h"
#include "data/dataset.h"
#include "data/loaders.h"
#include "eval/metrics.h"
#include "layers.h"
#include "loadgen.h"
#include "measure.h"
#include "oracle.h"
#include "parallel/parallel_trainer.h"
#include "procs.h"
#include "serving/batch.h"
#include "serving/store_recommender.h"
#include "sparse/coo.h"
#include "trace.h"
#include "workloads.h"

namespace ocular::bench {
namespace {

// Load discipline: one load-generating thread, at most nproc (4)
// connections, and fixed server sizes so numbers compare across commits.
constexpr size_t kTrainThreads = 2;
constexpr int kServerWorkers = 2;
constexpr int kFleetReplicas = 2;
constexpr int kReplicaWorkers = 1;
constexpr int kSetupRepeats = 7;

// Prefix of the stdout line, just before the result line, that carries the
// measured-but-not-gated end-to-end metrics as JSON (read by compare.py).
constexpr char kMeasuredPrefix[] = "measured-not-gated";

// Measured seconds of a run, the same on every commit compared. It is
// BENCHMARK.json's run_seconds; `--seconds` may only restate it.
constexpr int kRunSeconds = 16;
// The end-to-end run: a closed-loop warmup, then rounds that each split
// their share of the run between a closed-loop and an open-loop window.
constexpr double kWarmupShare = 0.05;
constexpr int kRounds = 8;
// Start of each closed window excluded from its throughput count.
constexpr double kClosedRampShare = 0.1;
// Each phase of the traced run.
constexpr double kTracedShare = 0.30;

// The in-process replay: the first lines of the read stream.
constexpr size_t kReplayLines = 20000;
constexpr size_t kReplayWarmup = 1000;
constexpr size_t kTraceCapacity = 1 << 20;
constexpr double kReconcileTolerance = 0.15;

// live-b2b's final oracle pass, after the last acked update.
constexpr uint32_t kVerifyUsers = 256;
constexpr uint32_t kVerifyHistories = 128;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  bool trace = false;
  std::string served;
  std::string fleet;
  std::string fingerprints;
  std::string out = ".";
  bool fingerprints_only = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (!key.starts_with("--")) {
      return Status::InvalidArgument("unexpected argument '" + key + "'");
    }
    key.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
      has_value = true;
    } else if (i + 1 < argc && !std::string(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
      has_value = true;
    }
    char* end = nullptr;
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        return Status::InvalidArgument("--seed must be an integer");
      }
    } else if (key == "seconds") {
      if (value != std::to_string(kRunSeconds)) {
        return Status::InvalidArgument("the run length is fixed: --seconds " +
                                       std::to_string(kRunSeconds));
      }
    } else if (key == "trace") {
      if (has_value && value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      a.trace = !has_value || value == "1";
    } else if (key == "served") {
      a.served = value;
    } else if (key == "fleet") {
      a.fleet = value;
    } else if (key == "fingerprints") {
      a.fingerprints = value;
    } else if (key == "out") {
      a.out = value;
    } else if (key == "fingerprints-only") {
      a.fingerprints_only = true;
    } else {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    std::string names;
    for (const WorkloadSpec& w : AllWorkloads()) {
      names += " " + std::string(w.name);
    }
    return Status::InvalidArgument("--workload must be one of:" + names);
  }
  if (!a.fingerprints_only && (a.served.empty() || a.fleet.empty())) {
    return Status::InvalidArgument("--served and --fleet are required");
  }
  return a;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Compares the run's input fingerprints with the ones recorded for the
/// default seed: the catalog and split on every run, the seeded traffic
/// streams on the default seed only. A difference means a code change
/// altered the inputs.
Status CheckDrift(const std::string& path, const WorkloadSpec& spec,
                  uint64_t seed, const std::vector<Fingerprint>& got) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read fingerprints " + path);
  std::stringstream text;
  text << in.rdbuf();
  OCULAR_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text.str()));
  const JsonValue* recorded = doc.Find(std::string(spec.name));
  if (recorded == nullptr) {
    return Status::NotFound("workload drift: no fingerprints recorded for " +
                            std::string(spec.name));
  }
  for (const Fingerprint& f : got) {
    if (f.per_seed && seed != kDefaultSeed) continue;
    const JsonValue* want = recorded->Find(f.name);
    if (want == nullptr || want->string() != Hex(f.value)) {
      return Status::FailedPrecondition(
          "workload drift: " + std::string(spec.name) + " " + f.name + " is " +
          Hex(f.value) + ", recorded " +
          (want == nullptr ? std::string("nothing") : want->string()));
    }
  }
  return Status::OK();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-24s %16.6f %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

/// {"name":{"value":v,"unit":"u"},...}. A metric that could not be
/// measured (not finite) clears *finite and is written as 0, which JSON can
/// carry.
std::string MetricsJson(const std::vector<Metric>& metrics, bool* finite) {
  std::string body;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const bool ok = std::isfinite(metrics[i].value);
    *finite = *finite && ok;
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", ok ? metrics[i].value : 0.0);
    body += (i > 0 ? "," : "") + std::string("\"") + metrics[i].name +
            "\":{\"value\":" + value + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return "{" + body + "}";
}

/// Prints the result line and returns whether the run was correct. A
/// metric that could not be measured makes the run incorrect.
bool PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  const std::string body = MetricsJson(metrics, &correct);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
  std::fflush(stdout);
  return correct;
}

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, p);
}

std::string Describe(const PhaseResult& ph) {
  const TailPercentile tail = HighestSupportedPercentile(ph.latency_ms);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "n=%zu p50=%.3f p%g=%.3f ms late_p99=%.3f ms busy=%.2f "
                "failed=%llu",
                ph.latency_ms.size(), Median(ph.latency_ms),
                tail.percentile * 100, tail.value,
                Percentile(ph.lateness_ms, 0.99), ph.generator_busy,
                static_cast<unsigned long long>(ph.failed));
  return buf;
}

/// The trained and published model of a run.
struct Prepared {
  std::string model_path;
  std::string data_path;
  OcularConfig config;
  OcularFitResult fit;
  std::shared_ptr<const CsrMatrix> train;
  double sweep_s = 0.0;
  double recall_at_50 = 0.0;
};

Result<Prepared> Prepare(const WorkloadSpec& spec, const Inputs& in,
                         const std::string& dir) {
  Prepared p;
  p.model_path = dir + "/model.oclr";
  p.data_path = dir + "/train.tsv";
  p.train = std::make_shared<const CsrMatrix>(in.split.train);
  p.config.k = spec.k;
  p.config.lambda = kLambda;
  p.config.tolerance = 0.0;
  p.config.seed = DeriveSeed(kCatalogSeed, kTrainTag);
  p.config.max_sweeps = spec.sweeps;
  OCULAR_ASSIGN_OR_RETURN(
      p.fit, ParallelOcularTrainer(p.config, kTrainThreads).Fit(*p.train));
  // With tolerance 0 a fit only stops early once Q stops decreasing at all.
  if (p.fit.trace.size() < 4) return Status::Internal("training stopped early");
  p.sweep_s = MedianSweepSeconds(p.fit.trace, spec.sweeps);

  OCULAR_RETURN_IF_ERROR(SaveModelBinary(p.fit.model, p.config, p.model_path));
  OCULAR_RETURN_IF_ERROR(
      SaveCsv(Dataset("train", in.split.train), p.data_path));
  OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(p.model_path));
  StoreRecommender rec(store);
  OCULAR_ASSIGN_OR_RETURN(
      MetricsAtM at_m,
      EvaluateRankingAtM(rec, *p.train, in.split.test, kRecallAtM));
  p.recall_at_50 = at_m.recall;
  return p;
}

/// The server processes of one workload: a daemon, or a fleet front with
/// its spawned replicas.
class Deployment {
 public:
  static Result<Deployment> Start(const WorkloadSpec& spec, const Args& args,
                                  const Prepared& p, const std::string& log) {
    Deployment d;
    OCULAR_ASSIGN_OR_RETURN(d.port_, FreePorts(1 + kFleetReplicas));
    std::vector<std::string> argv;
    const std::string models = "--models=default=" + p.model_path;
    const std::string datasets = "--datasets=default=" + p.data_path;
    if (spec.fleet) {
      argv = {args.fleet,
              "--port=" + std::to_string(d.port_),
              "--spawn=" + std::to_string(kFleetReplicas),
              "--served=" + args.served,
              models,
              datasets,
              "--journal=0",
              "--workers=" + std::to_string(kServerWorkers),
              "--replica-workers=" + std::to_string(kReplicaWorkers),
              "--base-port=" + std::to_string(d.port_ + 1)};
      for (int r = 0; r < kFleetReplicas; ++r) {
        d.replica_ports_.push_back(static_cast<uint16_t>(d.port_ + 1 + r));
      }
    } else {
      argv = {args.served,
              models,
              datasets,
              "--port=" + std::to_string(d.port_),
              "--workers=" + std::to_string(kServerWorkers),
              std::string("--journal=") + (spec.writer ? "1" : "0")};
    }
    const int64_t t0 = NowNs();
    OCULAR_ASSIGN_OR_RETURN(d.proc_, ChildProcess::Spawn(argv, log));
    const Status ready = WaitUntilServing(d.port_, &d.proc_, 60.0);
    if (!ready.ok()) {
      return Status::Internal(ready.ToString() + "; log:\n" + LogTail(log));
    }
    d.setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    if (spec.fleet) d.replica_pids_ = ChildrenOf(d.proc_.pid());
    return d;
  }

  Deployment() = default;
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&&) = default;
  ~Deployment() { Stop(); }

  uint16_t port() const { return port_; }
  const std::vector<uint16_t>& replica_ports() const { return replica_ports_; }
  double setup_s() const { return setup_s_; }

  /// Peak resident memory of every serving process, MiB.
  double PeakRssMb() {
    uint64_t kb = PeakRssKb(proc_.pid());
    for (const pid_t r : replica_pids_) kb += PeakRssKb(r);
    return static_cast<double>(kb) / 1024.0;
  }

  /// Drains the front (a fleet reaps its replicas), then makes sure no
  /// replica outlives it: the benchmark is the subreaper, so a replica the
  /// fleet left behind is now its child (a pid that is not is left alone).
  void Stop() {
    proc_.Stop(20.0);
    for (const pid_t r : replica_pids_) {
      if (::waitpid(r, nullptr, WNOHANG) == 0) {
        ::kill(r, SIGKILL);
        ::waitpid(r, nullptr, 0);
      }
    }
    replica_pids_.clear();
  }

 private:
  ChildProcess proc_;
  uint16_t port_ = 0;
  std::vector<uint16_t> replica_ports_;
  std::vector<pid_t> replica_pids_;
  double setup_s_ = 0.0;
};

/// Removes the run directory on every exit path.
struct RunDir {
  std::string path;
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

LoadSession::Options SessionOptions(const WorkloadSpec& spec, const Inputs& in,
                                    uint16_t port) {
  LoadSession::Options o;
  o.port = port;
  o.connections = spec.read_connections;
  o.stream = &in.reads;
  // Live updates change replies, so only their shape is checked on the
  // timed path; the final oracle pass checks content.
  o.check = spec.writer ? ReplyCheck::kStructure : ReplyCheck::kPerKeyHash;
  o.m = spec.m;
  o.num_keys = in.split.train.num_rows() + kHistoryPool;
  o.updates = spec.writer ? &in.updates : nullptr;
  return o;
}

/// The offline fold-in oracle. Histories that fold to nothing fall back,
/// as in the daemon, to items ranked by interaction count in `train`.
class HistoryOracle {
 public:
  static Result<HistoryOracle> Build(const LoadedModel& loaded,
                                     const CsrMatrix& train) {
    std::vector<double> popularity(loaded.model.num_items(), 0.0);
    for (const uint32_t c : train.col_idx()) popularity[c] += 1.0;
    HistoryOracle oracle;
    OCULAR_ASSIGN_OR_RETURN(
        oracle.ctx_,
        MakeFoldInContext(loaded.model, loaded.config, popularity));
    return oracle;
  }

  Result<std::vector<ScoredItem>> Rank(std::vector<uint32_t> history,
                                       uint32_t m) const {
    SanitizeHistory(&history, ctx_.num_items());
    FoldInWorkspace ws;
    ws.Reserve(ctx_.dims(), history.size());
    std::vector<double> tile;
    std::vector<ScoredItem> selection;
    OCULAR_ASSIGN_OR_RETURN(
        HistoryRecommendation rec,
        RecommendForHistoryInto(ctx_, history, m, 0.0, kDefaultScoreBlockItems,
                                FoldInOptions{}, &ws, &tile, &selection));
    return std::vector<ScoredItem>(rec.items.begin(), rec.items.end());
  }

 private:
  FoldInContext ctx_;
};

/// Parse-checks the first reply of every key the phases touched against
/// the offline oracle of the (unchanged) served model.
Status CheckAgainstOracle(const WorkloadSpec& spec, const Inputs& in,
                          const Prepared& p, LoadSession* session,
                          std::string* first_mismatch) {
  OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(p.model_path));
  StoreRecommender rec(store);
  BatchOptions batch;
  batch.m = spec.m;
  batch.skip_cold_users = false;
  ThreadPool pool(kTrainThreads);
  OCULAR_ASSIGN_OR_RETURN(BatchRecommendations oracle,
                          RecommendForAllUsers(rec, *p.train, batch, &pool));
  OCULAR_ASSIGN_OR_RETURN(LoadedModel loaded, store.MaterializeOcular());
  OCULAR_ASSIGN_OR_RETURN(HistoryOracle history_oracle,
                          HistoryOracle::Build(loaded, *p.train));
  const uint32_t users = p.train->num_rows();
  const auto& entries = session->log().entries();
  for (uint32_t key = 0; key < entries.size(); ++key) {
    if (entries[key].count == 0) continue;
    std::vector<ScoredItem> expect;
    if (key < users) {
      expect = oracle.recommendations[key];
    } else {
      OCULAR_ASSIGN_OR_RETURN(
          expect, history_oracle.Rank(in.histories[key - users], spec.m));
    }
    const std::string diff = RankedReplyMismatch(entries[key].first, expect);
    if (!diff.empty()) {
      session->RecordMismatches(entries[key].count);
      if (first_mismatch->empty()) {
        *first_mismatch = "key " + std::to_string(key) + ": " + diff;
      }
    }
  }
  return Status::OK();
}

/// live-b2b: after the last acked update, fetches a seeded sample of users
/// and histories and checks them against an oracle built from the
/// published artifact and the training data plus every acked add.
Status CheckLiveAgainstOracle(const WorkloadSpec& spec, const Inputs& in,
                              const Prepared& p, uint64_t seed,
                              LoadSession* session,
                              std::string* first_mismatch) {
  OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(p.model_path));
  CooBuilder coo;
  for (auto [u, i] : p.train->ToPairs()) coo.Add(u, i);
  for (uint64_t n = 0; n < session->updates_acked(); ++n) {
    for (auto [u, i] : in.update_adds[n % in.update_adds.size()]) coo.Add(u, i);
  }
  OCULAR_ASSIGN_OR_RETURN(auto entries,
                          coo.Finalize(store.num_users(), store.num_items()));
  const CsrMatrix merged = CsrMatrix::FromCoo(entries);
  OCULAR_ASSIGN_OR_RETURN(LoadedModel loaded, store.MaterializeOcular());
  OCULAR_ASSIGN_OR_RETURN(HistoryOracle history_oracle,
                          HistoryOracle::Build(loaded, merged));
  StoreRecommender rec(store);

  Rng rng(DeriveSeed(seed, kSampleTag));
  std::vector<std::string> lines;
  std::vector<std::vector<ScoredItem>> expect;
  std::vector<double> tile;
  std::vector<ScoredItem> ranked;
  for (uint32_t n = 0; n < kVerifyUsers; ++n) {
    const auto u = static_cast<uint32_t>(rng.UniformInt(store.num_users()));
    lines.push_back(UserRequestLine(u, spec.m));
    RecommendBlockedInto(rec, u, spec.m, merged.Row(u),
                         -std::numeric_limits<double>::infinity(),
                         kDefaultScoreBlockItems, &tile, &ranked);
    expect.push_back(ranked);
  }
  for (uint32_t n = 0; n < kVerifyHistories; ++n) {
    const std::vector<uint32_t>& history =
        in.histories[rng.UniformInt(in.histories.size())];
    lines.push_back(HistoryRequestLine(history, spec.m));
    OCULAR_ASSIGN_OR_RETURN(auto ranked_h,
                            history_oracle.Rank(history, spec.m));
    expect.push_back(std::move(ranked_h));
  }
  const std::vector<std::string> replies = session->Fetch(lines);
  for (size_t r = 0; r < replies.size(); ++r) {
    if (replies[r].empty()) continue;  // counted by the session as failed
    const std::string diff = RankedReplyMismatch(replies[r], expect[r]);
    if (!diff.empty()) {
      session->RecordMismatches(1);
      if (first_mismatch->empty()) {
        *first_mismatch = "verify " + lines[r].substr(0, lines[r].size() - 1) +
                          ": " + diff;
      }
    }
  }
  return Status::OK();
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args, const Inputs& in,
                const Prepared& p, const std::string& dir) {
  // Set-up time: process spawn to the first ok ping on the client port,
  // over several cold starts; the last one stays up. The fleet polls each
  // replica's port every 10 ms, so one fleet start takes either about
  // 24 ms or about 34 ms: a median of starts would jump between the two
  // with the host's speed, while a mean moves smoothly. The mean leaves
  // out the fastest and the slowest start.
  std::vector<double> setups;
  Result<Deployment> dep = Status::Internal("not started");
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (dep.ok()) dep->Stop();
    dep = Deployment::Start(spec, args, p,
                            dir + "/server-" + std::to_string(i) + ".log");
    if (!dep.ok()) {
      std::fprintf(stderr, "%s\n", dep.status().ToString().c_str());
      return 1;
    }
    setups.push_back(dep->setup_s());
  }

  // Rounds alternate a closed-loop window and an open-loop window at the
  // workload's rate, so a host stall moves one round, not the result;
  // throughput and latency are medians over the rounds.
  const double S = kRunSeconds;
  const double half_round = (1.0 - kWarmupShare) * S / kRounds / 2.0;
  LoadSession session(SessionOptions(spec, in, dep->port()));
  session.Connect();
  session.ClosedLoop("warmup", spec.closed_depth, 0.0, kWarmupShare * S);
  std::vector<double> rps, p50, p90;
  PhaseResult pooled;
  for (int r = 0; r < kRounds; ++r) {
    const PhaseResult closed = session.ClosedLoop(
        "closed", spec.closed_depth, kClosedRampShare * half_round,
        (1.0 - kClosedRampShare) * half_round);
    // live-b2b: one update lands in every open window, at its start.
    session.SendUpdate();
    const PhaseResult open = session.OpenLoop(
        "rate", spec.rate, half_round, PhaseSeed(args.seed, 1 + r));
    rps.push_back(closed.throughput);
    p50.push_back(Percentile(open.latency_ms, 0.50));
    p90.push_back(Percentile(open.latency_ms, 0.90));
    std::printf("  round %d: closed %.0f req/s (busy %.2f); rate %s\n", r,
                closed.throughput, closed.generator_busy,
                Describe(open).c_str());
    pooled.latency_ms.insert(pooled.latency_ms.end(), open.latency_ms.begin(),
                             open.latency_ms.end());
    pooled.lateness_ms.insert(pooled.lateness_ms.end(),
                              open.lateness_ms.begin(), open.lateness_ms.end());
    pooled.failed += open.failed;
    pooled.generator_busy = std::max(pooled.generator_busy, open.generator_busy);
  }
  session.WaitForUpdates();
  const double rss_mb = dep->PeakRssMb();

  std::string mismatch;
  const Status checked =
      spec.writer
          ? CheckLiveAgainstOracle(spec, in, p, args.seed, &session, &mismatch)
          : CheckAgainstOracle(spec, in, p, &session, &mismatch);
  dep->Stop();
  if (!checked.ok()) {
    std::fprintf(stderr, "oracle: %s\n", checked.ToString().c_str());
    return 1;
  }

  const Failures& f = session.failures();
  const uint64_t attempted = session.attempted();
  const bool updates_ok =
      !spec.writer || (session.updates_acked() > 0 &&
                       session.updates_acked() == session.updates_sent());
  const bool correct = f.total() == 0 && updates_ok;

  std::printf("workload %s seed %llu: %u read connections, m=%u\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              spec.read_connections, spec.m);
  std::printf("  all rate windows: %s\n", Describe(pooled).c_str());
  std::printf("  failures: %llu error replies, %llu mismatches, %llu timeouts, "
              "%llu connection losses of %llu attempted%s%s\n",
              static_cast<unsigned long long>(f.error_replies),
              static_cast<unsigned long long>(f.mismatches),
              static_cast<unsigned long long>(f.timeouts),
              static_cast<unsigned long long>(f.connection_losses),
              static_cast<unsigned long long>(attempted),
              mismatch.empty() ? "" : "; first mismatch: ", mismatch.c_str());
  if (!session.first_error().empty()) {
    std::printf("  first error reply: %s\n", session.first_error().c_str());
  }

  // Gated (BENCHMARK.json): each stays within its bound from run to run.
  const std::vector<Metric> gated = {
      {"setup_s", TrimmedMean(setups), "s",
       "mean of " + std::to_string(kSetupRepeats) +
           " cold starts but the fastest and the slowest"},
      {"rss_mb", rss_mb, "MB", "peak VmHWM of the serving processes"},
      {"recall_at_50", p.recall_at_50, "ratio", "held-out 25%"},
  };
  // Measured on every run and compared by compare.py, but not gated: on a
  // shared 4-vCPU host their spread between runs exceeds 10% (README,
  // calibration record).
  const std::string rounds = ", median of " + std::to_string(kRounds) +
                             " rounds";
  const std::vector<Metric> measured = {
      {"rps", Median(rps), "req/s",
       "closed loop, " + std::to_string(spec.read_connections) + " x " +
           std::to_string(spec.closed_depth) + " outstanding" + rounds},
      {"p50_ms", Median(p50), "ms", "open loop at rate" + rounds},
      {"p90_ms", Median(p90), "ms", "open loop at rate" + rounds},
      {"sweep_s", p.sweep_s, "s",
       "median of sweeps 2-" + std::to_string(p.fit.sweeps_run) + ", " +
           std::to_string(kTrainThreads) + " threads"},
  };
  std::printf("end-to-end metrics, gated:\n");
  for (const Metric& m : gated) PrintMetric(m);
  std::printf("end-to-end metrics, measured and not gated:\n");
  for (const Metric& m : measured) PrintMetric(m);
  PrintMetric({"fail_frac",
               attempted == 0 ? 1.0
                              : static_cast<double>(f.total()) /
                                    static_cast<double>(attempted),
               "ratio", "all phases"});
  const TailPercentile tail = HighestSupportedPercentile(pooled.latency_ms);
  PrintMetric({"p99_ms", Percentile(pooled.latency_ms, 0.99), "ms",
               "all rate windows, n=" + std::to_string(tail.n)});
  PrintMetric({"tail_ms", tail.value, "ms",
               "p" + std::to_string(tail.percentile * 100).substr(0, 4) +
                   ", the highest with >= 10 samples beyond"});
  PrintMetric({"client.late_ms_p99", Percentile(pooled.lateness_ms, 0.99), "ms",
               "generator lateness at rate"});
  if (spec.writer) {
    PrintMetric({"update_ms", Median(session.update_ack_ms()), "ms",
                 "median ack, n=" + std::to_string(session.updates_acked())});
  }
  bool finite = true;
  std::printf("%s %s\n", kMeasuredPrefix, MetricsJson(measured, &finite).c_str());
  return PrintResult(correct && finite, attempted, f.total(), gated) ? 0 : 1;
}

struct StatsCounters {
  double requests = 0;
  double errors = 0;
  double fold_in = 0;
  double updates = 0;
  double p50_us = 0;
  double p99_us = 0;
};

Result<StatsCounters> ParseStats(const std::string& reply, bool fleet) {
  OCULAR_ASSIGN_OR_RETURN(JsonValue v, JsonValue::Parse(reply));
  auto field = [&v](const char* key) {
    const JsonValue* f = v.Find(key);
    return f == nullptr ? 0.0 : f->number();
  };
  StatsCounters c;
  c.requests = field(fleet ? "requests_proxied" : "requests_served");
  c.errors = field("errors");
  c.fold_in = field("fold_in_requests");
  c.updates = field("updates");
  c.p50_us = field("p50_latency_us");
  c.p99_us = field("p99_latency_us");
  return c;
}

/// The counters the front reports must move exactly as the client sent.
std::string CheckStatsDelta(const StatsCounters& before,
                            const StatsCounters& after, const PhaseResult& ph,
                            uint64_t updates_acked, bool fleet) {
  // Plus one `stats` call: a daemon counts the previous one once it is
  // answered, a fleet counts the current one before it answers.
  const double expect = static_cast<double>(ph.attempted + updates_acked) + 1.0;
  std::string out;
  auto check = [&out, &ph](const char* what, double got, double want) {
    if (got != want && out.empty()) {
      out = ph.name + ": stats " + what + " moved by " +
            std::to_string(static_cast<long long>(got)) + ", client sent " +
            std::to_string(static_cast<long long>(want));
    }
  };
  check("requests", after.requests - before.requests, expect);
  if (!fleet) {
    check("errors", after.errors - before.errors, 0.0);
    check("fold_in_requests", after.fold_in - before.fold_in,
          static_cast<double>(ph.history_sent));
    check("updates", after.updates - before.updates,
          static_cast<double>(updates_acked));
  }
  return out;
}

int RunTraced(const WorkloadSpec& spec, const Args& args, const Inputs& in,
              const Prepared& p, const std::string& dir) {
  TraceBuffer trace(kTraceCapacity);
  const double membw = StreamReadGbps(size_t{256} << 20, 5);
  const size_t ws_bytes = static_cast<size_t>(spec.k) *
                          in.split.train.num_cols() * sizeof(double);
  // At least 512 MiB read in total, so small working sets are timed over
  // many passes.
  const int ws_passes = std::max<int>(
      5, static_cast<int>((size_t{512} << 20) / std::max<size_t>(ws_bytes, 1)));
  const double bw_ws = StreamReadGbps(ws_bytes, ws_passes);

  auto dep = Deployment::Start(spec, args, p, dir + "/server.log");
  if (!dep.ok()) {
    std::fprintf(stderr, "%s\n", dep.status().ToString().c_str());
    return 1;
  }
  const double S = kRunSeconds;
  LoadSession session(SessionOptions(spec, in, dep->port()));
  session.Connect();
  std::vector<std::string> problems;
  // Scraped once every update is acked, so the counters have settled.
  auto scrape = [&](const char* when) -> StatsCounters {
    session.WaitForUpdates();
    const auto replies = session.Fetch({"{\"cmd\":\"stats\"}\n"});
    auto parsed = ParseStats(replies[0], spec.fleet);
    if (!parsed.ok()) {
      problems.push_back(std::string("stats ") + when + ": " +
                         parsed.status().ToString());
      return {};
    }
    return *parsed;
  };
  auto replica_stats = [&]() {
    std::vector<StatsCounters> out;
    for (const uint16_t port : dep->replica_ports()) {
      auto reply = RequestOnce(port, "{\"cmd\":\"stats\"}\n");
      auto parsed = reply.ok() ? ParseStats(*reply, false)
                               : Result<StatsCounters>(reply.status());
      out.push_back(parsed.ok() ? *parsed : StatsCounters{});
    }
    return out;
  };

  const std::vector<StatsCounters> replicas_before = replica_stats();
  const StatsCounters s0 = scrape("before");
  uint64_t acked = session.updates_acked();
  session.SendUpdate();
  const PhaseResult untraced =
      session.OpenLoop("rate", spec.rate, kTracedShare * S,
                       PhaseSeed(args.seed, 1));
  const StatsCounters s1 = scrape("after rate");
  const std::vector<StatsCounters> replicas_after = replica_stats();
  if (auto bad = CheckStatsDelta(s0, s1, untraced,
                                 session.updates_acked() - acked, spec.fleet);
      !bad.empty()) {
    problems.push_back(bad);
  }
  acked = session.updates_acked();
  session.SendUpdate();
  const PhaseResult traced = session.OpenLoop(
      "rate.traced", spec.rate, kTracedShare * S, PhaseSeed(args.seed, 1),
      &trace);
  const StatsCounters s2 = scrape("after traced");
  if (auto bad = CheckStatsDelta(s1, s2, traced,
                                 session.updates_acked() - acked, spec.fleet);
      !bad.empty()) {
    problems.push_back(bad);
  }

  // The fleet hop: the same stream against one replica directly, at the
  // per-replica share of the rate.
  double fleet_hop_us = 0.0;
  std::string fleet_note;
  if (spec.fleet) {
    LoadSession::Options o = SessionOptions(spec, in, dep->replica_ports()[0]);
    o.connections = 1;
    LoadSession direct(o);
    direct.Connect();
    const PhaseResult one = direct.OpenLoop(
        "replica.direct", spec.rate / kFleetReplicas, kTracedShare * S,
        PhaseSeed(args.seed, 1));
    fleet_hop_us = (Median(untraced.latency_ms) - Median(one.latency_ms)) * 1e3;
    if (direct.failures().total() > 0) {
      problems.push_back("direct replica phase failed");
    }
    const auto replies = session.Fetch({"{\"cmd\":\"stats\"}\n"});
    fleet_note = replies[0];
  }
  const uint64_t attempted_served = session.attempted();
  const uint64_t failed_served = session.failures().total();
  dep->Stop();

  // In-process replay of the same stream, one layer at a time.
  std::vector<std::string> lines;
  for (size_t r = 0; r < std::min(kReplayLines, in.reads.size()); ++r) {
    lines.push_back(in.reads[r].line.substr(0, in.reads[r].line.size() - 1));
  }
  for (const auto& h : in.histories) {
    std::string line = HistoryRequestLine(h, spec.m);
    line.pop_back();
    lines.push_back(std::move(line));
  }
  auto replay = ReplayLayers(p.model_path, p.train, lines, kReplayWarmup,
                             spec.m, &trace);
  if (!replay.ok()) {
    std::fprintf(stderr, "replay: %s\n", replay.status().ToString().c_str());
    return 1;
  }
  if (!replay->mismatch.empty()) problems.push_back(replay->mismatch);
  auto updates = TimeUpdateSteps(p.model_path, *p.train, in.update_adds,
                                 in.updates, dir);
  if (!updates.ok()) {
    std::fprintf(stderr, "update steps: %s\n",
                 updates.status().ToString().c_str());
    return 1;
  }
  auto training = CompareSerialTraining(
      *p.train, p.config, std::min<uint32_t>(spec.sweeps, 4), p.fit);
  if (!training.ok()) {
    std::fprintf(stderr, "training: %s\n",
                 training.status().ToString().c_str());
    return 1;
  }

  // Reconciliation: the layers must add up to the whole, for each kind of
  // line against HandleLine on lines of that kind.
  const ReplayStats& r = *replay;
  std::string reconcile;
  auto check = [&](const std::string& what, double parts, double whole) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ": %.3f us vs %.3f us", parts, whole);
    reconcile += "  reconcile " + what + buf + "\n";
    if (std::fabs(parts - whole) > kReconcileTolerance * whole) {
      problems.push_back(what + buf);
    }
  };
  auto line_set = [](const char* kind, const LineKindStats& k) {
    return std::string(kind) + " lines (" + std::to_string(k.lines) + ", " +
           std::to_string(k.dropped) + " stalled left out) ";
  };
  auto sum = [](const LineKindStats& k) {
    return k.parse_us + k.get_us + k.work_us + k.render_us;
  };
  check(line_set("stored-user", r.user) +
            "parse+get+serve.topm+render vs daemon.handle",
        sum(r.user), r.user.handle_us);
  check(line_set("history", r.history) +
            "parse+get+foldin.solve+foldin.rank+render vs daemon.handle",
        sum(r.history), r.history.handle_us);
  check("kernel+select vs serve.topm", r.kernel_us + r.select_us,
        r.user.work_us);

  const std::string trace_path =
      args.out + "/trace-" + std::string(spec.name) + ".json";
  if (Status st = trace.WriteChromeJson(trace_path); !st.ok()) {
    problems.push_back(st.ToString());
  }
  std::ostringstream summary;
  summary << "per-layer self time (" << trace.size() << " spans, "
          << trace.dropped() << " dropped):\n";
  for (const TraceBuffer::LayerTime& row : trace.SelfTimes()) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  %-20s %9llu spans %12.3f ms total %12.3f ms self "
                  "%10.3f us/span\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ms, row.self_ms,
                  row.count == 0 ? 0.0 : row.total_ms * 1e3 / row.count);
    summary << buf;
  }
  std::ofstream(args.out + "/trace-" + std::string(spec.name) + ".summary.txt")
      << summary.str();

  double server_p50 = s1.p50_us;
  double server_p99 = s1.p99_us;
  double served = s1.requests - s0.requests;
  if (spec.fleet) {
    server_p50 = server_p99 = served = 0.0;
    for (size_t i = 0; i < replicas_after.size(); ++i) {
      server_p50 += replicas_after[i].p50_us / replicas_after.size();
      server_p99 += replicas_after[i].p99_us / replicas_after.size();
      served += replicas_after[i].requests - replicas_before[i].requests;
    }
  }
  const double client_p50_us = Median(untraced.latency_ms) * 1e3;
  const double overhead_ratio =
      Median(traced.latency_ms) / Median(untraced.latency_ms);
  const double kernel_gbps = r.kernel_bytes / (r.kernel_us * 1e-6) / 1e9;
  const double nnz_k = static_cast<double>(p.train->nnz()) * spec.k;
  const std::vector<Metric> metrics = {
      {"kernel.us", r.kernel_us, "us", "RawScoreBlock, every tile"},
      {"kernel.bytes", r.kernel_bytes, "bytes", "active dims x items x 8"},
      {"kernel.bw_frac", kernel_gbps / bw_ws, "ratio", "of hw.bw_gbps_ws"},
      {"select.us", r.select_us, "us", "TopMSelector"},
      {"serve.topm_us", r.user.work_us, "us", "ServeTopM"},
      {"json.parse_us", r.user.parse_us, "us",
       "JsonValue::Parse, stored-user lines"},
      {"render.us", r.user.render_us, "us",
       "JsonWriter + WriteRankedItems, stored-user lines"},
      {"registry.get_us", r.user.get_us, "us",
       "ModelRegistry::Get, stored-user lines"},
      {"registry.load_ms", updates->registry_load_ms, "ms",
       "ModelRegistry::Load"},
      {"foldin.solve_us", r.foldin_solve_us, "us", "FoldInUserInto"},
      {"foldin.rank_us", r.foldin_rank_us, "us",
       "ranking of the folded factor"},
      {"update.retrain_ms", updates->retrain_ms, "ms", "UpdateModel, 1 sweep"},
      {"update.handle_ms", updates->handle_ms, "ms", "HandleLine(update)"},
      {"store.save_ms", updates->save_ms, "ms", "save + fsync + rename"},
      {"store.open_ms", updates->open_ms, "ms", "ModelStore::Open"},
      {"journal.append_ms", updates->journal_append_ms, "ms",
       "update + commit"},
      {"daemon.handle_us", r.user.handle_us, "us",
       "HandleLine, stored-user lines"},
      {"daemon.wire_us", client_p50_us - r.handle_p50_us, "us",
       "client p50 at rate - HandleLine p50"},
      {"daemon.server_p50_us", server_p50, "us", "stats verb"},
      {"daemon.server_p99_us", server_p99, "us", "stats verb"},
      {"daemon.requests_served", served, "count",
       "stats delta over rate phase"},
      {"train.ns_per_nnz_k", p.sweep_s / nnz_k * 1e9, "ns",
       "sweep_s / (nnz K)"},
      {"train.objective", p.fit.trace.back().objective, "Q",
       "after the last sweep"},
      {"train.serial_sweep_s", training->serial_sweep_s, "s", "OcularTrainer"},
      {"parallel.speedup",
       training->serial_sweep_s / training->parallel_sweep_s, "ratio",
       "serial / 2 threads, same sweeps"},
      {"parallel.imbalance", training->imbalance, "ratio",
       "max/mean nnz, 2 ranges"},
      {"hw.membw_gbps", membw, "GB/s", "256 MiB streaming read"},
      {"hw.bw_gbps_ws", bw_ws, "GB/s",
       "kernel working set, " + std::to_string(ws_bytes >> 10) + " KiB"},
      {"trace.overhead_ratio", overhead_ratio, "ratio",
       "traced / untraced client p50"},
      {"client.late_ms_p99", Percentile(untraced.lateness_ms, 0.99), "ms",
       "generator lateness at rate"},
  };

  std::printf("workload %s seed %llu, traced run\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed));
  std::printf("  phase rate %.0f/s: %s\n", spec.rate,
              Describe(untraced).c_str());
  std::printf("  phase rate.traced %.0f/s: %s\n", spec.rate,
              Describe(traced).c_str());
  std::fputs(reconcile.c_str(), stdout);
  std::printf("  trace: %s\n", trace_path.c_str());
  std::fputs(summary.str().c_str(), stdout);
  std::printf("per-layer metrics:\n");
  for (const Metric& m : metrics) PrintMetric(m);
  PrintMetric({"trace.overhead_frac", overhead_ratio - 1.0, "ratio",
               "traced p50 / untraced p50 - 1"});
  if (spec.fleet) {
    PrintMetric({"fleet.hop_us", fleet_hop_us, "us",
                 "fleet p50 - direct replica p50 at rate/2"});
    std::printf("  fleet stats: %s\n", fleet_note.c_str());
  }
  if (spec.writer) {
    PrintMetric({"update_ms", Median(session.update_ack_ms()), "ms",
                 "median ack, n=" + std::to_string(session.updates_acked())});
  }
  for (const std::string& problem : problems) {
    std::printf("  FAILED CHECK: %s\n", problem.c_str());
  }
  const uint64_t attempted = attempted_served + r.user.lines + r.history.lines;
  const uint64_t failed = failed_served + (r.mismatch.empty() ? 0 : 1);
  const bool correct = problems.empty() && failed == 0;
  return PrintResult(correct, attempted, failed, metrics) ? 0 : 1;
}

int Main(int argc, char** argv) {
  // Orphaned grandchildren (a fleet's replicas) are reparented here, so
  // Deployment::Stop can always reap them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "ocular_bench: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args->workload);
  auto inputs = MakeInputs(spec, args->seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  if (args->fingerprints_only) {
    std::printf("\"%s\": {", std::string(spec.name).c_str());
    for (size_t i = 0; i < inputs->fingerprints.size(); ++i) {
      std::printf("%s\"%s\": \"%s\"", i > 0 ? ", " : "",
                  inputs->fingerprints[i].name.c_str(),
                  Hex(inputs->fingerprints[i].value).c_str());
    }
    std::printf("}\n");
    return 0;
  }
  std::printf("inputs:");
  for (const Fingerprint& f : inputs->fingerprints) {
    std::printf(" %s=%s", f.name.c_str(), Hex(f.value).c_str());
  }
  std::printf("\n");
  if (!args->fingerprints.empty()) {
    if (Status st = CheckDrift(args->fingerprints, spec, args->seed,
                               inputs->fingerprints);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 3;
    }
  }

  RunDir dir{args->out + "/run-" + std::string(spec.name) + "-" +
                 std::to_string(::getpid())};
  std::error_code ec;
  std::filesystem::create_directories(dir.path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.path.c_str());
    return 1;
  }
  auto prepared = Prepare(spec, *inputs, dir.path);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  return args->trace ? RunTraced(spec, *args, *inputs, *prepared, dir.path)
                     : RunEndToEnd(spec, *args, *inputs, *prepared, dir.path);
}

}  // namespace
}  // namespace ocular::bench

int main(int argc, char** argv) { return ocular::bench::Main(argc, argv); }
