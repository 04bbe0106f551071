#ifndef OCULAR_BENCH_BENCH_UTIL_H_
#define OCULAR_BENCH_BENCH_UTIL_H_

// Shared helpers for the benches.
//
// The table/figure binaries regenerate one table or figure of the ICDE'17
// OCuLaR paper on a shape-calibrated synthetic stand-in of the paper's
// dataset (the shaped generators in src/data/synthetic.h), scaled down so
// it runs in seconds-to-minutes. Pass --scale=<x> to change the dataset
// scale; an undeclared flag prints the bench's flags.
//
// The hot-path benches write one Record each (BENCH_*.json) and gate it
// against a checked-in record of an earlier run (bench/*.baseline.json):
// the gated values are ratios of two sides measured in one process, both
// product code, so a record transfers across machines.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "baselines/bpr.h"
#include "baselines/knn.h"
#include "baselines/wals.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/ocular_recommender.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "sparse/coo.h"

namespace ocular {
namespace bench {

/// Two disjoint dense user-item blocks with random holes: the easiest
/// co-clustering instance, and the workload of the train, serve, fold-in,
/// daemon, connection and fleet benches, so their records are comparable.
/// `scale` multiplies the row and column counts (at least 8 each per
/// block); one sweep or one all-users pass is dominated by the O(nnz·K)
/// block work.
inline CsrMatrix TwoBlockWorkload(double scale, uint64_t seed) {
  const auto dim = [scale](uint32_t base) {
    return std::max(8u, static_cast<uint32_t>(base * scale));
  };
  const uint32_t users_per_block = dim(600);
  const uint32_t items_per_block = dim(400);
  const double fill = 0.7;
  Rng rng(seed);
  CooBuilder coo;
  for (uint32_t b = 0; b < 2; ++b) {
    const uint32_t u0 = b * users_per_block;
    const uint32_t i0 = b * items_per_block;
    for (uint32_t u = 0; u < users_per_block; ++u) {
      for (uint32_t i = 0; i < items_per_block; ++i) {
        if (rng.Uniform(0.0, 1.0) < fill) coo.Add(u0 + u, i0 + i);
      }
    }
  }
  return CsrMatrix::FromCoo(
      coo.Finalize(2 * users_per_block, 2 * items_per_block).value());
}

/// One bench run as a JSON record, and its regression gate against a
/// record of an earlier run of the same bench:
///
///   {"bench":"serve_hot","workload":{"scale":0.5,...},"usable_cpus":4,
///    <informational and gated values, in the order added>,
///    "gates":{"<key>":{"better":"higher","factor":0.75,"slack":0},...}}
///
/// The baseline must name the same bench and record the same `workload`,
/// key for key; `usable_cpus` (the affinity mask, UsableCpus) is written
/// for the reader and not matched. Each gated value is then checked
/// against the baseline's top-level value of the same key: a higher-is-
/// better row fails below factor × recorded, a lower-is-better row above
/// factor × recorded + slack.
class Record {
 public:
  explicit Record(std::string bench) : bench_(std::move(bench)) {}

  /// A workload parameter, which a baseline must record identically.
  template <typename T>
  void Workload(const std::string& key, T value) {
    workload_.push_back({key, Of(value)});
  }
  /// An informational value, never gated.
  template <typename T>
  void Info(const std::string& key, T value) {
    values_.push_back({key, Of(value)});
  }
  /// A gated value that must not fall below factor × the recorded one.
  void AtLeast(const std::string& key, double value, double factor) {
    AddGate({key, value, true, factor, 0.0});
  }
  /// A gated value that must not rise above factor × the recorded one
  /// plus `slack`.
  void AtMost(const std::string& key, double value, double factor,
              double slack) {
    AddGate({key, value, false, factor, slack});
  }

  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.String(bench_);
    w.Key("workload");
    w.BeginObject();
    for (const auto& [key, value] : workload_) Put(&w, key, value);
    w.EndObject();
    w.Key("usable_cpus");
    w.UInt(UsableCpus());
    for (const auto& [key, value] : values_) Put(&w, key, value);
    w.Key("gates");
    w.BeginObject();
    for (const Gate& g : gates_) {
      w.Key(g.key);
      w.BeginObject();
      w.Key("better");
      w.String(g.higher ? "higher" : "lower");
      w.Key("factor");
      w.Double(g.factor);
      w.Key("slack");
      w.Double(g.slack);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

  /// Gates this record against the record text `baseline`. Returns 0 when
  /// every row holds; otherwise prints one FAIL line per refused key or
  /// failed row to stderr and returns 2.
  int Check(std::string_view baseline) const {
    auto parsed = JsonValue::Parse(baseline);
    if (!parsed.ok() || !parsed->is_object()) {
      return Fail("the baseline is not a JSON object");
    }
    // Both sides through the same writer, so numbers compare exactly.
    const JsonValue self = JsonValue::Parse(ToJson()).value();
    const JsonValue* name = parsed->Find("bench");
    if (name == nullptr || !Same(*name, *self.Find("bench"))) {
      return Fail("the baseline is not a record of bench " + bench_);
    }
    const JsonValue* base_workload = parsed->Find("workload");
    if (base_workload == nullptr || !base_workload->is_object()) {
      return Fail("the baseline records no workload");
    }
    int rc = 0;
    const JsonValue& workload = *self.Find("workload");
    for (const auto& [key, value] : workload.members()) {
      const JsonValue* base = base_workload->Find(key);
      if (base == nullptr || !Same(*base, value)) {
        rc = Fail("workload key " + key + " is " + Text(value) +
                  ", the baseline records " +
                  (base == nullptr ? "none" : Text(*base)));
      }
    }
    for (const auto& [key, value] : base_workload->members()) {
      if (workload.Find(key) == nullptr) {
        rc = Fail("the baseline records workload key " + key +
                  ", which this run has not");
      }
    }
    if (rc != 0) return rc;
    for (const Gate& g : gates_) {
      const JsonValue* base = parsed->Find(g.key);
      if (base == nullptr || !base->is_number()) {
        rc = Fail("the baseline records no " + g.key);
        continue;
      }
      const double recorded = base->number();
      const double limit =
          g.higher ? g.factor * recorded : g.factor * recorded + g.slack;
      // Written so that a NaN value fails.
      const bool holds = g.higher ? g.value >= limit : g.value <= limit;
      std::printf("  gate %s: %.4g %s %.4g (recorded %.4g)%s\n",
                  g.key.c_str(), g.value, g.higher ? ">=" : "<=", limit,
                  recorded, holds ? "" : " FAILED");
      if (!holds) {
        rc = Fail(g.key + " " + Text(g.value) + " is " +
                  (g.higher ? "below" : "above") + " its limit " +
                  Text(limit) + " (recorded " + Text(recorded) + ")");
      }
    }
    return rc;
  }

 private:
  using Value = std::variant<double, bool, std::string>;
  struct Gate {
    std::string key;
    double value = 0.0;
    bool higher = true;  // higher is better
    double factor = 1.0;
    double slack = 0.0;
  };

  template <typename T>
  static Value Of(T value) {
    if constexpr (std::is_same_v<T, bool>) {
      return value;
    } else if constexpr (std::is_arithmetic_v<T>) {
      return static_cast<double>(value);
    } else {
      return std::string(value);
    }
  }

  void AddGate(Gate gate) {
    values_.push_back({gate.key, gate.value});
    gates_.push_back(std::move(gate));
  }

  static void Put(JsonWriter* w, const std::string& key, const Value& value) {
    w->Key(key);
    if (const double* d = std::get_if<double>(&value)) {
      w->Double(*d);
    } else if (const bool* b = std::get_if<bool>(&value)) {
      w->Bool(*b);
    } else {
      w->String(std::get<std::string>(value));
    }
  }

  static bool Same(const JsonValue& a, const JsonValue& b) {
    return a.type() == b.type() && a.number() == b.number() &&
           a.string() == b.string();
  }

  static std::string Text(const JsonValue& v) {
    if (v.is_string()) return JsonWriter::Escape(v.string());
    if (v.is_bool()) return v.boolean() ? "true" : "false";
    return Text(v.number());
  }
  static std::string Text(double v) {
    JsonWriter w;
    w.Double(v);
    return w.str();
  }

  static int Fail(const std::string& why) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    return 2;
  }

  std::string bench_;
  std::vector<std::pair<std::string, Value>> workload_;
  std::vector<std::pair<std::string, Value>> values_;
  std::vector<Gate> gates_;
};

/// `flags` followed by the flags of a gated bench's record: --json,
/// --out (defaulting to `out`) and --baseline.
inline std::vector<FlagSpec> WithRecordFlags(std::vector<FlagSpec> flags,
                                             const std::string& out) {
  flags.push_back(BoolFlag("json", false, "write the JSON record to --out"));
  flags.push_back(StringFlag("out", out, "JSON record path"));
  flags.push_back(
      StringFlag("baseline", "", "checked-in record to gate this run against"));
  return flags;
}

/// Writes `record` to --out when --json is given (prints the path).
/// Returns false, after a log line, when the file cannot be written.
inline bool WriteRecord(const Record& record, const Flags& flags) {
  if (!flags.Bool("json")) return true;
  const std::string& path = flags.String("out");
  std::ofstream out(path, std::ios::trunc);
  out << record.ToJson() << '\n';
  if (!out.good()) {
    OCULAR_LOG(kError) << "cannot write " << path;
    return false;
  }
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

/// The end of a gated bench: writes the record (see WriteRecord), then
/// gates it against --baseline when one is named. Returns the bench's exit
/// code: 0, 1 when the record cannot be written, 2 when the baseline cannot
/// be read or the gate fails.
inline int FinishRecord(const Record& record, const Flags& flags) {
  if (!WriteRecord(record, flags)) return 1;
  const std::string& path = flags.String("baseline");
  if (path.empty()) return 0;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path.c_str());
    return 2;
  }
  return record.Check(text.str());
}

/// Median of `samples` (the mean of the middle two for an even count);
/// 0 for none.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// A named recommender candidate (one hyper-parameter setting).
struct Candidate {
  std::string algorithm;
  std::unique_ptr<Recommender> recommender;
};

/// Mean R-OCuLaR weight w_u = |unknowns| / |positives| over users with at
/// least one positive. R-OCuLaR's objective scales the positive terms by
/// ~this factor, so its lambda must scale with it to regularize comparably.
inline double MeanRelativeWeight(const CsrMatrix& interactions) {
  double sum = 0.0;
  uint32_t n = 0;
  for (uint32_t u = 0; u < interactions.num_rows(); ++u) {
    const double deg = interactions.RowDegree(u);
    if (deg > 0) {
      sum += (interactions.num_cols() - deg) / deg;
      ++n;
    }
  }
  return n > 0 ? sum / n : 1.0;
}

/// Builds the contestant roster of Table I / Figure 5: OCuLaR, R-OCuLaR,
/// wALS, BPR, user-based, item-based — each with a small hyper-parameter
/// sweep ("for each technique we test a number of hyper-parameters and
/// report only the best results", Section VII-B.2). `k_hint` scales the
/// latent dimensions to the dataset size; `mean_weight` feeds the
/// R-OCuLaR lambda scaling (MeanRelativeWeight of the training matrix).
inline std::vector<Candidate> MakeRoster(uint32_t k_hint,
                                         double mean_weight = 10.0) {
  std::vector<Candidate> roster;
  for (double lambda : {0.2, 1.0}) {
    for (uint32_t k : {k_hint, k_hint * 2}) {
      OcularConfig c;
      c.k = k;
      c.lambda = lambda;
      c.max_sweeps = 40;
      roster.push_back({"OCuLaR", std::make_unique<OcularRecommender>(c)});
      // R-OCuLaR's w_u weights inflate the positive terms by ~mean_weight;
      // sweep lambdas scaled accordingly.
      for (double boost : {0.3 * mean_weight, mean_weight}) {
        OcularConfig rc = c;
        rc.variant = OcularVariant::kRelative;
        rc.lambda = lambda * boost;
        roster.push_back(
            {"R-OCuLaR", std::make_unique<OcularRecommender>(rc)});
      }
    }
  }
  // wALS: the paper fixes b = 0.01, lambda = 0.01 and sweeps the latent
  // dimension; at our reduced scale the unknown-weight also needs a sweep
  // to stay competitive across densities.
  for (uint32_t k : {k_hint, k_hint * 2}) {
    for (double b : {0.01, 0.1}) {
      WalsConfig w;
      w.k = k;
      w.b = b;
      w.lambda = 0.05;
      w.iterations = 12;
      roster.push_back({"wALS", std::make_unique<WalsRecommender>(w)});
    }
    BprConfig b;
    b.k = k;
    b.epochs = 20;
    b.lambda = 0.01;
    roster.push_back({"BPR", std::make_unique<BprRecommender>(b)});
  }
  for (uint32_t n : {20u, 60u}) {
    KnnConfig kc;
    kc.num_neighbors = n;
    roster.push_back({"user-based", std::make_unique<UserKnnRecommender>(kc)});
    roster.push_back({"item-based", std::make_unique<ItemKnnRecommender>(kc)});
  }
  return roster;
}

/// Best MAP@m and recall@m per algorithm across its candidates, averaged
/// over `num_instances` independent 75/25 splits.
struct AlgoResult {
  std::string algorithm;
  double map = 0.0;
  double recall = 0.0;
};

inline std::vector<AlgoResult> RunComparison(const CsrMatrix& interactions,
                                             uint32_t m, uint32_t k_hint,
                                             int num_instances,
                                             uint64_t seed) {
  // algorithm -> best (map, recall) summed over instances.
  std::vector<std::string> names = {"OCuLaR", "R-OCuLaR",   "wALS",
                                    "BPR",    "user-based", "item-based"};
  std::vector<AlgoResult> totals;
  for (const auto& n : names) totals.push_back({n, 0.0, 0.0});

  for (int inst = 0; inst < num_instances; ++inst) {
    Rng rng(seed + static_cast<uint64_t>(inst) * 7919);
    auto split = SplitInteractions(interactions, 0.75, &rng).value();
    auto roster = MakeRoster(k_hint, MeanRelativeWeight(split.train));
    std::vector<AlgoResult> best;
    for (const auto& n : names) best.push_back({n, -1.0, -1.0});
    for (auto& cand : roster) {
      Status st = cand.recommender->Fit(split.train);
      if (!st.ok()) {
        OCULAR_LOG(kWarning) << cand.algorithm << ": " << st.ToString();
        continue;
      }
      auto metrics =
          EvaluateRankingAtM(*cand.recommender, split.train, split.test, m)
              .value();
      for (auto& b : best) {
        if (b.algorithm == cand.algorithm && metrics.map > b.map) {
          b.map = metrics.map;
          b.recall = metrics.recall;
        }
      }
    }
    for (size_t a = 0; a < names.size(); ++a) {
      totals[a].map += best[a].map;
      totals[a].recall += best[a].recall;
    }
  }
  for (auto& t : totals) {
    t.map /= num_instances;
    t.recall /= num_instances;
  }
  return totals;
}

}  // namespace bench
}  // namespace ocular

#endif  // OCULAR_BENCH_BENCH_UTIL_H_
