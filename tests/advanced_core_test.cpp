// Tests for the core extensions: fold-in inference, bias terms
// (Section IV-A optional model), multi-step block solves (Section IV-B
// discussion), cross-validation, AUC/MRR metrics, explanation JSON.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/early_stopping.h"
#include "core/explain.h"
#include "core/fold_in.h"
#include "core/ocular_recommender.h"
#include "data/synthetic.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"

namespace ocular {
namespace {

OcularFitResult TrainToy(OcularConfig config) {
  Dataset toy = MakePaperToyDataset();
  OcularTrainer trainer(config);
  return trainer.Fit(toy.interactions()).value();
}

// ---------------------------------------------------------------- FoldIn

TEST(FoldInTest, MatchesTrainedUserFactor) {
  // Folding in the history of a user that WAS in training should land
  // near that user's trained factor (both solve the same strongly convex
  // block problem against the same item factors).
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 300;
  cfg.tolerance = 1e-10;
  auto fit = TrainToy(cfg);

  auto history = toy.interactions().Row(6);
  auto folded = FoldInUser(fit.model, cfg, history).value();
  ASSERT_EQ(folded.size(), 3u);
  // Compare predictions, not raw factors (factor permutation-invariant).
  for (uint32_t i = 0; i < toy.num_items(); ++i) {
    const double trained = fit.model.Probability(6, i);
    const double fold = ScoreFoldedUser(fit.model, folded, i);
    EXPECT_NEAR(trained, fold, 0.08) << "item " << i;
  }
}

TEST(FoldInTest, RecommendsTheToyHole) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 200;
  auto fit = TrainToy(cfg);
  // A NEW client with user 6's purchase pattern should be recommended
  // item 4 without retraining.
  std::vector<uint32_t> history{1, 2, 3, 5, 6, 7, 8, 9};
  auto recs = RecommendForHistory(fit.model, cfg, history, 1).value();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 4u);
  EXPECT_GT(recs[0].score, 0.5);
}

TEST(FoldInTest, EmptyHistoryScoresZero) {
  OcularConfig cfg;
  cfg.k = 3;
  cfg.max_sweeps = 20;
  auto fit = TrainToy(cfg);
  auto folded = FoldInUser(fit.model, cfg, {}).value();
  for (double v : folded) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(ScoreFoldedUser(fit.model, folded, 0), 0.0);
}

TEST(FoldInTest, ValidatesInput) {
  OcularConfig cfg;
  cfg.k = 3;
  cfg.max_sweeps = 10;
  auto fit = TrainToy(cfg);
  std::vector<uint32_t> out_of_range{99};
  EXPECT_TRUE(FoldInUser(fit.model, cfg, out_of_range)
                  .status()
                  .IsInvalidArgument());
  std::vector<uint32_t> unsorted{5, 3};
  EXPECT_TRUE(
      FoldInUser(fit.model, cfg, unsorted).status().IsInvalidArgument());
  OcularConfig wrong_k = cfg;
  wrong_k.k = 7;
  std::vector<uint32_t> ok_history{1};
  EXPECT_TRUE(FoldInUser(fit.model, wrong_k, ok_history)
                  .status()
                  .IsInvalidArgument());
}

TEST(FoldInTest, SanitizeHistoryNormalizesClientInput) {
  // Unsorted, duplicated, and partly out-of-catalog — the wire shape.
  std::vector<uint32_t> history{9, 2, 9, 30, 0, 2, 31};
  const HistorySanitizeResult res = SanitizeHistory(&history, 30);
  EXPECT_EQ(history, (std::vector<uint32_t>{0, 2, 9}));
  EXPECT_EQ(res.dropped_out_of_range, 2u);

  std::vector<uint32_t> empty;
  EXPECT_EQ(SanitizeHistory(&empty, 30).dropped_out_of_range, 0u);
  EXPECT_TRUE(empty.empty());

  std::vector<uint32_t> all_out{100, 200};
  EXPECT_EQ(SanitizeHistory(&all_out, 30).dropped_out_of_range, 2u);
  EXPECT_TRUE(all_out.empty());
}

TEST(FoldInTest, BlockedRecommendMatchesPerPairLoop) {
  // RecommendForHistory now ranks through the blocked engine; the
  // straightforward per-pair loop it replaced is the oracle — item ids
  // and scores must stay bit-identical.
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 200;
  auto fit = TrainToy(cfg);
  const std::vector<uint32_t> history{1, 3, 5, 7};
  const uint32_t m = 5;

  auto folded = FoldInUser(fit.model, cfg, history).value();
  std::vector<double> scores(toy.num_items());
  for (uint32_t i = 0; i < toy.num_items(); ++i) {
    scores[i] = ScoreFoldedUser(fit.model, folded, i);
  }
  const std::vector<ScoredItem> expect = TopM(scores, m, history);

  auto recs = RecommendForHistory(fit.model, cfg, history, m).value();
  ASSERT_EQ(recs.size(), expect.size());
  for (size_t r = 0; r < expect.size(); ++r) {
    EXPECT_EQ(recs[r].item, expect[r].item) << "rank " << r;
    EXPECT_EQ(recs[r].score, expect[r].score) << "rank " << r;
  }
}

TEST(FoldInTest, EmptyHistoryFallsBackToDeterministicPopularity) {
  // A history with no signal must not return an arbitrary tie-broken
  // prefix of an all-zero score vector: the fallback ranks by expected
  // affinity <sum_u f_u, f_i> (no training matrix offline), and two
  // calls agree exactly.
  OcularConfig cfg;
  cfg.k = 3;
  cfg.max_sweeps = 40;
  auto fit = TrainToy(cfg);

  auto first = RecommendForHistory(fit.model, cfg, {}, 4).value();
  auto second = RecommendForHistory(fit.model, cfg, {}, 4).value();
  ASSERT_EQ(first.size(), 4u);
  for (size_t r = 0; r < first.size(); ++r) {
    EXPECT_EQ(first[r].item, second[r].item);
    EXPECT_EQ(first[r].score, second[r].score);
  }
  // The ranking is the hand-computed expected-affinity TopM.
  const std::vector<double> user_sums =
      ColumnSums(ConstMatrixView(fit.model.user_factors()));
  std::vector<double> expected_affinity(fit.model.num_items(), 0.0);
  for (uint32_t i = 0; i < fit.model.num_items(); ++i) {
    for (uint32_t c = 0; c < fit.model.item_factors().cols(); ++c) {
      expected_affinity[i] +=
          user_sums[c] * fit.model.item_factors().At(i, c);
    }
  }
  const std::vector<ScoredItem> expect = TopM(expected_affinity, 4, {});
  for (size_t r = 0; r < expect.size(); ++r) {
    EXPECT_EQ(first[r].item, expect[r].item) << "rank " << r;
    EXPECT_EQ(first[r].score, expect[r].score) << "rank " << r;
  }
  // A fully out-of-range history is rejected by the strict offline
  // contract (serving sanitizes first; the core API stays strict).
  std::vector<uint32_t> out_of_range{99};
  EXPECT_TRUE(RecommendForHistory(fit.model, cfg, out_of_range, 4)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------- Biases

TEST(BiasTest, TotalDimsAccounting) {
  OcularConfig cfg;
  cfg.k = 5;
  EXPECT_EQ(cfg.TotalDims(), 5u);
  cfg.use_biases = true;
  EXPECT_EQ(cfg.TotalDims(), 7u);
}

TEST(BiasTest, FrozenCoordinatesStayPinned) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.use_biases = true;
  cfg.max_sweeps = 50;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(toy.interactions()).value();
  const DenseMatrix& fu = fit.model.user_factors();
  const DenseMatrix& fi = fit.model.item_factors();
  ASSERT_EQ(fu.cols(), 5u);
  for (uint32_t u = 0; u < fu.rows(); ++u) {
    EXPECT_DOUBLE_EQ(fu.At(u, 4), 1.0) << "user " << u;  // item-bias dim
  }
  for (uint32_t i = 0; i < fi.rows(); ++i) {
    EXPECT_DOUBLE_EQ(fi.At(i, 3), 1.0) << "item " << i;  // user-bias dim
  }
  EXPECT_TRUE(fit.model.Validate().ok());
}

TEST(BiasTest, StillSolvesToyAndObjectiveDecreases) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.use_biases = true;
  cfg.max_sweeps = 200;
  cfg.seed = 1;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  for (size_t s = 1; s < rec.trace().size(); ++s) {
    EXPECT_LE(rec.trace()[s].objective,
              rec.trace()[s - 1].objective +
                  1e-6 * std::abs(rec.trace()[s - 1].objective));
  }
  auto top = rec.Recommend(6, 1, toy.interactions());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 4u);
}

TEST(BiasTest, ParallelTrainerMatchesSerialWithBiases) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.use_biases = true;
  cfg.max_sweeps = 5;
  cfg.tolerance = 0.0;
  OcularTrainer serial(cfg);
  OcularTrainer parallel(cfg, 2);
  auto a = serial.Fit(toy.interactions()).value();
  auto b = parallel.Fit(toy.interactions()).value();
  EXPECT_EQ(a.model.user_factors(), b.model.user_factors());
  EXPECT_EQ(a.model.item_factors(), b.model.item_factors());
}

TEST(BiasTest, CoClusterExtractionCanSkipBiasDims) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.use_biases = true;
  cfg.max_sweeps = 100;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(toy.interactions()).value();
  CoClusterOptions opts;
  opts.threshold = 0.5;
  opts.max_dims = cfg.k;  // exclude the two bias dimensions
  auto clusters = ExtractCoClusters(fit.model, opts);
  for (const auto& cc : clusters) EXPECT_LT(cc.index, cfg.k);
}

TEST(BiasTest, FoldInWorksWithBiases) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.use_biases = true;
  cfg.max_sweeps = 100;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(toy.interactions()).value();
  std::vector<uint32_t> history{1, 2, 3};
  auto folded = FoldInUser(fit.model, cfg, history).value();
  ASSERT_EQ(folded.size(), 5u);
  EXPECT_DOUBLE_EQ(folded[4], 1.0);  // pinned item-bias coordinate
}

// ----------------------------------------------------------- block_steps

TEST(BlockStepsTest, ValidatedAndConvergesFasterPerSweep) {
  OcularConfig cfg;
  cfg.block_steps = 0;
  EXPECT_FALSE(cfg.Validate().ok());

  // More inner steps -> at least as much progress per sweep (same count
  // of sweeps, lower or equal objective).
  Dataset toy = MakePaperToyDataset();
  OcularConfig one;
  one.k = 3;
  one.lambda = 0.1;
  one.max_sweeps = 5;
  one.tolerance = 0.0;
  OcularConfig five = one;
  five.block_steps = 5;
  auto fit1 = OcularTrainer(one).Fit(toy.interactions()).value();
  auto fit5 = OcularTrainer(five).Fit(toy.interactions()).value();
  EXPECT_LE(fit5.trace.back().objective,
            fit1.trace.back().objective * 1.001);
}

// ------------------------------------------------------- CrossValidation

class FixedQualityRecommender : public Recommender {
 public:
  FixedQualityRecommender(uint32_t ni, bool good) : ni_(ni), good_(good) {}
  std::string name() const override { return "fixed"; }
  Status Fit(const CsrMatrix& m) override {
    train_ = m;
    return Status::OK();
  }
  double Score(uint32_t u, uint32_t i) const override {
    // "good" = item popularity in train; "bad" = anti-popularity.
    double s = 0.0;
    for (uint32_t v = 0; v < train_.num_rows(); ++v) {
      if (train_.HasEntry(v, i)) s += 1.0;
    }
    (void)u;
    return good_ ? s : -s;
  }
  uint32_t num_users() const override { return train_.num_rows(); }
  uint32_t num_items() const override { return ni_; }

 private:
  uint32_t ni_;
  bool good_;
  CsrMatrix train_;
};

TEST(CrossValidationTest, PrefersTheBetterConfiguration) {
  Rng data_rng(31);
  PlantedCoClusterConfig pc;
  pc.num_users = 60;
  pc.num_items = 40;
  pc.num_clusters = 3;
  auto data = GeneratePlantedCoClusters(pc, &data_rng).value();
  const CsrMatrix& r = data.dataset.interactions();

  // Encode "good vs bad" in the lambda axis: lambda 1 -> popularity,
  // lambda 2 -> anti-popularity.
  auto factory = [&](const GridPoint& p) -> std::unique_ptr<Recommender> {
    return std::make_unique<FixedQualityRecommender>(r.num_cols(),
                                                     p.lambda < 1.5);
  };
  Rng rng(32);
  auto result =
      CrossValidatedGridSearch(factory, {1}, {1.0, 2.0}, r, 3, 10, &rng)
          .value();
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(result.best().point.lambda, 1.0);
  EXPECT_GT(result.best().recall, result.cells[1].recall);
}

TEST(CrossValidationTest, FoldMetricsShapeAndBounds) {
  Rng data_rng(33);
  PlantedCoClusterConfig pc;
  pc.num_users = 50;
  pc.num_items = 30;
  pc.num_clusters = 3;
  auto data = GeneratePlantedCoClusters(pc, &data_rng).value();
  auto factory = [&](const GridPoint&) -> std::unique_ptr<Recommender> {
    return std::make_unique<FixedQualityRecommender>(
        data.dataset.num_items(), true);
  };
  Rng rng(34);
  auto fm = CrossValidate(factory, GridPoint{1, 0.0},
                          data.dataset.interactions(), 4, 10, &rng)
                .value();
  EXPECT_EQ(fm.recalls.size(), 4u);
  for (double r : fm.recalls) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  EXPECT_GE(fm.stddev_recall, 0.0);
}

TEST(CrossValidationTest, RejectsBadArgs) {
  CsrMatrix m = CsrMatrix::FromPairs({{0, 0}, {1, 1}}, 2, 2).value();
  Rng rng(35);
  EXPECT_TRUE(CrossValidatedGridSearch(RecommenderFactory{}, {1}, {1.0}, m,
                                       2, 5, &rng)
                  .status()
                  .IsInvalidArgument());
}

// ----------------------------------------------------------- AUC and MRR

TEST(MetricsExtensionTest, ReciprocalRank) {
  std::vector<ScoredItem> ranked{{9, .9}, {5, .8}, {7, .7}};
  std::vector<uint32_t> relevant{5, 7};
  EXPECT_DOUBLE_EQ(ReciprocalRankAtM(ranked, 3, relevant), 0.5);
  EXPECT_DOUBLE_EQ(ReciprocalRankAtM(ranked, 1, relevant), 0.0);
  std::vector<uint32_t> first{9};
  EXPECT_DOUBLE_EQ(ReciprocalRankAtM(ranked, 3, first), 1.0);
}

TEST(MetricsExtensionTest, AucOfOracleAndOfRandom) {
  Rng data_rng(41);
  PlantedCoClusterConfig pc;
  pc.num_users = 80;
  pc.num_items = 60;
  pc.num_clusters = 4;
  auto data = GeneratePlantedCoClusters(pc, &data_rng).value();
  Rng split_rng(42);
  auto split =
      SplitInteractions(data.dataset.interactions(), 0.75, &split_rng)
          .value();

  // Oracle: scores test positives 1. AUC must be ~1.
  class Oracle : public Recommender {
   public:
    explicit Oracle(const CsrMatrix& t) : t_(t) {}
    std::string name() const override { return "oracle"; }
    Status Fit(const CsrMatrix&) override { return Status::OK(); }
    double Score(uint32_t u, uint32_t i) const override {
      return t_.HasEntry(u, i) ? 1.0 : 0.0;
    }
    uint32_t num_users() const override { return t_.num_rows(); }
    uint32_t num_items() const override { return t_.num_cols(); }
    CsrMatrix t_;
  };
  Oracle oracle(split.test);
  Rng rng(43);
  EXPECT_DOUBLE_EQ(
      SampledAuc(oracle, split.train, split.test, 4, &rng).value(), 1.0);

  // Constant scores: AUC = 0.5 exactly (tie handling).
  class Constant : public Recommender {
   public:
    explicit Constant(const CsrMatrix& t) : t_(t) {}
    std::string name() const override { return "const"; }
    Status Fit(const CsrMatrix&) override { return Status::OK(); }
    double Score(uint32_t, uint32_t) const override { return 0.5; }
    uint32_t num_users() const override { return t_.num_rows(); }
    uint32_t num_items() const override { return t_.num_cols(); }
    CsrMatrix t_;
  };
  Constant constant(split.test);
  EXPECT_DOUBLE_EQ(
      SampledAuc(constant, split.train, split.test, 4, &rng).value(), 0.5);

  EXPECT_TRUE(SampledAuc(oracle, split.train, split.test, 0, &rng)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SampledAuc(oracle, split.train, split.test, 4, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(MetricsExtensionTest, MrrReportedByHarness) {
  CsrMatrix train = CsrMatrix::FromPairs({{0, 0}}, 1, 4).value();
  CsrMatrix test = CsrMatrix::FromPairs({{0, 2}}, 1, 4).value();
  class Fixed : public Recommender {
   public:
    std::string name() const override { return "fixed"; }
    Status Fit(const CsrMatrix&) override { return Status::OK(); }
    double Score(uint32_t, uint32_t i) const override {
      // Candidates 1, 2, 3 (0 is train-excluded); make item 2 rank 2nd.
      return i == 1 ? 1.0 : (i == 2 ? 0.9 : 0.1);
    }
    uint32_t num_users() const override { return 1; }
    uint32_t num_items() const override { return 4; }
  };
  Fixed rec;
  auto row = EvaluateRankingAtM(rec, train, test, 3).value();
  EXPECT_DOUBLE_EQ(row.mrr, 0.5);
}

// ---------------------------------------------------------- EarlyStopping

TEST(EarlyStoppingTest, OptionsValidation) {
  EarlyStoppingOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.check_every = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = EarlyStoppingOptions{};
  o.max_sweeps = 1;
  o.check_every = 5;
  EXPECT_FALSE(o.Validate().ok());
  o = EarlyStoppingOptions{};
  o.m = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(EarlyStoppingTest, StopsAndReturnsBestSnapshot) {
  Rng data_rng(61);
  PlantedCoClusterConfig pc;
  pc.num_users = 100;
  pc.num_items = 70;
  pc.num_clusters = 4;
  pc.user_membership_prob = 0.25;
  pc.item_membership_prob = 0.25;
  auto data = GeneratePlantedCoClusters(pc, &data_rng).value();
  Rng split_rng(62);
  auto split =
      SplitInteractions(data.dataset.interactions(), 0.8, &split_rng)
          .value();

  OcularConfig cfg;
  cfg.k = 6;
  cfg.lambda = 0.5;
  EarlyStoppingOptions opts;
  opts.check_every = 4;
  opts.patience = 2;
  opts.max_sweeps = 80;
  opts.m = 20;
  auto fit =
      FitWithEarlyStopping(cfg, split.train, split.test, opts).value();
  EXPECT_GT(fit.best_recall, 0.2);
  EXPECT_GE(fit.sweeps_run, opts.check_every);
  EXPECT_LE(fit.sweeps_run, opts.max_sweeps);
  EXPECT_LE(fit.best_sweep, fit.sweeps_run);
  ASSERT_FALSE(fit.validation_curve.empty());
  // The reported best equals the curve maximum, and the snapshot actually
  // achieves it.
  double curve_max = 0.0;
  for (double r : fit.validation_curve) curve_max = std::max(curve_max, r);
  EXPECT_DOUBLE_EQ(fit.best_recall, curve_max);
  EXPECT_TRUE(fit.model.Validate().ok());
}

TEST(EarlyStoppingTest, RejectsBadInputs) {
  OcularConfig cfg;
  cfg.k = 2;
  CsrMatrix train = CsrMatrix::FromPairs({{0, 0}}, 2, 2).value();
  CsrMatrix wrong = CsrMatrix::FromPairs({{0, 0}}, 3, 2).value();
  EXPECT_TRUE(FitWithEarlyStopping(cfg, train, wrong)
                  .status()
                  .IsInvalidArgument());
  CsrMatrix empty = CsrMatrix::FromPairs({}, 2, 2).value();
  EXPECT_TRUE(FitWithEarlyStopping(cfg, train, empty)
                  .status()
                  .IsInvalidArgument());
}

// ------------------------------------------------------ Explanation JSON

TEST(ExplainJsonTest, WellFormedAndComplete) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 150;
  cfg.seed = 1;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  auto expl =
      ExplainRecommendation(rec.model(), toy.interactions(), 6, 4).value();
  const std::string json = ExplanationToJson(expl, toy);
  EXPECT_NE(json.find("\"user\":6"), std::string::npos);
  EXPECT_NE(json.find("\"item\":4"), std::string::npos);
  EXPECT_NE(json.find("\"user_label\":\"Client 6\""), std::string::npos);
  EXPECT_NE(json.find("\"clauses\":["), std::string::npos);
  EXPECT_NE(json.find("\"supporting_users\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int depth = 0;
  bool in_string = false;
  for (size_t idx = 0; idx < json.size(); ++idx) {
    const char ch = json[idx];
    if (ch == '"' && (idx == 0 || json[idx - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) continue;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace ocular
