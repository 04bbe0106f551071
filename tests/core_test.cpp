// Unit tests for src/core: the OCuLaR model, objective, trainer
// (projected gradient + Armijo), co-cluster extraction, explanations.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/coclusters.h"
#include "core/explain.h"
#include "core/ocular_model.h"
#include "core/ocular_recommender.h"
#include "core/ocular_trainer.h"
#include "data/synthetic.h"

namespace ocular {
namespace {

// ----------------------------------------------------------------- Model

TEST(OcularModelTest, ProbabilityFormula) {
  DenseMatrix fu(1, 2), fi(1, 2);
  fu.At(0, 0) = 1.0;
  fu.At(0, 1) = 2.0;
  fi.At(0, 0) = 0.5;
  fi.At(0, 1) = 0.25;
  OcularModel model(std::move(fu), std::move(fi));
  EXPECT_DOUBLE_EQ(model.Affinity(0, 0), 1.0);
  EXPECT_NEAR(model.Probability(0, 0), 1.0 - std::exp(-1.0), 1e-12);
  auto contrib = model.ClusterContributions(0, 0);
  ASSERT_EQ(contrib.size(), 2u);
  EXPECT_DOUBLE_EQ(contrib[0], 0.5);
  EXPECT_DOUBLE_EQ(contrib[1], 0.5);
}

TEST(OcularModelTest, ZeroAffinityMeansZeroProbability) {
  OcularModel model(DenseMatrix(2, 3, 0.0), DenseMatrix(2, 3, 0.0));
  EXPECT_DOUBLE_EQ(model.Probability(0, 0), 0.0);
}

TEST(OcularModelTest, ValidateCatchesNegativeFactors) {
  DenseMatrix fu(1, 1, 0.5), fi(1, 1, 0.5);
  OcularModel good(fu, fi);
  EXPECT_TRUE(good.Validate().ok());
  fu.At(0, 0) = -0.1;
  OcularModel bad(fu, fi);
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(OcularModelTest, MemoryAccounting) {
  OcularModel model(DenseMatrix(100, 10), DenseMatrix(50, 10));
  EXPECT_EQ(model.MemoryBytes(), (100 + 50) * 10 * sizeof(double));
}

// ------------------------------------------------------------- Objective

/// Naive O(n_u · n_i · K) objective, the definition in eq. (2)+(4).
double NaiveObjective(const OcularModel& model, const CsrMatrix& r,
                      double lambda, const std::vector<double>& w) {
  double q = 0.0;
  for (uint32_t u = 0; u < r.num_rows(); ++u) {
    for (uint32_t i = 0; i < r.num_cols(); ++i) {
      const double dot = model.Affinity(u, i);
      if (r.HasEntry(u, i)) {
        const double weight = w.empty() ? 1.0 : w[u];
        q -= weight * std::log(std::max(1.0 - std::exp(-dot), 1e-12));
      } else {
        q += dot;
      }
    }
  }
  q += lambda * (model.user_factors().SquaredFrobeniusNorm() +
                 model.item_factors().SquaredFrobeniusNorm());
  return q;
}

TEST(ObjectiveQTest, ComplementTrickMatchesNaive) {
  Rng rng(5);
  CooBuilder coo;
  for (int e = 0; e < 120; ++e) {
    coo.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{15})),
            static_cast<uint32_t>(rng.UniformInt(uint64_t{12})));
  }
  CsrMatrix r = CsrMatrix::FromCoo(coo.Finalize(15, 12).value());
  DenseMatrix fu(15, 4), fi(12, 4);
  fu.FillUniform(&rng, 0.0, 1.0);
  fi.FillUniform(&rng, 0.0, 1.0);
  OcularModel model(std::move(fu), std::move(fi));

  const double fast = ObjectiveQ(model, r, 0.7);
  const double naive = NaiveObjective(model, r, 0.7, {});
  EXPECT_NEAR(fast, naive, 1e-8 * std::abs(naive));

  // With R-OCuLaR weights too.
  std::vector<double> w(15);
  for (auto& x : w) x = rng.Uniform(0.5, 3.0);
  EXPECT_NEAR(ObjectiveQ(model, r, 0.7, w), NaiveObjective(model, r, 0.7, w),
              1e-8 * std::abs(naive));
}

// ---------------------------------------------------------------- Config

TEST(OcularConfigTest, ValidatesRanges) {
  OcularConfig c;
  EXPECT_TRUE(c.Validate().ok());
  c.k = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = OcularConfig{};
  c.lambda = -1;
  EXPECT_FALSE(c.Validate().ok());
  c = OcularConfig{};
  c.armijo_beta = 1.0;
  EXPECT_FALSE(c.Validate().ok());
  c = OcularConfig{};
  c.armijo_sigma = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c = OcularConfig{};
  c.initial_step = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c = OcularConfig{};
  c.max_sweeps = 0;
  EXPECT_FALSE(c.Validate().ok());

  // NaN passes every < and <= test, so each real knob must be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double OcularConfig::*knob :
       {&OcularConfig::lambda, &OcularConfig::tolerance,
        &OcularConfig::armijo_beta, &OcularConfig::armijo_sigma,
        &OcularConfig::initial_step, &OcularConfig::init_scale}) {
    for (double bad : {nan, inf, -inf}) {
      c = OcularConfig{};
      c.*knob = bad;
      EXPECT_TRUE(c.Validate().IsInvalidArgument()) << bad;
    }
  }

  // TotalDims() = k + 2 with biases must not wrap to a tiny dimension.
  c = OcularConfig{};
  c.use_biases = true;
  c.k = std::numeric_limits<uint32_t>::max();
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.k = std::numeric_limits<uint32_t>::max() - 1;
  EXPECT_TRUE(c.Validate().IsInvalidArgument());
  c.k = std::numeric_limits<uint32_t>::max() - 2;
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.TotalDims(), std::numeric_limits<uint32_t>::max());
}

// --------------------------------------------------- ProjectedGradientStep

TEST(ProjectedGradientStepTest, NeverLeavesNonNegativeOrthant) {
  Rng rng(7);
  OcularConfig config;
  config.k = 5;
  config.lambda = 1.0;
  DenseMatrix other(20, 5);
  other.FillUniform(&rng, 0.0, 1.0);
  auto sums = other.ColumnSums();
  std::vector<uint32_t> neighbors{0, 3, 7, 11};
  internal::BlockWorkspace ws;
  ws.Reserve(config.k, neighbors.size());
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> f(5);
    for (auto& v : f) v = rng.Uniform(0.0, 2.0);
    ws.Invalidate();
    internal::ProjectedGradientStep(f, neighbors, other, sums, config.lambda,
                                    1.0, {}, config, /*frozen_coord=*/-1, &ws);
    for (double v : f) EXPECT_GE(v, 0.0);
  }
}

TEST(ProjectedGradientStepTest, DecreasesBlockObjective) {
  Rng rng(9);
  OcularConfig config;
  config.k = 4;
  config.lambda = 0.5;
  DenseMatrix other(30, 4);
  other.FillUniform(&rng, 0.0, 1.0);
  auto sums = other.ColumnSums();
  std::vector<uint32_t> neighbors{1, 5, 9, 13, 21};

  // Complement for the objective evaluation.
  std::vector<double> complement(sums.begin(), sums.end());
  for (uint32_t n : neighbors) {
    auto row = other.Row(n);
    for (size_t c = 0; c < 4; ++c) complement[c] -= row[c];
  }

  internal::BlockWorkspace ws;
  ws.Reserve(config.k, neighbors.size());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> f(4);
    for (auto& v : f) v = rng.Uniform(0.0, 1.5);
    const double before = internal::BlockObjective(
        f, neighbors, other, complement, config.lambda, 1.0, {});
    ws.Invalidate();
    const internal::BlockStepResult res = internal::ProjectedGradientStep(
        f, neighbors, other, sums, config.lambda, 1.0, {}, config,
        /*frozen_coord=*/-1, &ws);
    const double after = internal::BlockObjective(
        f, neighbors, other, complement, config.lambda, 1.0, {});
    EXPECT_LE(after, before + 1e-10);
    EXPECT_GE(res.backtracks, 0) << "line search should succeed here";
    // The fused objective the step reports must agree with the oracle.
    EXPECT_NEAR(res.objective, after, 1e-9 * std::max(1.0, std::abs(after)));
  }
}

TEST(ProjectedGradientStepTest, FixedPointAtOptimum) {
  // One user, one item, K=1, r=11 positive. The stationary point of
  // Q(x) = -log(1-e^{-x*y}) + l(x^2+y^2) in x for fixed y solves
  // y e^{-xy}/(1-e^{-xy}) = 2 l x. Iterating alternating steps should
  // converge; then one more step must (approximately) not move.
  OcularConfig config;
  config.k = 1;
  config.lambda = 0.3;
  DenseMatrix other(1, 1);
  other.At(0, 0) = 1.0;
  auto sums = other.ColumnSums();
  std::vector<uint32_t> neighbors{0};
  std::vector<double> f{0.8};
  // One workspace, never invalidated: iterating on the same block exercises
  // the warm dot-cache path (the block_steps > 1 fast path).
  internal::BlockWorkspace ws;
  ws.Reserve(config.k, neighbors.size());
  for (int it = 0; it < 200; ++it) {
    internal::ProjectedGradientStep(f, neighbors, other, sums, config.lambda,
                                    1.0, {}, config, /*frozen_coord=*/-1, &ws);
  }
  const double x = f[0];
  // Verify stationarity: gradient ≈ 0 at the solution.
  const double grad =
      -std::exp(-x) / (1.0 - std::exp(-x)) + 2.0 * config.lambda * x;
  EXPECT_NEAR(grad, 0.0, 1e-4);
}

// ---------------------------------------------------------------- Trainer

TEST(OcularTrainerTest, ObjectiveDecreasesMonotonically) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.lambda = 0.05;
  config.max_sweeps = 40;
  config.seed = 3;
  OcularTrainer trainer(config);
  auto fit = trainer.Fit(toy.interactions()).value();
  ASSERT_GE(fit.trace.size(), 2u);
  for (size_t s = 1; s < fit.trace.size(); ++s) {
    EXPECT_LE(fit.trace[s].objective,
              fit.trace[s - 1].objective + 1e-6 *
                  std::abs(fit.trace[s - 1].objective))
        << "sweep " << s;
  }
  EXPECT_TRUE(fit.model.Validate().ok());
}

TEST(OcularTrainerTest, RecoversToyRecommendation) {
  // The headline claim of Figures 1/3: item 4 is the top recommendation
  // for user 6, with high confidence, because user 6 shares two
  // co-clusters with item 4.
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.lambda = 0.05;
  config.max_sweeps = 150;
  config.tolerance = 1e-7;
  config.seed = 1;
  OcularRecommender rec(config);
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  auto top = rec.Recommend(6, 1, toy.interactions());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 4u);
  EXPECT_GT(top[0].score, 0.5);
  // Known negatives stay unlikely: user 6 x item 0 / item 11.
  EXPECT_LT(rec.Score(6, 0), 0.3);
  EXPECT_LT(rec.Score(6, 11), 0.3);
  // Known positives are explained well.
  EXPECT_GT(rec.Score(6, 2), 0.5);
}

TEST(OcularTrainerTest, ConvergesAndStops) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.lambda = 0.1;
  config.max_sweeps = 500;
  config.tolerance = 1e-5;
  OcularTrainer trainer(config);
  auto fit = trainer.Fit(toy.interactions()).value();
  EXPECT_TRUE(fit.converged);
  EXPECT_LT(fit.sweeps_run, 500u);
}

TEST(OcularTrainerTest, RejectsEmptyMatrixAndShapeMismatch) {
  OcularConfig config;
  config.k = 2;
  OcularTrainer trainer(config);
  CsrMatrix empty = CsrMatrix::FromPairs({}, 5, 5).value();
  EXPECT_TRUE(trainer.Fit(empty).status().IsInvalidArgument());

  CsrMatrix m = CsrMatrix::FromPairs({{0, 0}}, 2, 2).value();
  OcularModel wrong(DenseMatrix(3, 2), DenseMatrix(2, 2));
  EXPECT_TRUE(trainer.FitFrom(m, wrong).status().IsInvalidArgument());
  OcularModel wrong_k(DenseMatrix(2, 5), DenseMatrix(2, 5));
  EXPECT_TRUE(trainer.FitFrom(m, wrong_k).status().IsInvalidArgument());
}

TEST(OcularTrainerTest, DeterministicGivenSeed) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.seed = 99;
  config.max_sweeps = 10;
  OcularTrainer trainer(config);
  auto a = trainer.Fit(toy.interactions()).value();
  auto b = trainer.Fit(toy.interactions()).value();
  EXPECT_EQ(a.model.user_factors(), b.model.user_factors());
  EXPECT_EQ(a.model.item_factors(), b.model.item_factors());
}

TEST(OcularTrainerTest, RelativeWeightsFormula) {
  CsrMatrix m =
      CsrMatrix::FromPairs({{0, 0}, {0, 1}, {1, 0}}, 3, 10).value();
  OcularConfig config;
  config.variant = OcularVariant::kRelative;
  OcularTrainer trainer(config);
  auto w = trainer.UserWeights(m);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 8.0 / 2.0);  // 8 unknowns / 2 positives
  EXPECT_DOUBLE_EQ(w[1], 9.0 / 1.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);  // degenerate user: unused default
}

TEST(OcularTrainerTest, ROcularAlsoSolvesToy) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.lambda = 0.05;
  config.variant = OcularVariant::kRelative;
  config.max_sweeps = 150;
  config.seed = 2;
  OcularRecommender rec(config);
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  EXPECT_EQ(rec.name(), "R-OCuLaR");
  auto top = rec.Recommend(6, 1, toy.interactions());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 4u);
}

TEST(OcularTrainerTest, StrongRegularizationShrinksFactors) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig weak;
  weak.k = 3;
  weak.lambda = 0.01;
  weak.max_sweeps = 60;
  OcularConfig strong = weak;
  strong.lambda = 50.0;
  auto fit_weak = OcularTrainer(weak).Fit(toy.interactions()).value();
  auto fit_strong = OcularTrainer(strong).Fit(toy.interactions()).value();
  EXPECT_LT(fit_strong.model.user_factors().SquaredFrobeniusNorm(),
            fit_weak.model.user_factors().SquaredFrobeniusNorm());
}

// -------------------------------------------------------------- Clusters

OcularModel HandModel() {
  // 4 users, 3 items, K = 2. Cluster 0 = {u0,u1} x {i0}; cluster 1 =
  // {u2,u3} x {i1,i2}. Strengths chosen above/below the 0.6 threshold.
  DenseMatrix fu(4, 2, 0.0), fi(3, 2, 0.0);
  fu.At(0, 0) = 1.0;
  fu.At(1, 0) = 0.9;
  fu.At(2, 1) = 1.2;
  fu.At(3, 1) = 0.8;
  fu.At(0, 1) = 0.1;  // below threshold: not a member
  fi.At(0, 0) = 1.1;
  fi.At(1, 1) = 1.0;
  fi.At(2, 1) = 0.7;
  return OcularModel(std::move(fu), std::move(fi));
}

TEST(CoClusterTest, ExtractsThresholdedMembers) {
  auto clusters = ExtractCoClusters(HandModel());
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].users, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(clusters[0].items, (std::vector<uint32_t>{0}));
  EXPECT_EQ(clusters[1].users, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(clusters[1].items, (std::vector<uint32_t>{1, 2}));
  // Strengths sorted descending.
  EXPECT_GE(clusters[1].user_strengths[0], clusters[1].user_strengths[1]);
}

TEST(CoClusterTest, MinSizeFilters) {
  CoClusterOptions opts;
  opts.min_users = 3;
  auto clusters = ExtractCoClusters(HandModel(), opts);
  EXPECT_TRUE(clusters.empty());
}

TEST(CoClusterTest, DensityAgainstInteractions) {
  auto clusters = ExtractCoClusters(HandModel());
  // Cluster 1 block {u2,u3} x {i1,i2}: fill 3 of 4 cells.
  CsrMatrix r =
      CsrMatrix::FromPairs({{2, 1}, {2, 2}, {3, 1}}, 4, 3).value();
  EXPECT_DOUBLE_EQ(CoClusterDensity(clusters[1], r), 0.75);
  auto stats = ComputeCoClusterStats(clusters, r);
  EXPECT_EQ(stats.num_clusters, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_items, 1.5);
  EXPECT_DOUBLE_EQ(stats.mean_users, 2.0);
}

TEST(CoClusterTest, OverlapIsRepresentable) {
  // A user strong in both dimensions appears in both clusters.
  DenseMatrix fu(1, 2, 1.0), fi(2, 2, 0.0);
  fi.At(0, 0) = 1.0;
  fi.At(1, 1) = 1.0;
  OcularModel model(std::move(fu), std::move(fi));
  auto clusters = ExtractCoClusters(model);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].users, clusters[1].users);
}

// ------------------------------------------------------------ Explanation

TEST(ExplainTest, ToyExplanationNamesBothCoClusters) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.lambda = 0.05;
  config.max_sweeps = 150;
  config.seed = 1;
  OcularRecommender rec(config);
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  auto expl =
      ExplainRecommendation(rec.model(), toy.interactions(), 6, 4).value();
  EXPECT_EQ(expl.user, 6u);
  EXPECT_EQ(expl.item, 4u);
  EXPECT_GT(expl.confidence, 0.5);
  // User 6 sits in two co-clusters that contain item 4 -> two clauses
  // (Section IV-C's worked example).
  ASSERT_GE(expl.clauses.size(), 2u);
  // Each clause carries evidence: peers who bought item 4.
  for (const auto& clause : expl.clauses) {
    EXPECT_FALSE(clause.supporting_users.empty());
    EXPECT_GT(clause.contribution, 0.0);
  }
  // Users 4/5 (cluster of items 1-4) and 7/8/9 (items 4-9) must appear as
  // peers somewhere in the explanation.
  std::set<uint32_t> peers;
  for (const auto& clause : expl.clauses) {
    peers.insert(clause.supporting_users.begin(),
                 clause.supporting_users.end());
  }
  const bool has_45 = peers.count(4) || peers.count(5);
  const bool has_789 = peers.count(7) || peers.count(8) || peers.count(9);
  EXPECT_TRUE(has_45);
  EXPECT_TRUE(has_789);

  const std::string text = RenderExplanationText(expl, toy);
  EXPECT_NE(text.find("Item 4 is recommended to Client 6"),
            std::string::npos);
  EXPECT_NE(text.find("also bought"), std::string::npos);
}

TEST(ExplainTest, OutOfRangeIdsRejected) {
  OcularModel model(DenseMatrix(2, 1, 0.5), DenseMatrix(2, 1, 0.5));
  CsrMatrix r = CsrMatrix::FromPairs({{0, 0}}, 2, 2).value();
  EXPECT_TRUE(
      ExplainRecommendation(model, r, 5, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      ExplainRecommendation(model, r, 0, 5).status().IsInvalidArgument());
}

TEST(ExplainTest, NoSharedClusterYieldsEmptyClauses) {
  DenseMatrix fu(1, 2, 0.0), fi(1, 2, 0.0);
  fu.At(0, 0) = 1.0;
  fi.At(0, 1) = 1.0;  // orthogonal memberships
  OcularModel model(std::move(fu), std::move(fi));
  CsrMatrix r = CsrMatrix::FromPairs({}, 1, 1).value();
  auto expl = ExplainRecommendation(model, r, 0, 0).value();
  EXPECT_TRUE(expl.clauses.empty());
  EXPECT_DOUBLE_EQ(expl.confidence, 0.0);
  Dataset ds("x", r);
  const std::string text = RenderExplanationText(expl, ds);
  EXPECT_NE(text.find("low support"), std::string::npos);
}

// ------------------------------------------------------------ Recommender

TEST(OcularRecommenderTest, InterfaceBasics) {
  Dataset toy = MakePaperToyDataset();
  OcularConfig config;
  config.k = 3;
  config.max_sweeps = 30;
  OcularRecommender rec(config);
  EXPECT_EQ(rec.name(), "OCuLaR");
  EXPECT_FALSE(rec.fitted());
  ASSERT_TRUE(rec.Fit(toy.interactions()).ok());
  EXPECT_TRUE(rec.fitted());
  EXPECT_EQ(rec.num_users(), 12u);
  EXPECT_EQ(rec.num_items(), 12u);
  EXPECT_FALSE(rec.trace().empty());
  // Recommend excludes training positives.
  auto top = rec.Recommend(6, 12, toy.interactions());
  for (const auto& si : top) {
    EXPECT_FALSE(toy.interactions().HasEntry(6, si.item));
  }
}

}  // namespace
}  // namespace ocular
