// Property-based suites: invariants swept over seeds, dimensions, and
// hyper-parameters with parameterized gtest. These complement the
// example-based unit tests with broad input coverage.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "common/rng.h"
#include "core/fold_in.h"
#include "core/ocular_trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace ocular {
namespace {

// Shared builder from test_util.h; `density`-parameterized random matrix.
constexpr auto RandomInteractions = test::RandomCsrDense;

// -------- Trainer invariants across (seed, K, lambda, variant, biases) --

class TrainerInvariantTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, uint32_t, double, bool, bool>> {};

TEST_P(TrainerInvariantTest, ObjectiveMonotoneFactorsNonNegative) {
  const auto [seed, k, lambda, relative, biases] = GetParam();
  CsrMatrix r = RandomInteractions(40, 30, 0.1, seed);
  OcularConfig cfg;
  cfg.k = k;
  cfg.lambda = lambda;
  cfg.variant = relative ? OcularVariant::kRelative : OcularVariant::kAbsolute;
  cfg.use_biases = biases;
  cfg.max_sweeps = 12;
  cfg.tolerance = 0.0;
  cfg.seed = seed + 1;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(r).value();

  // Q never increases (within fp slack).
  for (size_t s = 1; s < fit.trace.size(); ++s) {
    EXPECT_LE(fit.trace[s].objective,
              fit.trace[s - 1].objective +
                  1e-9 * std::abs(fit.trace[s - 1].objective))
        << "sweep " << s;
  }
  // Factors stay in the non-negative orthant and finite.
  EXPECT_TRUE(fit.model.Validate().ok());
  // Probabilities are proper.
  for (uint32_t u = 0; u < 5; ++u) {
    for (uint32_t i = 0; i < 5; ++i) {
      const double p = fit.model.Probability(u, i);
      EXPECT_GE(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
  }
  // Elapsed times in the trace are non-decreasing.
  for (size_t s = 1; s < fit.trace.size(); ++s) {
    EXPECT_GE(fit.trace[s].seconds_elapsed,
              fit.trace[s - 1].seconds_elapsed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrainerInvariantTest,
    ::testing::Combine(::testing::Values(1, 2, 3),          // seed
                       ::testing::Values(2u, 5u),           // K
                       ::testing::Values(0.0, 0.5, 10.0),   // lambda
                       ::testing::Bool(),                   // R-OCuLaR
                       ::testing::Bool()));                 // biases

// ---------- Thread-count equivalence across the same config axes --------

class ParallelInvariantTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, size_t, bool, bool, uint32_t>> {};

TEST_P(ParallelInvariantTest, BitwiseEquivalence) {
  const auto [seed, threads, biases, relative, block_steps] = GetParam();
  CsrMatrix r = RandomInteractions(50, 35, 0.08, seed);
  OcularConfig cfg;
  cfg.k = 4;
  cfg.lambda = 0.3;
  cfg.use_biases = biases;
  cfg.variant = relative ? OcularVariant::kRelative : OcularVariant::kAbsolute;
  cfg.block_steps = block_steps;
  cfg.max_sweeps = 4;
  cfg.tolerance = 0.0;
  auto a = OcularTrainer(cfg).Fit(r).value();
  auto b = OcularTrainer(cfg, threads).Fit(r).value();
  EXPECT_EQ(a.model.user_factors(), b.model.user_factors());
  EXPECT_EQ(a.model.item_factors(), b.model.item_factors());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t s = 0; s < a.trace.size(); ++s) {
    EXPECT_EQ(a.trace[s].objective, b.trace[s].objective) << "sweep " << s;
  }
  EXPECT_EQ(a.sweeps_run, b.sweeps_run);
  EXPECT_EQ(a.converged, b.converged);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelInvariantTest,
    ::testing::Combine(::testing::Values(4, 5, 6),              // seed
                       ::testing::Values<size_t>(1, 2, 4),      // threads
                       ::testing::Bool(),                       // biases
                       ::testing::Bool(),                       // R-OCuLaR
                       ::testing::Values<uint32_t>(1, 3)));     // block_steps

// ------------------------- Fold-in solves the user block to optimality --

class FoldInInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FoldInInvariantTest, FoldedFactorIsBlockOptimal) {
  CsrMatrix r = RandomInteractions(30, 25, 0.15, GetParam());
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 50;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(r).value();

  // Fold in an arbitrary history and verify no further projected-gradient
  // step improves the block objective materially (stationarity).
  std::vector<uint32_t> history{0, 3, 7};
  auto f = FoldInUser(fit.model, cfg, history).value();

  const DenseMatrix& items = fit.model.item_factors();
  auto sums = items.ColumnSums();
  std::vector<double> complement(sums.begin(), sums.end());
  for (uint32_t i : history) {
    auto row = items.Row(i);
    for (uint32_t c = 0; c < 3; ++c) complement[c] -= row[c];
  }
  const double q_before = internal::BlockObjective(
      f, history, items, complement, cfg.lambda, 1.0, {});
  internal::BlockWorkspace ws;
  ws.Reserve(cfg.k, history.size());
  internal::ProjectedGradientStep(f, history, items, sums, cfg.lambda, 1.0,
                                  {}, cfg, /*frozen_coord=*/-1, &ws);
  const double q_after = internal::BlockObjective(
      f, history, items, complement, cfg.lambda, 1.0, {});
  EXPECT_NEAR(q_after, q_before, 1e-6 * std::max(1.0, std::abs(q_before)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldInInvariantTest,
                         ::testing::Range<uint64_t>(10, 15));

// ------------------------------------ Evaluation harness sanity sweeps --

class EvalInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalInvariantTest, OracleDominatesAndMetricsBounded) {
  CsrMatrix all = RandomInteractions(40, 30, 0.12, GetParam());
  Rng rng(GetParam() * 13 + 1);
  auto split = SplitInteractions(all, 0.7, &rng).value();

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
  class Anti : public Oracle {
   public:
    using Oracle::Oracle;
    double Score(uint32_t u, uint32_t i) const override {
      return -Oracle::Score(u, i);
    }
  };
  Oracle oracle(split.test);
  Anti anti(split.test);
  for (uint32_t m : {1u, 5u, 20u}) {
    auto good = EvaluateRankingAtM(oracle, split.train, split.test, m).value();
    auto bad = EvaluateRankingAtM(anti, split.train, split.test, m).value();
    EXPECT_GE(good.recall, bad.recall);
    EXPECT_GE(good.map, bad.map);
    for (const MetricsAtM* row : {&good, &bad}) {
      EXPECT_GE(row->recall, 0.0);
      EXPECT_LE(row->recall, 1.0);
      EXPECT_GE(row->map, 0.0);
      EXPECT_LE(row->map, 1.0);
      EXPECT_GE(row->ndcg, 0.0);
      EXPECT_LE(row->ndcg, 1.0);
      EXPECT_LE(row->mrr, 1.0);
      EXPECT_LE(row->hit_rate, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalInvariantTest,
                         ::testing::Range<uint64_t>(20, 26));

// -------------------------------------- Split algebra across densities --

class SplitInvariantTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(SplitInvariantTest, PartitionAlgebra) {
  const auto [seed, fraction] = GetParam();
  CsrMatrix all = RandomInteractions(35, 35, 0.1, seed);
  Rng rng(seed + 99);
  auto split = SplitInteractions(all, fraction, &rng).value();
  EXPECT_EQ(split.train.nnz() + split.test.nnz(), all.nnz());
  // No overlap; union equals original.
  for (auto [u, i] : split.train.ToPairs()) {
    EXPECT_TRUE(all.HasEntry(u, i));
    EXPECT_FALSE(split.test.HasEntry(u, i));
  }
  for (auto [u, i] : all.ToPairs()) {
    EXPECT_TRUE(split.train.HasEntry(u, i) || split.test.HasEntry(u, i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitInvariantTest,
    ::testing::Combine(::testing::Values(30, 31, 32),
                       ::testing::Values(0.25, 0.5, 0.75)));

// ----------------------------- Objective consistency: trick == naive  --

class ObjectiveInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObjectiveInvariantTest, ComplementTrickMatchesNaiveEverywhere) {
  Rng rng(GetParam());
  CsrMatrix r = RandomInteractions(20, 15, 0.2, GetParam() + 7);
  DenseMatrix fu(20, 3), fi(15, 3);
  fu.FillUniform(&rng, 0.0, 1.5);
  fi.FillUniform(&rng, 0.0, 1.5);
  OcularModel model(std::move(fu), std::move(fi));
  const double lambda = rng.Uniform(0.0, 2.0);

  double naive = 0.0;
  for (uint32_t u = 0; u < 20; ++u) {
    for (uint32_t i = 0; i < 15; ++i) {
      const double dot = model.Affinity(u, i);
      if (r.HasEntry(u, i)) {
        naive -= std::log(std::max(1.0 - std::exp(-dot), 1e-12));
      } else {
        naive += dot;
      }
    }
  }
  naive += lambda * (model.user_factors().SquaredFrobeniusNorm() +
                     model.item_factors().SquaredFrobeniusNorm());
  EXPECT_NEAR(ObjectiveQ(model, r, lambda), naive,
              1e-9 * std::max(1.0, std::abs(naive)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveInvariantTest,
                         ::testing::Range<uint64_t>(40, 48));

}  // namespace
}  // namespace ocular
