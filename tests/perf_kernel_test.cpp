// Perf-contract tests for the block-update kernels and the trainer:
//   1. zero heap allocations inside ProjectedGradientStep per block update
//      (the BlockWorkspace contract), enforced with a global operator-new
//      counting hook;
//   2. the fused per-sweep objective (accumulated from the user-phase block
//      updates) reproduces the ObjectiveQ oracle to 1e-9 relative, across
//      thread counts and config variants;
//   3. equivalence across thread counts: same seed and config give the same
//      final factors and final Q;
//   4. a one-thread fit starts no thread, enforced with a pthread_create
//      counting hook.

#include <dlfcn.h>
#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "core/ocular_model.h"
#include "core/ocular_trainer.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "test_util.h"

// ------------------------------------------------- allocation counting hook
// Every global operator new bumps a counter; the alloc-free tests assert the
// counter does not move across a window of block updates. delete stays
// paired with malloc/free so mixed new/free never happens.

namespace {
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// ------------------------------------------- thread-start counting hook
// The executable's pthread_create interposes libc's (std::thread reaches it
// through libstdc++), counts, and forwards. The sanitizers intercept
// pthread_create themselves, so the hook and its test are left out there.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OCULAR_THREAD_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OCULAR_THREAD_HOOK 0
#endif
#endif
#ifndef OCULAR_THREAD_HOOK
#define OCULAR_THREAD_HOOK 1
#endif

#if OCULAR_THREAD_HOOK
namespace {
std::atomic<uint64_t> g_thread_starts{0};
}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static const Create real =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  g_thread_starts.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}
#endif

namespace ocular {
namespace {

// ------------------------------------------------------------ alloc-free

TEST(BlockKernelAllocTest, ProjectedGradientStepAllocatesNothing) {
  Rng rng = test::MakeRng(3);
  OcularConfig config;
  config.k = 8;
  config.lambda = 0.4;
  DenseMatrix other(40, 8);
  other.FillUniform(&rng, 0.0, 1.0);
  const std::vector<double> sums = other.ColumnSums();
  const std::vector<uint32_t> neighbors{1, 4, 9, 16, 25, 36};
  std::vector<double> f(8, 0.6);

  internal::BlockWorkspace ws;
  ws.Reserve(config.k, neighbors.size());

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 100; ++it) {
    // Alternate cold (invalidated) and warm dot-cache paths — both must be
    // allocation-free.
    if (it % 2 == 0) ws.Invalidate();
    internal::ProjectedGradientStep(f, neighbors, other, sums, config.lambda,
                                    1.0, {}, config, /*frozen_coord=*/-1,
                                    &ws);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "block updates must not touch the heap";
}

// ------------------------------------------------- fused objective oracle

/// Expects the last traced Q to match the ObjectiveQ oracle on the final
/// model to 1e-9 relative.
void ExpectFusedMatchesOracle(const OcularFitResult& fit, const CsrMatrix& r,
                              const OcularConfig& cfg,
                              const std::vector<double>& weights = {}) {
  ASSERT_FALSE(fit.trace.empty());
  const double oracle = ObjectiveQ(fit.model, r, cfg.lambda, weights);
  const double fused = fit.trace.back().objective;
  EXPECT_NEAR(fused, oracle, 1e-9 * std::max(1.0, std::abs(oracle)))
      << "fused per-sweep Q diverged from the ObjectiveQ oracle";
}

class FusedObjectiveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedObjectiveTest, SerialTrainerMatchesOracle) {
  const CsrMatrix r = test::RandomCsr(40, 30, 320, GetParam());
  OcularConfig cfg;
  cfg.k = 5;
  cfg.lambda = 0.7;
  cfg.max_sweeps = 5;
  cfg.tolerance = 0.0;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(r).value();
  ExpectFusedMatchesOracle(fit, r, cfg);
}

TEST_P(FusedObjectiveTest, SerialRelativeVariantMatchesOracle) {
  const CsrMatrix r = test::RandomCsr(35, 28, 250, GetParam());
  OcularConfig cfg;
  cfg.k = 4;
  cfg.lambda = 2.0;
  cfg.variant = OcularVariant::kRelative;
  cfg.max_sweeps = 4;
  cfg.tolerance = 0.0;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(r).value();
  ExpectFusedMatchesOracle(fit, r, cfg, trainer.UserWeights(r));
}

TEST_P(FusedObjectiveTest, SerialWithBiasesAndMultiStepMatchesOracle) {
  const CsrMatrix r = test::RandomCsr(30, 24, 200, GetParam());
  OcularConfig cfg;
  cfg.k = 4;
  cfg.lambda = 0.5;
  cfg.use_biases = true;
  cfg.block_steps = 3;  // exercises the warm dot-cache path
  cfg.max_sweeps = 3;
  cfg.tolerance = 0.0;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(r).value();
  ExpectFusedMatchesOracle(fit, r, cfg);
}

TEST_P(FusedObjectiveTest, ParallelTrainerMatchesOracle) {
  const CsrMatrix r = test::RandomCsr(40, 30, 320, GetParam());
  OcularConfig cfg;
  cfg.k = 5;
  cfg.lambda = 0.7;
  cfg.max_sweeps = 5;
  cfg.tolerance = 0.0;
  OcularTrainer trainer(cfg, 3);
  auto fit = trainer.Fit(r).value();
  ExpectFusedMatchesOracle(fit, r, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedObjectiveTest,
                         ::testing::Range<uint64_t>(50, 55));

// ------------------------------------------- serial-parallel equivalence

TEST(SerialParallelEquivalenceTest, SameSeedSameConfigSameFinalQ) {
  const CsrMatrix r = test::RandomCsr(50, 40, 500, 77);
  OcularConfig cfg;
  cfg.k = 6;
  cfg.lambda = 0.4;
  cfg.max_sweeps = 8;
  cfg.tolerance = 1e-5;
  cfg.seed = 23;

  OcularTrainer serial(cfg);
  auto a = serial.Fit(r).value();
  OcularTrainer parallel(cfg, 4);
  auto b = parallel.Fit(r).value();

  // Same per-row kernel on both sides: factors are bit-identical, and the
  // fused Q (summed in row order on both sides) agrees to well under the
  // 1e-6 relative contract.
  EXPECT_EQ(a.model.user_factors(), b.model.user_factors());
  EXPECT_EQ(a.model.item_factors(), b.model.item_factors());
  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  const double qa = a.trace.back().objective;
  const double qb = b.trace.back().objective;
  EXPECT_NEAR(qa, qb, 1e-6 * std::max(1.0, std::abs(qa)));
  EXPECT_EQ(a.sweeps_run, b.sweeps_run);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(SerialParallelEquivalenceTest, TinyBlocksFixture) {
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 2;
  cfg.lambda = 0.2;
  cfg.max_sweeps = 10;
  cfg.tolerance = 0.0;
  OcularTrainer serial(cfg);
  OcularTrainer parallel(cfg, 2);
  auto a = serial.Fit(r).value();
  auto b = parallel.Fit(r).value();
  EXPECT_EQ(a.model.user_factors(), b.model.user_factors());
  ASSERT_FALSE(a.trace.empty());
  const double qa = a.trace.back().objective;
  EXPECT_NEAR(qa, b.trace.back().objective,
              1e-6 * std::max(1.0, std::abs(qa)));
}

// --------------------------------------------------------- thread starts

#if OCULAR_THREAD_HOOK
TEST(TrainerThreadsTest, OneThreadRunsInlineAndAPoolLivesForOneFit) {
  const CsrMatrix r = test::RandomCsr(40, 30, 320, 91);
  OcularConfig cfg;
  cfg.k = 4;
  cfg.max_sweeps = 3;

  // The default trainer (the daemon's update path) starts no thread.
  uint64_t before = g_thread_starts.load();
  const OcularTrainer inline_trainer(cfg);
  EXPECT_EQ(inline_trainer.num_threads(), 1u);
  ASSERT_TRUE(inline_trainer.Fit(r).ok());
  EXPECT_EQ(g_thread_starts.load(), before)
      << "a one-thread fit must run on the calling thread";

  // Three threads: constructing starts none, each fit starts its own pool.
  before = g_thread_starts.load();
  const OcularTrainer threaded(cfg, 3);
  EXPECT_EQ(g_thread_starts.load(), before);
  ASSERT_TRUE(threaded.Fit(r).ok());
  ASSERT_TRUE(threaded.Fit(r).ok());
  EXPECT_EQ(g_thread_starts.load(), before + 6);
}
#endif

}  // namespace
}  // namespace ocular
