// Perf-contract tests for the blocked scoring engine:
//   1. ScoreBlock vs per-pair Score oracle parity (<= 1e-12 relative) for
//      every Recommender subclass, across block sizes that split the
//      catalog unevenly;
//   2. the engine serve loop (ServeTopM / ServeTopMCandidates) performs
//      zero heap allocations per user in steady state, enforced with a
//      global operator-new counting hook (the ServeWorkspace contract);
//   3. TopMInto: scratch-heap reuse, selection-threshold semantics, and
//      equivalence with the legacy TopM wrapper;
//   4. serial-vs-parallel RecommendForAllUsers determinism (bit-identical
//      items AND scores);
//   5. candidate mode: off by default, subset-of-catalog lists, and
//      high exact-vs-candidate overlap on planted co-cluster data.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "baselines/bpr.h"
#include "baselines/coclust.h"
#include "baselines/ials.h"
#include "baselines/knn.h"
#include "baselines/wals.h"
#include "common/rng.h"
#include "core/fold_in.h"
#include "core/ocular_recommender.h"
#include "data/synthetic.h"
#include "serving/batch.h"
#include "serving/score_engine.h"
#include "sparse/coo.h"
#include "test_util.h"

// ------------------------------------------------- allocation counting hook
// Same pattern as tests/perf_kernel_test.cpp: every global operator new
// bumps a counter; the alloc-free tests assert the counter does not move
// across a window of steady-state serves.

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

namespace ocular {
namespace {

// ------------------------------------------------------ parity fixtures

/// A fitted recommender under test, with a name for failure messages.
struct FittedCase {
  std::string label;
  std::unique_ptr<Recommender> rec;
};

/// Fits every Recommender subclass in the library on the same random
/// matrix. Small hyper-parameters: parity only needs fitted state, not
/// converged models.
std::vector<FittedCase> FitAllRecommenders(const CsrMatrix& r) {
  std::vector<FittedCase> cases;

  OcularConfig oc;
  oc.k = 6;
  oc.lambda = 0.3;
  oc.max_sweeps = 8;
  cases.push_back({"OCuLaR", std::make_unique<OcularRecommender>(oc)});

  OcularConfig rc = oc;
  rc.variant = OcularVariant::kRelative;
  rc.lambda = 3.0;
  cases.push_back({"R-OCuLaR", std::make_unique<OcularRecommender>(rc)});

  OcularConfig bc = oc;
  bc.use_biases = true;
  cases.push_back({"OCuLaR+biases", std::make_unique<OcularRecommender>(bc)});

  WalsConfig wc;
  wc.k = 5;
  wc.iterations = 4;
  cases.push_back({"wALS", std::make_unique<WalsRecommender>(wc)});

  IalsConfig ic;
  ic.k = 5;
  ic.iterations = 4;
  cases.push_back({"iALS", std::make_unique<IalsRecommender>(ic)});

  BprConfig pc;
  pc.k = 5;
  pc.epochs = 3;
  cases.push_back({"BPR", std::make_unique<BprRecommender>(pc)});

  KnnConfig kc;
  kc.num_neighbors = 6;
  cases.push_back({"user-based", std::make_unique<UserKnnRecommender>(kc)});
  cases.push_back({"item-based", std::make_unique<ItemKnnRecommender>(kc)});

  cases.push_back({"popularity", std::make_unique<PopularityRecommender>()});

  CoclustConfig cc;
  cc.user_clusters = 3;
  cc.item_clusters = 3;
  cc.iterations = 5;
  cases.push_back({"coclust", std::make_unique<CoclustRecommender>(cc)});

  for (auto& c : cases) {
    EXPECT_TRUE(c.rec->Fit(r).ok()) << c.label;
  }
  return cases;
}

TEST(ScoreBlockParityTest, MatchesScoreOracleForEverySubclass) {
  const CsrMatrix r = test::RandomCsr(45, 37, 450, 11);
  const auto cases = FitAllRecommenders(r);
  // Block sizes chosen to split 37 items unevenly (last block partial) and
  // to cover the single-block and per-item extremes.
  for (const uint32_t block : {1u, 7u, 16u, 37u, 64u}) {
    for (const auto& c : cases) {
      std::vector<double> tile(block);
      for (uint32_t u = 0; u < c.rec->num_users(); u += 3) {
        for (uint32_t b0 = 0; b0 < c.rec->num_items(); b0 += block) {
          const uint32_t b1 = std::min(c.rec->num_items(), b0 + block);
          c.rec->ScoreBlock(u, b0, b1, {tile.data(), b1 - b0});
          for (uint32_t i = b0; i < b1; ++i) {
            const double oracle = c.rec->Score(u, i);
            EXPECT_NEAR(tile[i - b0], oracle,
                        1e-12 * std::max(1.0, std::abs(oracle)))
                << c.label << " u=" << u << " i=" << i << " block=" << block;
          }
        }
      }
    }
  }
}

TEST(ScoreBlockParityTest, RawScoreBlockMapsBackToScore) {
  const CsrMatrix r = test::RandomCsr(45, 37, 450, 11);
  const auto cases = FitAllRecommenders(r);
  // Contract: ScoreFromRaw(RawScoreBlock(...)[j]) reproduces Score. For
  // identity-raw models this is ScoreBlock again; for the OCuLaR family it
  // checks the affinity-domain kernel + probability map round trip.
  std::vector<double> raw(37);
  for (const auto& c : cases) {
    for (uint32_t u = 0; u < c.rec->num_users(); u += 5) {
      c.rec->RawScoreBlock(u, 0, c.rec->num_items(),
                           {raw.data(), c.rec->num_items()});
      for (uint32_t i = 0; i < c.rec->num_items(); ++i) {
        const double oracle = c.rec->Score(u, i);
        EXPECT_NEAR(c.rec->ScoreFromRaw(raw[i]), oracle,
                    1e-12 * std::max(1.0, std::abs(oracle)))
            << c.label << " u=" << u << " i=" << i;
      }
    }
  }
}

TEST(ScoreBlockParityTest, ServeTopMMatchesPerPairTopM) {
  const CsrMatrix r = test::RandomCsr(40, 30, 380, 13);
  const auto cases = FitAllRecommenders(r);
  ServeOptions serve;
  serve.m = 7;
  serve.block_items = 8;  // force multiple partial tiles
  for (const auto& c : cases) {
    ServeWorkspace ws;
    ws.Reserve(serve.m, serve.block_items);
    for (uint32_t u = 0; u < c.rec->num_users(); ++u) {
      // Per-pair oracle: the historical fresh-vector TopM path.
      std::vector<double> scores(c.rec->num_items());
      for (uint32_t i = 0; i < scores.size(); ++i) {
        scores[i] = c.rec->Score(u, i);
      }
      const auto oracle = TopM(scores, serve.m, r.Row(u));
      const auto got = ServeTopM(*c.rec, u, r.Row(u), serve, &ws);
      ASSERT_EQ(got.size(), oracle.size()) << c.label << " u=" << u;
      for (size_t rank = 0; rank < oracle.size(); ++rank) {
        EXPECT_EQ(got[rank].item, oracle[rank].item)
            << c.label << " u=" << u << " rank=" << rank;
        EXPECT_NEAR(got[rank].score, oracle[rank].score,
                    1e-12 * std::max(1.0, std::abs(oracle[rank].score)))
            << c.label << " u=" << u << " rank=" << rank;
      }
    }
  }
}

// ---------------------------------------------------------- TopMInto

TEST(TopMIntoTest, WrapperEquivalenceAndHeapReuse) {
  Rng rng = test::MakeRng(7);
  std::vector<double> scores(100);
  for (auto& s : scores) s = rng.Uniform(-1.0, 1.0);
  const std::vector<uint32_t> exclude{3, 17, 44, 90};

  const auto wrapper = TopM(scores, 10, exclude);
  std::vector<ScoredItem> heap;
  for (int pass = 0; pass < 3; ++pass) {  // reuse the same scratch heap
    TopMInto(scores, 10, exclude,
             -std::numeric_limits<double>::infinity(), &heap);
    ASSERT_EQ(heap.size(), wrapper.size());
    for (size_t i = 0; i < heap.size(); ++i) {
      EXPECT_EQ(heap[i], wrapper[i]) << "pass " << pass << " rank " << i;
    }
  }
}

TEST(TopMIntoTest, ThresholdDuringSelectionMatchesPostFilter) {
  Rng rng = test::MakeRng(8);
  std::vector<double> scores(80);
  for (auto& s : scores) s = rng.Uniform(0.0, 1.0);
  const double min_score = 0.6;

  // Post-filter oracle: rank everything, keep the >= min_score prefix.
  auto oracle = TopM(scores, 12, {});
  size_t keep = 0;
  while (keep < oracle.size() && oracle[keep].score >= min_score) ++keep;
  oracle.resize(keep);

  std::vector<ScoredItem> heap;
  TopMInto(scores, 12, {}, min_score, &heap);
  ASSERT_EQ(heap.size(), oracle.size());
  for (size_t i = 0; i < heap.size(); ++i) EXPECT_EQ(heap[i], oracle[i]);
  for (const auto& si : heap) EXPECT_GE(si.score, min_score);
}

// ------------------------------------------------------------ alloc-free

TEST(ServeAllocTest, SteadyStateServesAllocateNothing) {
  const CsrMatrix r = test::RandomCsr(60, 200, 1800, 21);
  OcularConfig cfg;
  cfg.k = 8;
  cfg.lambda = 0.3;
  cfg.max_sweeps = 10;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());

  ServeOptions serve;
  serve.m = 20;
  serve.block_items = 64;
  ServeWorkspace ws;
  ws.Reserve(serve.m, serve.block_items);
  // Warm-up: lets every lazily-grown buffer reach steady-state size.
  for (uint32_t u = 0; u < 5; ++u) ServeTopM(rec, u, r.Row(u), serve, &ws);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 3; ++pass) {
    for (uint32_t u = 0; u < rec.num_users(); ++u) {
      ServeTopM(rec, u, r.Row(u), serve, &ws);
    }
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "the serve loop must not touch the heap in steady state";
}

TEST(ServeAllocTest, CandidateModeServesAllocateNothing) {
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 4;
  cfg.lambda = 0.1;
  cfg.max_sweeps = 60;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());
  const auto index = BuildCoClusterCandidateIndex(rec.model(), 0.4).value();

  ServeOptions serve;
  serve.m = 5;
  ServeWorkspace ws;
  ws.Reserve(serve.m, serve.block_items, index.max_candidate_items);
  for (uint32_t u = 0; u < 5; ++u) {
    ServeTopMCandidates(rec, u, r.Row(u), serve, index, &ws);
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 3; ++pass) {
    for (uint32_t u = 0; u < rec.num_users(); ++u) {
      ServeTopMCandidates(rec, u, r.Row(u), serve, index, &ws);
    }
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "candidate gathering must stay within the reserved capacity";
}

TEST(ServeAllocTest, MPastTheCatalogReservesNoMoreThanTheCatalog) {
  // m = UINT32_MAX used to reserve 4·m selection entries and abort on
  // bad_alloc; every selection buffer is bounded by what can be ranked.
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 4;
  cfg.lambda = 0.1;
  cfg.max_sweeps = 20;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());
  const uint32_t items = rec.num_items();
  ServeOptions serve;
  serve.m = UINT32_MAX;

  ServeWorkspace ws;
  ws.Reserve(serve.m, serve.block_items, 0, items);
  EXPECT_LE(ws.selection.capacity(), items + 1u);
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    EXPECT_EQ(ServeTopM(rec, u, r.Row(u), serve, &ws).size(),
              items - r.RowDegree(u));
  }

  const auto index = BuildCoClusterCandidateIndex(rec.model(), 0.4).value();
  ServeWorkspace cand_ws;
  cand_ws.Reserve(serve.m, serve.block_items, index.max_candidate_items,
                  items);
  EXPECT_LE(cand_ws.selection.capacity(), index.max_candidate_items + 1);
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    EXPECT_LE(ServeTopMCandidates(rec, u, r.Row(u), serve, index, &cand_ws)
                  .size(),
              index.max_candidate_items);
  }

  BatchOptions opts;
  opts.m = UINT32_MAX;
  opts.skip_cold_users = false;
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto all = RecommendForAllUsers(rec, r, opts, p).value();
    for (uint32_t u = 0; u < rec.num_users(); ++u) {
      EXPECT_EQ(all.recommendations[u].size(), items - r.RowDegree(u));
    }
  }
  opts.candidates = &index;
  EXPECT_TRUE(RecommendForAllUsers(rec, r, opts).ok());
}

TEST(ServeAllocTest, FoldInServesAllocateNothingInSteadyState) {
  // The fold-in request path (sanitize -> single-row solve -> blocked
  // ranking, including the popularity fallback) must be allocation-free
  // once the per-worker scratch has warmed up — same contract as the
  // stored-user serve loop above.
  const CsrMatrix r = test::RandomCsr(60, 200, 1800, 23);
  OcularConfig cfg;
  cfg.k = 8;
  cfg.lambda = 0.3;
  cfg.max_sweeps = 10;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());
  auto ctx = MakeFoldInContext(rec.model(), cfg);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  constexpr size_t kMaxHistory = 12;
  // Pre-built request stream (one empty history exercises the fallback).
  std::vector<std::vector<uint32_t>> requests;
  Rng rng(7);
  for (int q = 0; q < 8; ++q) {
    std::vector<uint32_t> history;
    for (size_t n = 0; n < kMaxHistory; ++n) {
      history.push_back(
          static_cast<uint32_t>(rng.Uniform(0.0, r.num_cols())));
    }
    SanitizeHistory(&history, r.num_cols());
    requests.push_back(std::move(history));
  }
  requests.push_back({});

  const ServeOptions serve;
  FoldInWorkspace ws;
  ws.Reserve(ctx->dims(), kMaxHistory);
  std::vector<double> tile;
  std::vector<ScoredItem> selection;
  const FoldInOptions options;
  for (const auto& history : requests) {  // warm-up pass
    ASSERT_TRUE(RecommendForHistoryInto(*ctx, history, 20, serve.min_score,
                                        64, options, &ws, &tile, &selection)
                    .ok());
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& history : requests) {
      ASSERT_TRUE(RecommendForHistoryInto(*ctx, history, 20, serve.min_score,
                                          64, options, &ws, &tile,
                                          &selection)
                      .ok());
    }
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "the fold-in serve path must not touch the heap in steady state";
}

// ----------------------------------------------- batch determinism

TEST(BatchDeterminismTest, SerialAndParallelBitIdentical) {
  const CsrMatrix r = test::RandomCsr(70, 50, 900, 31);
  OcularConfig cfg;
  cfg.k = 6;
  cfg.lambda = 0.4;
  cfg.max_sweeps = 12;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());

  BatchOptions opts;
  opts.m = 9;
  opts.block_items = 16;
  auto serial = RecommendForAllUsers(rec, r, opts).value();
  ThreadPool pool(4);
  auto parallel = RecommendForAllUsers(rec, r, opts, &pool).value();

  ASSERT_EQ(serial.recommendations.size(), parallel.recommendations.size());
  for (size_t u = 0; u < serial.recommendations.size(); ++u) {
    ASSERT_EQ(serial.recommendations[u].size(),
              parallel.recommendations[u].size())
        << "user " << u;
    for (size_t rank = 0; rank < serial.recommendations[u].size(); ++rank) {
      // Bit-identical: same items AND exactly equal scores.
      EXPECT_EQ(serial.recommendations[u][rank],
                parallel.recommendations[u][rank])
          << "user " << u << " rank " << rank;
    }
  }
  EXPECT_EQ(serial.users_scored, parallel.users_scored);
  EXPECT_EQ(serial.total_items, parallel.total_items);
}

// ------------------------------------------------------- candidate mode

TEST(CandidateModeTest, OverlapIsHighOnPlantedCoClusters) {
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 150;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());

  const auto index = BuildCoClusterCandidateIndex(rec.model(), 0.4).value();
  ServeOptions serve;
  serve.m = 4;
  // Score floor keeps the comparison on meaningful recommendations (the
  // block holes); without it the exact lists pad out with near-zero
  // cross-block items that no candidate set should be charged for.
  serve.min_score = 0.3;
  auto overlap_or = CandidateOverlapAtM(rec, r, index, serve);
  ASSERT_TRUE(overlap_or.ok()) << overlap_or.status().ToString();
  const double overlap = overlap_or.value();
  // On two planted blocks the model's co-clusters recover the block
  // structure, so candidate pruning keeps (nearly) every exact hit.
  EXPECT_GE(overlap, 0.9) << "candidate pruning lost too many exact top-M "
                             "items on the easiest co-clustering instance";
}

TEST(CandidateModeTest, CandidateListsAreSubsetsOfUserCoClusters) {
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 150;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());
  const auto index = BuildCoClusterCandidateIndex(rec.model(), 0.4).value();

  ServeOptions serve;
  serve.m = 6;
  ServeWorkspace ws;
  ws.Reserve(serve.m, serve.block_items, index.max_candidate_items);
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    auto ranked = ServeTopMCandidates(rec, u, r.Row(u), serve, index, &ws);
    for (const ScoredItem& si : ranked) {
      bool in_some_shared_cluster = false;
      for (uint32_t c : index.dims_per_user[u]) {
        const auto& items = index.items_per_dim[c];
        if (std::binary_search(items.begin(), items.end(), si.item)) {
          in_some_shared_cluster = true;
          break;
        }
      }
      EXPECT_TRUE(in_some_shared_cluster)
          << "user " << u << " got item " << si.item
          << " outside every shared co-cluster";
    }
  }
}

/// Two disjoint random-hole blocks, a small cousin of the serve-bench
/// workload (bench_serve_hot's TwoBlockWorkload): big enough that an
/// over-parameterized K spreads each block over several dimensions
/// instead of memorizing one user per dimension.
CsrMatrix TwoBlocksCsr(uint32_t users_per_block, uint32_t items_per_block,
                       uint64_t seed) {
  Rng rng(seed);
  CooBuilder coo;
  for (uint32_t b = 0; b < 2; ++b) {
    for (uint32_t u = 0; u < users_per_block; ++u) {
      for (uint32_t i = 0; i < items_per_block; ++i) {
        if (rng.Uniform(0.0, 1.0) < 0.7) {
          coo.Add(b * users_per_block + u, b * items_per_block + i);
        }
      }
    }
  }
  return CsrMatrix::FromCoo(
      coo.Finalize(2 * users_per_block, 2 * items_per_block).value());
}

TEST(CandidateModeTest, RelativeMembershipRecoversOverlapAtLargerK) {
  // With K well above the number of planted blocks, the affinity mass
  // spreads over many dimensions and every factor entry shrinks — the
  // absolute 0.6 floor then drops rows out of every co-cluster (the
  // overlap=0.25 regression BENCH_serve.json recorded at K=50). The
  // relative row-max rule tracks each row's own scale instead.
  const CsrMatrix r = TwoBlocksCsr(60, 40, 5);
  OcularConfig cfg;
  cfg.k = 12;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 60;
  cfg.seed = 3;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());

  CandidateIndexOptions options;
  options.threshold = 0.6;
  options.relative = 0.3;
  const auto index = BuildCoClusterCandidateIndex(rec.model(), options).value();
  EXPECT_EQ(index.options.relative, 0.3);
  // Every user must belong to at least one co-cluster under the relative
  // rule (each row has a maximal entry, which is always a member).
  for (const auto& dims : index.dims_per_user) {
    EXPECT_FALSE(dims.empty());
  }

  ServeOptions serve;
  serve.m = 5;
  // Score floor keeps the comparison on meaningful recommendations (the
  // block holes), as in OverlapIsHighOnPlantedCoClusters above.
  serve.min_score = 0.3;
  auto overlap = CandidateOverlapAtM(rec, r, index, serve);
  ASSERT_TRUE(overlap.ok()) << overlap.status().ToString();
  EXPECT_GE(*overlap, 0.8)
      << "relative membership must keep candidate pruning usable at K=12";

  // And it cannot do worse than the absolute-only rule it subsumes
  // (every absolute member stays a member).
  const auto absolute =
      BuildCoClusterCandidateIndex(rec.model(), /*threshold=*/0.6).value();
  auto abs_overlap = CandidateOverlapAtM(rec, r, absolute, serve);
  if (abs_overlap.ok()) {
    EXPECT_GE(*overlap, *abs_overlap - 1e-12);
  }
}

TEST(CandidateModeTest, CandidateIndexOptionValidation) {
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.1;
  cfg.max_sweeps = 20;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());

  CandidateIndexOptions bad;
  bad.threshold = 0.0;
  bad.relative = 0.0;  // neither rule active
  EXPECT_TRUE(BuildCoClusterCandidateIndex(rec.model(), bad)
                  .status()
                  .IsInvalidArgument());
  bad.relative = 1.5;  // out of (0, 1]
  EXPECT_TRUE(BuildCoClusterCandidateIndex(rec.model(), bad)
                  .status()
                  .IsInvalidArgument());

  // Relative-only is a valid configuration.
  CandidateIndexOptions rel_only;
  rel_only.threshold = 0.0;
  rel_only.relative = 1.0;  // only each row's maximal entries
  auto index = BuildCoClusterCandidateIndex(rec.model(), rel_only);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (const auto& dims : index->dims_per_user) {
    EXPECT_GE(dims.size(), 1u);
  }
}

TEST(CandidateModeTest, BatchCandidateModeIsOffByDefaultAndValidated) {
  const CsrMatrix r = test::TinyBlocksCsr();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.lambda = 0.05;
  cfg.max_sweeps = 80;
  OcularRecommender rec(cfg);
  ASSERT_TRUE(rec.Fit(r).ok());

  BatchOptions opts;
  EXPECT_EQ(opts.candidates, nullptr);  // off by default

  // A candidate index from a mismatched model is rejected.
  OcularConfig other = cfg;
  OcularRecommender small(other);
  ASSERT_TRUE(small.Fit(test::RandomCsr(5, 16, 30, 3)).ok());
  const auto wrong = BuildCoClusterCandidateIndex(small.model(), 0.4).value();
  opts.candidates = &wrong;
  EXPECT_TRUE(RecommendForAllUsers(rec, r, opts)
                  .status()
                  .IsInvalidArgument());

  // A matching index serves lists that are subsets of exact serving.
  const auto index = BuildCoClusterCandidateIndex(rec.model(), 0.4).value();
  opts.candidates = &index;
  auto cand_batch = RecommendForAllUsers(rec, r, opts).value();
  opts.candidates = nullptr;
  auto exact_batch = RecommendForAllUsers(rec, r, opts).value();
  for (uint32_t u = 0; u < rec.num_users(); ++u) {
    EXPECT_LE(cand_batch.recommendations[u].size(),
              exact_batch.recommendations[u].size());
  }
  EXPECT_TRUE(
      BuildCoClusterCandidateIndex(rec.model(), 0.0).status()
          .IsInvalidArgument());
}

}  // namespace
}  // namespace ocular
