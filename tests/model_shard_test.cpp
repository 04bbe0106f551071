// Tests for user-sharded OCLR stores (core/model_shard.h) and the layers
// that serve them: table-driven ShardMap routing (every shard edge, both
// off-by-one ends, single-shard degeneracy, empty-shard rejection, a
// route-totality property sweep stable across save/open round trips), the
// shardset-manifest corruption matrix (each class refuses to open with a
// DISTINCT error, mirroring model_store_test's OCLR cases), bit-identical
// serving of one StoreRecommender over a shardset and over the monolithic
// store, the registry's per-shard generation swap, and the daemon's
// sharded verbs (shard-tagged replies, shard_requests stats, and the
// fold-in update that republishes only the touched shard, including the
// upgrade of a v2 set one republished shard at a time), the one-shard
// bindings a plain store opens as, and fold-in contexts built over mapped
// views matching the in-memory model's bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/json.h"
#include "core/model_shard.h"
#include "core/fold_in.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "serving/daemon.h"
#include "serving/journal.h"
#include "serving/loadgen.h"
#include "serving/registry.h"
#include "serving/score_engine.h"
#include "serving/store_recommender.h"
#include "test_util.h"

namespace ocular {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Replaces the first manifest line starting with `key ` by `replacement`
/// (or deletes it when `replacement` is empty).
void RewriteManifestLine(const std::string& path, const std::string& key,
                         const std::string& replacement) {
  std::istringstream in(ReadFile(path));
  std::ostringstream out;
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    if (!done && (line == key || line.rfind(key + " ", 0) == 0)) {
      done = true;
      if (replacement.empty()) continue;
      out << replacement << '\n';
      continue;
    }
    out << line << '\n';
  }
  WriteFile(path, out.str());
}

/// A small fitted model saved both ways: one monolithic .oclr file and an
/// N-shard shardset, over the same factors.
struct ShardedFixture {
  CsrMatrix train;
  OcularConfig config;
  OcularModel model;
  std::string mono_path;
  std::string manifest_path;

  static ShardedFixture Make(const std::string& stem, uint32_t num_shards,
                             uint32_t users = 50, uint32_t items = 30,
                             uint64_t seed = 11, bool use_biases = false) {
    ShardedFixture f;
    f.train = test::RandomCsr(users, items, users * 8, seed);
    f.config.k = 5;
    f.config.lambda = 0.5;
    f.config.max_sweeps = 6;
    f.config.seed = seed;
    f.config.use_biases = use_biases;
    OcularTrainer trainer(f.config);
    f.model = trainer.Fit(f.train).value().model;
    f.mono_path = TempPath(stem + ".oclr");
    f.manifest_path = TempPath(stem + ".shardset");
    std::remove(UpdateJournal::PathFor(f.mono_path).c_str());
    std::remove(UpdateJournal::PathFor(f.manifest_path).c_str());
    EXPECT_TRUE(SaveModelBinary(f.model, f.config, f.mono_path).ok());
    auto store = ModelStore::Open(f.mono_path);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(SaveModelSharded(store->meta(), store->user_factors(),
                                 store->item_factors_t(), num_shards,
                                 f.manifest_path)
                    .ok());
    return f;
  }

  std::shared_ptr<const CsrMatrix> shared_train() const {
    return std::make_shared<const CsrMatrix>(train);
  }

  /// Removes both bindings, the set's members, and the journals an
  /// update writes beside them.
  void Cleanup() const {
    RemoveBinding(mono_path);
    RemoveBinding(manifest_path);
  }

  /// Removes a `.oclr` or a set with its members, and its journal.
  static void RemoveBinding(const std::string& path) {
    if (auto manifest = LoadShardSetManifest(path); manifest.ok()) {
      std::remove(ShardSetResolve(path, manifest->items_file).c_str());
      for (const ShardSetEntry& e : manifest->shards) {
        std::remove(ShardSetResolve(path, e.file).c_str());
      }
    }
    std::remove(path.c_str());
    std::remove(UpdateJournal::PathFor(path).c_str());
  }
};

/// Rewrites the members of the set at `manifest_path` as earlier releases
/// wrote them: `versions[0]` for the items file, then one per shard, each
/// 2 (v3 stamped v2), 3 (test::WriteOclrV3) or 4 (left as written), and
/// republishes the manifest with the new fingerprints.
void RewriteSetMembers(const std::string& manifest_path,
                       const std::vector<int>& versions) {
  ShardSetManifest manifest = LoadShardSetManifest(manifest_path).value();
  ASSERT_EQ(versions.size(), manifest.shards.size() + 1);
  for (size_t n = 0; n < versions.size(); ++n) {
    if (versions[n] == 4) continue;
    uint64_t* fingerprint = n == 0 ? &manifest.items_fingerprint
                                   : &manifest.shards[n - 1].fingerprint;
    const std::string path = ShardSetResolve(
        manifest_path,
        n == 0 ? manifest.items_file : manifest.shards[n - 1].file);
    // Copied out before the file under the mapping is rewritten.
    BinaryModelMeta meta;
    DenseMatrix users, items;
    {
      auto store = ModelStore::Open(path);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      meta = store->meta();
      users = DenseMatrix(store->num_users(), store->k());
      std::copy_n(store->user_factors().data(), users.size(), users.data());
      items = TransposedCopy(store->item_factors_t());
    }
    ASSERT_TRUE(test::WriteOclrV3(path, meta, users, items));
    if (versions[n] == 2) ASSERT_TRUE(test::StampOclrV2(path));
    *fingerprint = fs::FileFingerprint(path).value();
  }
  ASSERT_TRUE(SaveShardSetManifest(manifest, manifest_path).ok());
}

// ------------------------------------------------------------- ShardMap

TEST(ShardMapTest, EvenSplitTable) {
  struct Case {
    uint32_t users;
    uint32_t shards;
    std::vector<uint32_t> begins;  // expected begin(s) for each shard
  };
  const Case cases[] = {
      {10, 1, {0}},
      {10, 2, {0, 5}},
      {10, 3, {0, 4, 7}},    // 10 = 4 + 3 + 3: the first shard takes the extra
      {7, 4, {0, 2, 4, 6}},  // 7 = 2 + 2 + 2 + 1
      {5, 5, {0, 1, 2, 3, 4}},
      {1, 1, {0}},
      {1000000, 7, {0, 142858, 285715, 428572, 571429, 714286, 857143}},
  };
  for (const Case& c : cases) {
    auto map = ShardMap::EvenSplit(c.users, c.shards);
    ASSERT_TRUE(map.ok()) << c.users << "/" << c.shards;
    ASSERT_EQ(map->num_shards(), c.shards);
    ASSERT_EQ(map->num_users(), c.users);
    for (uint32_t s = 0; s < c.shards; ++s) {
      EXPECT_EQ(map->begin(s), c.begins[s])
          << c.users << "/" << c.shards << " shard " << s;
    }
    EXPECT_EQ(map->end(c.shards - 1), c.users);
    // Sizes differ by at most one and tile the user space.
    uint32_t covered = 0;
    for (uint32_t s = 0; s < c.shards; ++s) {
      const uint32_t size = map->end(s) - map->begin(s);
      EXPECT_GE(size, c.users / c.shards);
      EXPECT_LE(size, c.users / c.shards + 1);
      EXPECT_EQ(map->begin(s), covered);
      covered += size;
    }
    EXPECT_EQ(covered, c.users);
  }
}

TEST(ShardMapTest, RoutingHitsEveryShardEdge) {
  auto map = ShardMap::EvenSplit(103, 8).value();
  // Boundary users at every shard edge, including the off-by-one at the
  // global ends: user 0 and user n_users-1.
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(map.num_users() - 1), map.num_shards() - 1);
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    EXPECT_EQ(map.shard_of(map.begin(s)), s) << "first user of shard " << s;
    EXPECT_EQ(map.shard_of(map.end(s) - 1), s) << "last user of shard " << s;
    if (s > 0) {
      EXPECT_EQ(map.shard_of(map.begin(s) - 1), s - 1)
          << "user just below shard " << s;
    }
  }
}

TEST(ShardMapTest, SingleShardDegeneracy) {
  auto map = ShardMap::EvenSplit(17, 1).value();
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(map.begin(0), 0u);
  EXPECT_EQ(map.end(0), 17u);
  for (uint32_t u = 0; u < 17; ++u) EXPECT_EQ(map.shard_of(u), 0u);

  // Single is the same map, and also covers the zero-user store EvenSplit
  // rejects (a shardset's items file bound on its own).
  EXPECT_EQ(ShardMap::Single(17), map);
  const ShardMap empty = ShardMap::Single(0);
  EXPECT_EQ(empty.num_shards(), 1u);
  EXPECT_EQ(empty.num_users(), 0u);
  EXPECT_EQ(empty.end(0), 0u);
}

TEST(ShardMapTest, RejectsEmptyShards) {
  // EvenSplit: a zero divisor and more shards than users both imply an
  // empty shard.
  EXPECT_FALSE(ShardMap::EvenSplit(10, 0).ok());
  EXPECT_FALSE(ShardMap::EvenSplit(10, 11).ok());
  EXPECT_FALSE(ShardMap::EvenSplit(0, 1).ok());

  // FromBoundaries: every malformed begins vector is an empty shard in
  // disguise.
  struct Case {
    std::vector<uint32_t> begins;
    uint32_t users;
  };
  const Case bad[] = {
      {{}, 10},          // no shards at all
      {{1}, 10},         // users [0, 1) unowned
      {{0, 5, 5}, 10},   // shard 1 is empty
      {{0, 7, 5}, 10},   // non-increasing
      {{0, 10}, 10},     // final shard [10, 10) is empty
      {{0, 12}, 10},     // begin past the user space
      {{0}, 0},          // no users to route
  };
  for (const Case& c : bad) {
    EXPECT_FALSE(ShardMap::FromBoundaries(c.begins, c.users).ok())
        << "begins.size()=" << c.begins.size() << " users=" << c.users;
  }
  auto good = ShardMap::FromBoundaries({0, 4, 7}, 10);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, ShardMap::EvenSplit(10, 3).value());
}

TEST(ShardMapTest, RouteIsTotalAndStableAcrossRoundTrip) {
  // Property sweep: for every (users, shards) in the grid, route(u) is
  // total (every user lands in exactly the shard whose range holds it)...
  for (uint32_t users : {1u, 2u, 13u, 64u, 97u}) {
    for (uint32_t shards : {1u, 2u, 3u, 5u, 8u}) {
      if (shards > users) continue;
      auto map = ShardMap::EvenSplit(users, shards).value();
      for (uint32_t u = 0; u < users; ++u) {
        const uint32_t s = map.shard_of(u);
        ASSERT_LT(s, map.num_shards());
        ASSERT_GE(u, map.begin(s));
        ASSERT_LT(u, map.end(s));
      }
    }
  }
  // ...and the table survives a save/open round trip bit-for-bit: the map
  // parsed back from the manifest routes identically.
  ShardedFixture f = ShardedFixture::Make("map_round_trip", 7, 61, 24);
  auto opened = OpenShardSet(f.manifest_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardMap expected = ShardMap::EvenSplit(61, 7).value();
  EXPECT_EQ(opened->map, expected);
  for (uint32_t u = 0; u < 61; ++u) {
    EXPECT_EQ(opened->map.shard_of(u), expected.shard_of(u));
  }
}

// --------------------------------------------------- save/open round trip

TEST(ShardSetTest, SaveOpenRoundTripSharesItemsAndSlicesUsers) {
  ShardedFixture f = ShardedFixture::Make("shard_round_trip", 3);
  auto mono = ModelStore::Open(f.mono_path);
  ASSERT_TRUE(mono.ok());
  auto set = OpenShardSet(f.manifest_path);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  EXPECT_EQ(set->manifest.num_users, mono->num_users());
  EXPECT_EQ(set->manifest.num_items, mono->num_items());
  EXPECT_EQ(set->manifest.k, mono->k());
  EXPECT_EQ(set->manifest.split, "user-range");
  ASSERT_EQ(set->shards.size(), 3u);

  // The shared items file holds the factors once — no per-shard copies —
  // and each shard file holds exactly its user slice.
  EXPECT_EQ(set->items->num_users(), 0u);
  EXPECT_EQ(set->items->num_items(), mono->num_items());
  for (uint32_t s = 0; s < 3; ++s) {
    const ModelStore& shard = *set->shards[s];
    ASSERT_EQ(shard.num_users(), set->map.end(s) - set->map.begin(s));
    EXPECT_EQ(shard.num_items(), 0u);
    for (uint32_t r = 0; r < shard.num_users(); ++r) {
      const auto expect = mono->user_factors().Row(set->map.begin(s) + r);
      const auto got = shard.user_factors().Row(r);
      for (uint32_t c = 0; c < mono->k(); ++c) {
        ASSERT_EQ(expect[c], got[c]) << "shard " << s << " row " << r;
      }
    }
  }
}

// ----------------------------------------------------- corruption matrix

TEST(ShardSetTest, CorruptionMatrixEachClassHasADistinctError) {
  // One fresh shardset per corruption class, so the classes cannot mask
  // each other. Mirrors model_store_test's OCLR corruption cases.
  // Class 1: not a manifest at all (bad magic).
  {
    const std::string path = TempPath("bad_magic.shardset");
    WriteFile(path, "OCLRWRONG 1\nend\n");
    auto set = OpenShardSet(path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsParseError());
    EXPECT_NE(set.status().ToString().find("bad magic"), std::string::npos)
        << set.status().ToString();
    std::remove(path.c_str());
  }
  // Class 2: truncated manifest (the 'end' sentinel never arrives).
  {
    ShardedFixture f = ShardedFixture::Make("truncated", 2);
    RewriteManifestLine(f.manifest_path, "end", "");
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsParseError());
    EXPECT_NE(set.status().ToString().find("truncated"), std::string::npos)
        << set.status().ToString();
  }
  // Class 3: shard-count/body disagreement.
  {
    ShardedFixture f = ShardedFixture::Make("count_mismatch", 2);
    RewriteManifestLine(f.manifest_path, "shards", "shards 3");
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsParseError());
    EXPECT_NE(set.status().ToString().find("shard count disagreement"),
              std::string::npos)
        << set.status().ToString();
  }
  // Class 4: a member file is missing.
  {
    ShardedFixture f = ShardedFixture::Make("missing_member", 2);
    std::remove(TempPath("missing_member.shard-001.oclr").c_str());
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsIOError());
    EXPECT_NE(set.status().ToString().find("missing or unreadable"),
              std::string::npos)
        << set.status().ToString();
  }
  // Class 5: a member's bytes changed after the manifest was written —
  // the torn-shardset case the fingerprints exist to catch.
  {
    ShardedFixture f = ShardedFixture::Make("fingerprint", 2);
    const std::string member = TempPath("fingerprint.shard-000.oclr");
    std::string bytes = ReadFile(member);
    bytes[300] ^= 0x40;  // inside the fingerprinted prefix
    WriteFile(member, bytes);
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsParseError());
    EXPECT_NE(set.status().ToString().find("fingerprint mismatch"),
              std::string::npos)
        << set.status().ToString();
  }
  // Class 6: manifest and member header disagree on the shape. The member
  // is untouched (fingerprint passes) but its header no longer matches
  // what the manifest claims.
  {
    ShardedFixture f = ShardedFixture::Make("header_disagree", 2);
    RewriteManifestLine(f.manifest_path, "k", "k 9");
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsParseError());
    EXPECT_NE(set.status().ToString().find("header disagrees"),
              std::string::npos)
        << set.status().ToString();
  }
  // Class 7: shard ranges that no longer tile the user space.
  {
    ShardedFixture f = ShardedFixture::Make("tiling", 2);
    auto manifest = LoadShardSetManifest(f.manifest_path).value();
    // Bump shard 1's begin so a one-user gap opens between the ranges.
    std::string text = ReadFile(f.manifest_path);
    std::ostringstream old_line, new_line;
    old_line << "shard " << manifest.shards[1].user_begin << ' '
             << manifest.shards[1].user_end;
    new_line << "shard " << (manifest.shards[1].user_begin + 1) << ' '
             << manifest.shards[1].user_end;
    const size_t at = text.find(old_line.str());
    ASSERT_NE(at, std::string::npos);
    text.replace(at, old_line.str().size(), new_line.str());
    WriteFile(f.manifest_path, text);
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_FALSE(set.ok());
    EXPECT_TRUE(set.status().IsParseError());
    EXPECT_NE(set.status().ToString().find("do not tile"), std::string::npos)
        << set.status().ToString();
  }
}

// ------------------------------------------------------- serving parity

TEST(StoreRecommenderTest, ShardSetBitIdenticalToMonolithicStore) {
  ShardedFixture f = ShardedFixture::Make("shard_parity", 4, 61, 33);
  auto mono = ModelStore::Open(f.mono_path);
  ASSERT_TRUE(mono.ok());
  auto set = OpenShardSet(f.manifest_path);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  // The one class, built over the .oclr and over the 4-shard set.
  StoreRecommender mono_rec(*mono);
  StoreRecommender sharded_rec(*set);

  ASSERT_EQ(sharded_rec.name(), mono_rec.name());
  ASSERT_EQ(sharded_rec.num_users(), mono_rec.num_users());
  ASSERT_EQ(sharded_rec.num_items(), mono_rec.num_items());

  // Same kernel over the same operand layout: scores are exactly equal.
  std::vector<double> mono_tile(mono_rec.num_items());
  std::vector<double> sharded_tile(mono_rec.num_items());
  for (uint32_t u = 0; u < mono_rec.num_users(); ++u) {
    mono_rec.ScoreBlock(u, 0, mono_rec.num_items(), mono_tile);
    sharded_rec.ScoreBlock(u, 0, mono_rec.num_items(), sharded_tile);
    for (uint32_t i = 0; i < mono_rec.num_items(); ++i) {
      ASSERT_EQ(mono_tile[i], sharded_tile[i]) << "u=" << u << " i=" << i;
      ASSERT_EQ(mono_rec.Score(u, i), sharded_rec.Score(u, i));
    }
  }

  // Served rankings: identical items AND scores across every user (and so
  // across every shard edge).
  ServeOptions options;
  options.m = 10;
  ServeWorkspace mono_ws, sharded_ws;
  mono_ws.Reserve(options.m, options.block_items);
  sharded_ws.Reserve(options.m, options.block_items);
  for (uint32_t u = 0; u < mono_rec.num_users(); ++u) {
    auto mono_top = ServeTopM(mono_rec, u, f.train.Row(u), options, &mono_ws);
    auto sharded_top =
        ServeTopM(sharded_rec, u, f.train.Row(u), options, &sharded_ws);
    ASSERT_EQ(mono_top.size(), sharded_top.size()) << "u=" << u;
    for (size_t r = 0; r < mono_top.size(); ++r) {
      ASSERT_EQ(mono_top[r].item, sharded_top[r].item) << "u=" << u;
      ASSERT_EQ(mono_top[r].score, sharded_top[r].score) << "u=" << u;
    }
  }
}

// ----------------------------------------------- fold-in context parity

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FoldInContextTest, MappedViewsMatchTheInMemoryModelBitForBit) {
  for (const bool use_biases : {false, true}) {
    SCOPED_TRACE(use_biases ? "with biases" : "without biases");
    ShardedFixture f = ShardedFixture::Make(
        use_biases ? "ctx_parity_bias" : "ctx_parity", 3, 61, 33, 13,
        use_biases);
    auto from_model = MakeFoldInContext(f.model, f.config);
    ASSERT_TRUE(from_model.ok()) << from_model.status().ToString();
    const ConstMatrixView items = f.model.item_factors();
    const std::vector<double> sums = ColumnSums(items);
    EXPECT_TRUE(SameBits(from_model->item_sums, sums));
    // The dataset-free fallback is the expected affinity <Σ_u f_u, f_i>,
    // as a per-item dot over the row-major rows adds it up.
    const std::vector<double> user_sums = ColumnSums(f.model.user_factors());
    std::vector<double> expected(items.rows());
    for (uint32_t i = 0; i < items.rows(); ++i) {
      expected[i] = vec::Dot(user_sums, items.Row(i));
    }
    EXPECT_TRUE(SameBits(from_model->popularity, expected));

    auto mono = OpenOneShardSet(f.mono_path);
    auto set = OpenShardSet(f.manifest_path);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_EQ(set->shards.size(), 3u);
    for (const ShardSetStores* binding : {&*mono, &*set}) {
      const ModelStore& store = *binding->items;
      auto mapped = MakeFoldInContext(binding->user_blocks(),
                                      store.item_factors_t(), f.config);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      EXPECT_TRUE(SameBits(mapped->item_sums, sums))
          << binding->shards.size() << " shard(s)";
      EXPECT_TRUE(SameBits(mapped->popularity, from_model->popularity))
          << binding->shards.size() << " shard(s)";
      // A solve gathers its history's rows from Vᵀ: the same doubles, so
      // the same factor as a solve on the model's own rows.
      FoldInWorkspace ws;
      for (const std::vector<uint32_t>& history :
           {std::vector<uint32_t>{3}, std::vector<uint32_t>{0, 7, 19, 32},
            std::vector<uint32_t>{1, 2, 5, 8, 13, 21, 30}}) {
        ASSERT_TRUE(FoldInUserInto(*mapped, history, {}, &ws).ok());
        EXPECT_TRUE(
            SameBits(ws.f, FoldInUser(f.model, f.config, history).value()))
            << binding->shards.size() << " shard(s), " << history.size()
            << " items";
      }
      // Checked before any row is gathered.
      const std::vector<uint32_t> out_of_range = {2, 33};
      EXPECT_TRUE(FoldInUserInto(*mapped, out_of_range, {}, &ws)
                      .IsInvalidArgument());
    }
  }
}

// ------------------------------------------- registry per-shard swap

TEST(ModelRegistryShardedTest, BindsShardsetAndSwapsOnlyTouchedShards) {
  ShardedFixture f = ShardedFixture::Make("registry_swap", 3);
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.Load("default", f.manifest_path, f.shared_train()).ok());
  auto model = registry.Get("default");
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->sharded);
  EXPECT_EQ(model->num_shards(), 3u);
  EXPECT_EQ(model->num_users(), 50u);
  EXPECT_EQ(model->num_items(), 30u);
  EXPECT_EQ(model->shard_of(0), 0u);
  EXPECT_EQ(model->shard_of(49), 2u);

  // A reload with nothing changed is a no-op: no swap, no generation bump.
  const uint64_t before = registry.generation();
  ASSERT_TRUE(registry.ReloadAll().ok());
  EXPECT_EQ(registry.generation(), before);
  EXPECT_EQ(registry.Get("default"), model);

  // Rewrite shard 1's file (same shape, different factor bytes) and
  // republish the manifest: the reload must reopen exactly that member,
  // alias the other three (items + shards 0/2), and step one generation.
  auto set = OpenShardSet(f.manifest_path);
  ASSERT_TRUE(set.ok());
  const ModelStore& old_shard = *set->shards[1];
  DenseMatrix perturbed(old_shard.num_users(), old_shard.k());
  for (uint32_t r = 0; r < perturbed.rows(); ++r) {
    const auto row = old_shard.user_factors().Row(r);
    for (uint32_t c = 0; c < perturbed.cols(); ++c) {
      perturbed.At(r, c) = row[c] * 2.0;
    }
  }
  const std::string shard1_path = TempPath("registry_swap.shard-001.oclr");
  const uint32_t k = old_shard.k();
  ASSERT_TRUE(WriteModelSections(set->items->meta(),
                                 SectionSource::Rows(perturbed),
                                 {k, 0, nullptr}, shard1_path)
                  .ok());
  ShardSetManifest manifest = set->manifest;
  manifest.shards[1].fingerprint =
      fs::FileFingerprint(shard1_path).value();
  ASSERT_TRUE(SaveShardSetManifest(manifest, f.manifest_path).ok());

  ASSERT_TRUE(registry.ReloadAll().ok());
  EXPECT_EQ(registry.generation(), before + 1);
  auto reloaded = registry.Get("default");
  ASSERT_NE(reloaded, nullptr);
  EXPECT_NE(reloaded, model);
  // Untouched members are the SAME mappings, not re-opened copies.
  EXPECT_EQ(reloaded->binding.items.get(), model->binding.items.get());
  EXPECT_EQ(reloaded->binding.shards[0].get(), model->binding.shards[0].get());
  EXPECT_EQ(reloaded->binding.shards[2].get(), model->binding.shards[2].get());
  EXPECT_NE(reloaded->binding.shards[1].get(), model->binding.shards[1].get());
  // The new factors are live.
  EXPECT_EQ(reloaded->binding.shards[1]->user_factors().At(0, 0),
            model->binding.shards[1]->user_factors().At(0, 0) * 2.0);
}

TEST(ModelRegistryShardedTest, TornShardsetKeepsPreviousGenerationServing) {
  ShardedFixture f = ShardedFixture::Make("registry_torn", 2);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.manifest_path).ok());
  auto model = registry.Get("default");

  // Corrupt a member behind the manifest's back: reload must fail and the
  // bound generation must keep serving.
  const std::string member = TempPath("registry_torn.shard-000.oclr");
  std::string bytes = ReadFile(member);
  bytes[300] ^= 0x40;
  WriteFile(member, bytes);
  const uint64_t before = registry.generation();
  Status reload = registry.ReloadAll();
  ASSERT_FALSE(reload.ok());
  EXPECT_NE(reload.ToString().find("fingerprint mismatch"),
            std::string::npos);
  EXPECT_EQ(registry.generation(), before);
  EXPECT_EQ(registry.Get("default"), model);
}

// ------------------------------------------------------- daemon verbs

TEST(DaemonShardedTest, RecommendStatsAndModelsReportShards) {
  ShardedFixture f = ShardedFixture::Make("daemon_sharded", 3);
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.Load("default", f.manifest_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // Recommend replies carry the shard hit; user 49 lives in the last
  // shard of the 3-way split of 50 users.
  auto reply = JsonValue::Parse(
      server.HandleLine(R"({"cmd":"recommend","user":49,"m":4})"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->Find("ok")->boolean());
  ASSERT_NE(reply->Find("shard"), nullptr);
  EXPECT_EQ(reply->Find("shard")->number(), 2.0);

  auto first = JsonValue::Parse(
      server.HandleLine(R"({"cmd":"recommend","user":0,"m":4})"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("shard")->number(), 0.0);

  // models: the binding advertises itself as sharded.
  auto models = JsonValue::Parse(server.HandleLine(R"({"cmd":"models"})"));
  ASSERT_TRUE(models.ok());
  const JsonValue& entry = models->Find("models")->array()[0];
  EXPECT_TRUE(entry.Find("sharded")->boolean());
  EXPECT_EQ(entry.Find("shards")->number(), 3.0);
  EXPECT_EQ(entry.Find("users")->number(), 50.0);
  EXPECT_EQ(entry.Find("items")->number(), 30.0);

  // stats: both stored-user recommends counted as shard hits.
  auto stats = JsonValue::Parse(server.HandleLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("shard_requests")->number(), 2.0);
}

TEST(DaemonShardedTest, MonolithicRepliesCarryNoShardField) {
  ShardedFixture f = ShardedFixture::Make("daemon_mono", 2);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.mono_path, f.shared_train()).ok());
  RequestServer server(&registry);
  auto reply = JsonValue::Parse(
      server.HandleLine(R"({"cmd":"recommend","user":3,"m":4})"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->Find("ok")->boolean());
  EXPECT_EQ(reply->Find("shard"), nullptr);
  auto stats = JsonValue::Parse(server.HandleLine(R"({"cmd":"stats"})"));
  EXPECT_EQ(stats->Find("shard_requests")->number(), 0.0);

  // models: a one-shard binding that is not sharded, whose one file is
  // counted once in mapped_bytes.
  auto models = JsonValue::Parse(server.HandleLine(R"({"cmd":"models"})"));
  ASSERT_TRUE(models.ok());
  const JsonValue& entry = models->Find("models")->array()[0];
  EXPECT_FALSE(entry.Find("sharded")->boolean());
  EXPECT_EQ(entry.Find("shards")->number(), 1.0);
  EXPECT_EQ(entry.Find("mapped_bytes")->number(),
            static_cast<double>(ReadFile(f.mono_path).size()));
}

TEST(DaemonShardedTest, ItemsFileBindsAsAZeroUserModel) {
  // A shardset's items file is a valid store with no users: bound on its
  // own it serves histories by fold-in and no stored user.
  ShardedFixture f = ShardedFixture::Make("items_only", 2);
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.Load("default", TempPath("items_only.items.oclr")).ok());
  RequestServer server(&registry);

  auto models = JsonValue::Parse(server.HandleLine(R"({"cmd":"models"})"));
  ASSERT_TRUE(models.ok());
  const JsonValue& entry = models->Find("models")->array()[0];
  EXPECT_EQ(entry.Find("users")->number(), 0.0);
  EXPECT_EQ(entry.Find("shards")->number(), 1.0);
  EXPECT_FALSE(entry.Find("sharded")->boolean());

  auto stored = JsonValue::Parse(
      server.HandleLine(R"({"cmd":"recommend","user":0,"m":4})"));
  ASSERT_TRUE(stored.ok());
  EXPECT_FALSE(stored->Find("ok")->boolean());
  EXPECT_NE(stored->Find("error")->string().find("OutOfRange"),
            std::string::npos)
      << stored->Find("error")->string();

  auto folded = JsonValue::Parse(
      server.HandleLine(R"({"cmd":"recommend","history":[1,5],"m":4})"));
  ASSERT_TRUE(folded.ok());
  ASSERT_TRUE(folded->Find("ok")->boolean());
  EXPECT_TRUE(folded->Find("folded")->boolean());
}

TEST(DaemonShardedTest, DatasetFreeHistoryFallbackMatchesTheMonolithicStore) {
  // Without a dataset the popularity fallback is the expected affinity
  // over every stored user; a shardset must rank it exactly like the
  // monolithic store of the same factors.
  for (const uint32_t shards : {1u, 3u}) {
    ShardedFixture f =
        ShardedFixture::Make("dataset_free_" + std::to_string(shards), shards);
    ModelRegistry mono_registry;
    ModelRegistry sharded_registry;
    ASSERT_TRUE(mono_registry.Load("default", f.mono_path).ok());
    ASSERT_TRUE(sharded_registry.Load("default", f.manifest_path).ok());
    RequestServer mono(&mono_registry);
    RequestServer sharded(&sharded_registry);
    for (const std::string line :
         {R"({"cmd":"recommend","history":[],"m":5})",
          R"({"cmd":"recommend","history":[5000],"m":5})"}) {
      const std::string want = mono.HandleLine(line);
      EXPECT_NE(want.find(R"("folded":false)"), std::string::npos) << want;
      EXPECT_EQ(sharded.HandleLine(line), want)
          << shards << " shards, " << line;
    }
  }
}

TEST(DaemonShardedTest, UpdateSucceedsWhenTheDatasetHasMoreUsersThanTheSet) {
  // The bound dataset has a user (row 60) past the set's 50: its row is
  // an exclusion source only, and the set keeps its user count.
  ShardedFixture f = ShardedFixture::Make("wide_dataset", 3);
  const std::vector<std::pair<uint32_t, uint32_t>> extra = {{60, 3}};
  auto wide = std::make_shared<const CsrMatrix>(
      f.train.WithEntries(extra, 61, 30).value());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.manifest_path, wide).ok());
  RequestServer server(&registry);

  auto reply = JsonValue::Parse(
      server.HandleLine(R"({"cmd":"update","adds":[[0,7]]})"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->Find("ok")->boolean())
      << reply->Find("error")->string();
  EXPECT_EQ(reply->Find("shards_touched")->number(), 1.0);
  EXPECT_EQ(reply->Find("users")->number(), 50.0);
  auto after = registry.Get("default");
  EXPECT_EQ(after->num_users(), 50u);
  EXPECT_EQ(after->ExcludeRow(60).size(), 1u);
  f.Cleanup();
}

TEST(DaemonShardedTest, UpdateRepublishesOnlyTheTouchedShard) {
  ShardedFixture f = ShardedFixture::Make("shard_daemon_update", 3);
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.Load("default", f.manifest_path, f.shared_train()).ok());
  RequestServer server(&registry);
  auto before = registry.Get("default");
  // Serving user 20 faults shard 1's rows in; the update must not drop
  // the pages of a member the new generation aliases.
  ASSERT_NE(server.HandleLine(R"({"cmd":"recommend","user":20,"m":3})")
                .find(R"("ok":true)"),
            std::string::npos);
  const ConstMatrixView shard1 = before->binding.shards[1]->user_factors();
  ASSERT_GT(test::PresentPages(shard1.data(), shard1.size() * sizeof(double)),
            0);

  // Adds confined to users {2, 3} — both in shard 0 of the 3-way split.
  auto reply = JsonValue::Parse(server.HandleLine(
      R"({"cmd":"update","adds":[[2,1],[2,5],[3,9]]})"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->Find("ok")->boolean())
      << reply->Find("error")->string();
  EXPECT_EQ(reply->Find("shards_touched")->number(), 1.0);
  EXPECT_EQ(reply->Find("users_refreshed")->number(), 2.0);

  // The republish swapped shard 0 and aliased everything else.
  auto after = registry.Get("default");
  ASSERT_NE(after, before);
  EXPECT_NE(after->binding.shards[0].get(), before->binding.shards[0].get());
  EXPECT_EQ(after->binding.shards[1].get(), before->binding.shards[1].get());
  EXPECT_EQ(after->binding.shards[2].get(), before->binding.shards[2].get());
  EXPECT_EQ(after->binding.items.get(), before->binding.items.get());
  EXPECT_GT(test::PresentPages(shard1.data(), shard1.size() * sizeof(double)),
            0);

  // The touched user's factors actually moved; an untouched user's row in
  // the same shard is bit-identical.
  bool changed = false;
  const auto& old_row = before->binding.shards[0]->user_factors();
  const auto& new_row = after->binding.shards[0]->user_factors();
  for (uint32_t c = 0; c < before->k(); ++c) {
    if (old_row.At(2, c) != new_row.At(2, c)) changed = true;
    ASSERT_EQ(old_row.At(0, c), new_row.At(0, c));
  }
  EXPECT_TRUE(changed);

  // The new set is durable and consistent: a fresh open succeeds.
  auto reopened = OpenShardSet(f.manifest_path);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();

  // Growth is refused with a pointer at the offline reshard path.
  auto grow = JsonValue::Parse(server.HandleLine(
      R"({"cmd":"update","adds":[[50,1]]})"));
  ASSERT_TRUE(grow.ok());
  EXPECT_FALSE(grow->Find("ok")->boolean());
  EXPECT_NE(grow->Find("error")->string().find("reshard offline"),
            std::string::npos);
  f.Cleanup();
}

TEST(DaemonShardedTest, V2SetUpgradesShardByShardAndServesTheOracle) {
  // An earlier release wrote every member as OCLR v2. A sharded update
  // republishes only the touched shard, as v4; the mixed set must reopen
  // in a fresh registry and serve exactly what the offline oracle ranks.
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {2, 1}, {2, 5}, {3, 9}};  // users of shard 0 only
  auto apply_update = [&](const ShardedFixture& f) {
    ModelRegistry registry;
    ASSERT_TRUE(
        registry.Load("default", f.manifest_path, f.shared_train()).ok());
    RequestServer server(&registry);
    auto reply = JsonValue::Parse(server.HandleLine(
        R"({"cmd":"update","adds":[[2,1],[2,5],[3,9]]})"));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->Find("ok")->boolean())
        << reply->Find("error")->string();
    EXPECT_EQ(reply->Find("shards_touched")->number(), 1.0);
  };
  auto member = [](const ShardedFixture& f, int shard) {
    const ShardSetManifest m = LoadShardSetManifest(f.manifest_path).value();
    return ShardSetResolve(f.manifest_path,
                           shard < 0 ? m.items_file : m.shards[shard].file);
  };

  ShardedFixture f = ShardedFixture::Make("upgrade_v2", 3);
  RewriteSetMembers(f.manifest_path, {2, 2, 2, 2});
  apply_update(f);
  EXPECT_EQ(ReadFile(member(f, 0))[4], 4);
  EXPECT_EQ(ReadFile(member(f, 1))[4], 2);
  EXPECT_EQ(ReadFile(member(f, 2))[4], 2);
  EXPECT_EQ(ReadFile(member(f, -1))[4], 2);

  // The republished shard is the one an all-v4 deployment writes.
  ShardedFixture twin = ShardedFixture::Make("upgrade_v4", 3);
  apply_update(twin);
  EXPECT_EQ(ReadFile(member(f, 0)), ReadFile(member(twin, 0)));

  // Oracle: the mixed set gathered offline, ranked under the merged
  // training matrix the update bound.
  auto gathered = LoadModelAuto(f.manifest_path);
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  auto merged = std::make_shared<const CsrMatrix>(
      f.train.WithEntries(adds, 50, 30).value());
  OcularModelRecommender oracle(gathered->model);
  BatchOptions batch;
  batch.m = 5;
  batch.skip_cold_users = false;
  const auto expect =
      RecommendForAllUsers(oracle, *merged, batch).value().recommendations;

  ModelRegistry fresh;
  ASSERT_TRUE(fresh.Load("default", f.manifest_path, merged).ok());
  RequestServer server(&fresh);
  for (uint32_t u = 0; u < 50; ++u) {
    const std::string line = server.HandleLine(
        R"({"cmd":"recommend","user":)" + std::to_string(u) + R"(,"m":5})");
    EXPECT_TRUE(ReplyMatchesRanked(line, expect[u]))
        << "u=" << u << " " << line;
  }
  f.Cleanup();
  twin.Cleanup();
}

// ------------------------------------------- every version, every verb

/// `reply` without what may differ between equal models: a set's
/// `"shard":N,` and an update's `publish_us`.
std::string Comparable(std::string reply) {
  for (size_t at; (at = reply.find("\"shard\":")) != std::string::npos;) {
    reply.erase(at, reply.find(',', at) + 1 - at);
  }
  if (const size_t at = reply.find(",\"publish_us\":");
      at != std::string::npos) {
    reply.erase(at, reply.find_first_of(",}", at + 1) - at);
  }
  return reply;
}

TEST(DaemonVersionsTest, EveryVersionAndMixedSetAnswerEveryVerbAlike) {
  // One model as a v4, v3 and v2 `.oclr`, an all-v4 set and a set whose
  // members mix versions: each binding gets a fold-in context, answers
  // recommend by user and by history, update and reload with the same
  // bytes, and each update rewrites what it touches as v4.
  ShardedFixture f = ShardedFixture::Make("versions", 3);
  const BinaryModelMeta meta = ModelStore::Open(f.mono_path)->meta();
  struct Binding {
    std::string path;
    std::vector<int> members;  // a set's items file and shards, or empty
  };
  const std::vector<Binding> bindings = {
      {TempPath("versions_v4.oclr"), {}},
      {TempPath("versions_v3.oclr"), {}},
      {TempPath("versions_v2.oclr"), {}},
      {TempPath("versions_v4.shardset"), {4, 4, 4, 4}},
      {TempPath("versions_mixed.shardset"), {3, 2, 4, 3}},
  };
  const std::vector<std::string> session = {
      R"({"cmd":"recommend","user":0,"m":5})",
      R"({"cmd":"recommend","user":20,"m":5})",
      R"({"cmd":"recommend","user":49,"m":5})",
      R"({"cmd":"recommend","history":[1,5,9],"m":5})",
      R"({"cmd":"recommend","history":[],"m":5})",
      R"({"cmd":"update","adds":[[2,1],[2,5],[3,9]]})",
      R"({"cmd":"recommend","user":2,"m":5})",
      R"({"cmd":"recommend","history":[1,5,9,12],"m":5})",
      R"({"cmd":"reload"})",
      R"({"cmd":"recommend","user":3,"m":5})",
      R"({"cmd":"recommend","history":[2,4],"m":5})",
  };
  std::vector<std::string> want;
  for (const Binding& b : bindings) {
    SCOPED_TRACE(b.path);
    ShardedFixture::RemoveBinding(b.path);
    if (b.members.empty()) {
      const int version = b.path[b.path.size() - 6] - '0';
      if (version == 4) {
        ASSERT_TRUE(SaveModelBinary(f.model, f.config, b.path).ok());
      } else {
        ASSERT_TRUE(test::WriteOclrV3(b.path, meta, f.model.user_factors(),
                                      f.model.item_factors()));
        if (version == 2) ASSERT_TRUE(test::StampOclrV2(b.path));
      }
      EXPECT_EQ(ReadFile(b.path)[4], version);
    } else {
      const DenseMatrix items_t = TransposedCopy(f.model.item_factors());
      ASSERT_TRUE(SaveModelSharded(meta, f.model.user_factors(), items_t, 3,
                                   b.path)
                      .ok());
      RewriteSetMembers(b.path, b.members);
    }

    ModelRegistry registry;
    ASSERT_TRUE(registry.Load("default", b.path, f.shared_train()).ok());
    ASSERT_NE(registry.Get("default")->fold_in, nullptr);
    RequestServer server(&registry);
    std::vector<std::string> replies;
    for (const std::string& line : session) {
      const std::string reply = server.HandleLine(line);
      EXPECT_NE(reply.find(R"("ok":true)"), std::string::npos)
          << line << " -> " << reply;
      replies.push_back(Comparable(reply));
    }
    ASSERT_NE(registry.Get("default")->fold_in, nullptr);
    if (want.empty()) want = replies;
    for (size_t n = 0; n < session.size(); ++n) {
      EXPECT_EQ(replies[n], want[n]) << session[n];
    }

    // The update touched users 2 and 3, both in shard 0 of a set.
    if (b.members.empty()) {
      EXPECT_EQ(ReadFile(b.path)[4], 4);
    } else {
      const ShardSetManifest m = LoadShardSetManifest(b.path).value();
      EXPECT_EQ(ReadFile(ShardSetResolve(b.path, m.shards[0].file))[4], 4);
      for (size_t n = 0; n < b.members.size(); ++n) {
        if (n == 1) continue;
        const std::string member = ShardSetResolve(
            b.path, n == 0 ? m.items_file : m.shards[n - 1].file);
        EXPECT_EQ(ReadFile(member)[4], b.members[n]) << member;
      }
    }
    ShardedFixture::RemoveBinding(b.path);
  }
  f.Cleanup();
}

}  // namespace
}  // namespace ocular
