// Tests for the binary model format (v4 written, v2 and v3 still read)
// and the mmap-backed zero-copy ModelStore: exact round trips, corruption,
// truncation and section-aliasing rejection, v2 and v3 files serving like
// their v4 twins, v1 -> binary conversion equivalence, serving parity of
// StoreRecommender against the in-memory recommenders (bit-identical),
// the zero-copy guarantee (operator-new byte accounting across
// ModelStore::Open), and the block-by-block checksum pass: which sections
// stay resident after it and after MaterializeOcular (/proc/self/pagemap)
// and corruption at every block edge.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <string>

#include "baselines/wals.h"
#include "core/model_io.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "serving/registry.h"
#include "serving/score_engine.h"
#include "serving/store_recommender.h"
#include "sparse/linalg.h"
#include "test_util.h"

// --------------------------------------------- allocation byte accounting
// Same operator-new hook pattern as tests/perf_kernel_test.cpp and
// tests/score_engine_test.cpp, extended to count BYTES: the zero-copy test
// asserts that opening a megabyte-scale model allocates only header-scale
// heap (the factor matrices stay in the mapping).

namespace {
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A small fitted OCuLaR model + config, deterministic.
struct TrainedModel {
  OcularModel model;
  OcularConfig config;
};

TrainedModel TrainSmallModel(bool use_biases = false, uint64_t seed = 7) {
  OcularConfig cfg;
  cfg.k = 6;
  cfg.lambda = 0.5;
  cfg.max_sweeps = 6;
  cfg.seed = seed;
  cfg.use_biases = use_biases;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(test::RandomCsr(60, 40, 600, seed)).value();
  return {std::move(fit.model), cfg};
}

bool SameMatrix(ConstMatrixView view, const DenseMatrix& m) {
  return view.rows() == m.rows() && view.cols() == m.cols() &&
         std::memcmp(view.data(), m.data(), m.size() * sizeof(double)) == 0;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Section table of docs/MODEL_FORMAT.md: entry i at 64 + 32 i holds the
// kind (+0), offset (+8), length (+16) and checksum (+24). Writers emit
// the entries in kind order.
size_t EntryField(uint32_t kind, size_t field) {
  return 64 + 32 * kind + field;
}

uint64_t GetU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void SetU64(std::string* bytes, size_t at, uint64_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

/// Flips the first and the last byte of every non-empty section of the
/// file at `path` (all three in a v2 or v3 file, the users and Vᵀ in a
/// v4 file), one at a time: each flip must fail the open with a
/// ParseError naming that section.
void ExpectEverySectionFlipRejected(const std::string& path) {
  const std::string good = ReadBytes(path);
  const bool row_major_items = good[4] < 4;
  for (uint32_t kind = 0; kind < 3; ++kind) {
    const uint64_t offset = GetU64(good, EntryField(kind, 8));
    const uint64_t length = GetU64(good, EntryField(kind, 16));
    ASSERT_EQ(length > 0, kind != 1 || row_major_items) << "kind " << kind;
    if (length == 0) continue;
    for (const uint64_t at : {offset, offset + length - 1}) {
      std::string flipped = good;
      flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
      WriteBytes(path, flipped);
      const Status st = ModelStore::Open(path).status();
      EXPECT_TRUE(st.IsParseError()) << "byte " << at;
      EXPECT_NE(st.ToString().find("section " + std::to_string(kind)),
                std::string::npos)
          << st.ToString();
    }
  }
  WriteBytes(path, good);
}

TEST(ModelStoreTest, BinaryRoundTripIsExact) {
  TrainedModel t = TrainSmallModel();
  const std::string path = TempPath("round_trip.oclr");
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, path).ok());
  ASSERT_TRUE(IsBinaryModelFile(path));

  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->num_users(), t.model.num_users());
  EXPECT_EQ(store->num_items(), t.model.num_items());
  EXPECT_EQ(store->k(), t.model.k());
  EXPECT_EQ(store->meta().kind, BinaryModelKind::kOcularProbability);
  EXPECT_EQ(store->meta().algorithm, "OCuLaR");
  EXPECT_DOUBLE_EQ(store->meta().lambda, t.config.lambda);
  EXPECT_FALSE(store->meta().use_biases);
  EXPECT_FALSE(store->meta().relative_variant);

  EXPECT_TRUE(SameMatrix(store->user_factors(), t.model.user_factors()));
  // The serving-layout section equals the in-memory transposed copy the
  // recommenders build — the basis of bit-identical serving.
  EXPECT_TRUE(SameMatrix(store->item_factors_t(),
                         TransposedCopy(t.model.item_factors())));
  // v4: the users, an empty row-major item section, then Vᵀ, which ends
  // the file.
  const std::string bytes = ReadBytes(path);
  EXPECT_EQ(bytes[4], 4) << "writers emit v4";
  const size_t user_bytes = t.model.user_factors().size() * sizeof(double);
  const size_t vt_offset = (192 + user_bytes + 63) / 64 * 64;
  EXPECT_EQ(GetU64(bytes, EntryField(0, 8)), 192u);
  EXPECT_EQ(GetU64(bytes, EntryField(1, 8)), vt_offset);
  EXPECT_EQ(GetU64(bytes, EntryField(1, 16)), 0u);
  EXPECT_EQ(GetU64(bytes, EntryField(2, 8)), vt_offset);
  EXPECT_EQ(bytes.size(),
            vt_offset + t.model.item_factors().size() * sizeof(double));
  std::remove(path.c_str());
}

TEST(ModelStoreTest, BiasAndRelativeVariantSurviveTheHeader) {
  TrainedModel t = TrainSmallModel(/*use_biases=*/true);
  t.config.variant = OcularVariant::kRelative;
  const std::string path = TempPath("bias_model.oclr");
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, path).ok());
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->meta().use_biases);
  EXPECT_TRUE(store->meta().relative_variant);
  EXPECT_EQ(store->meta().algorithm, "R-OCuLaR");
  EXPECT_EQ(store->k(), t.config.TotalDims());

  auto loaded = store->MaterializeOcular();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->config.k, t.config.k);
  EXPECT_TRUE(loaded->config.use_biases);
  EXPECT_EQ(loaded->config.variant, OcularVariant::kRelative);
  EXPECT_EQ(loaded->model.user_factors(), t.model.user_factors());
  EXPECT_EQ(loaded->model.item_factors(), t.model.item_factors());
  std::remove(path.c_str());
}

TEST(ModelStoreTest, StoreServingIsBitIdenticalToInMemory) {
  TrainedModel t = TrainSmallModel();
  const CsrMatrix train = test::RandomCsr(60, 40, 600, 7);
  const std::string path = TempPath("parity.oclr");
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, path).ok());
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok());

  OcularModelRecommender memory_rec(t.model);
  StoreRecommender store_rec(*store);
  ASSERT_EQ(store_rec.name(), "OCuLaR");
  ASSERT_EQ(store_rec.num_users(), memory_rec.num_users());
  ASSERT_EQ(store_rec.num_items(), memory_rec.num_items());

  // Per-pair and blocked scores: exactly equal, not just close.
  std::vector<double> mem_tile(store_rec.num_items());
  std::vector<double> store_tile(store_rec.num_items());
  for (uint32_t u = 0; u < store_rec.num_users(); ++u) {
    memory_rec.ScoreBlock(u, 0, memory_rec.num_items(), mem_tile);
    store_rec.ScoreBlock(u, 0, store_rec.num_items(), store_tile);
    for (uint32_t i = 0; i < store_rec.num_items(); ++i) {
      ASSERT_EQ(mem_tile[i], store_tile[i]) << "u=" << u << " i=" << i;
      ASSERT_EQ(memory_rec.Score(u, i), store_rec.Score(u, i));
    }
  }

  // Served rankings: identical items AND scores.
  ServeOptions options;
  options.m = 10;
  ServeWorkspace mem_ws, store_ws;
  mem_ws.Reserve(options.m, options.block_items);
  store_ws.Reserve(options.m, options.block_items);
  for (uint32_t u = 0; u < store_rec.num_users(); ++u) {
    auto mem_top = ServeTopM(memory_rec, u, train.Row(u), options, &mem_ws);
    auto store_top =
        ServeTopM(store_rec, u, train.Row(u), options, &store_ws);
    ASSERT_EQ(mem_top.size(), store_top.size()) << "u=" << u;
    for (size_t r = 0; r < mem_top.size(); ++r) {
      ASSERT_EQ(mem_top[r].item, store_top[r].item) << "u=" << u;
      ASSERT_EQ(mem_top[r].score, store_top[r].score) << "u=" << u;
    }
  }
  std::remove(path.c_str());
}

TEST(ModelStoreTest, TextToBinaryConversionIsEquivalent) {
  TrainedModel t = TrainSmallModel();
  const std::string text_path = TempPath("convert.txt");
  const std::string bin_path = TempPath("convert.oclr");
  ASSERT_TRUE(SaveModel(t.model, t.config, text_path).ok());
  ASSERT_TRUE(ConvertTextModelToBinary(text_path, bin_path).ok());

  auto from_text = LoadModel(text_path);
  auto store = ModelStore::Open(bin_path);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(store.ok());
  // "%.17g" text round-trips doubles exactly, so text -> binary equals the
  // original model bit for bit.
  EXPECT_TRUE(
      SameMatrix(store->user_factors(), from_text->model.user_factors()));
  EXPECT_TRUE(SameMatrix(store->item_factors_t(),
                         TransposedCopy(from_text->model.item_factors())));
  EXPECT_TRUE(SameMatrix(store->user_factors(), t.model.user_factors()));

  // LoadModelAuto sniffs both formats and agrees with itself.
  auto auto_text = LoadModelAuto(text_path);
  auto auto_bin = LoadModelAuto(bin_path);
  ASSERT_TRUE(auto_text.ok());
  ASSERT_TRUE(auto_bin.ok());
  EXPECT_EQ(auto_text->model.user_factors(), auto_bin->model.user_factors());
  EXPECT_EQ(auto_text->model.item_factors(), auto_bin->model.item_factors());
  EXPECT_EQ(auto_text->config.k, auto_bin->config.k);
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(ModelStoreTest, RejectsForeignAndTruncatedFiles) {
  const std::string path = TempPath("bad.oclr");
  // Not a model file at all.
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a model";
  }
  EXPECT_TRUE(ModelStore::Open(path).status().IsParseError());

  // A valid file truncated at various points.
  TrainedModel t = TrainSmallModel();
  const std::string good_path = TempPath("good.oclr");
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, good_path).ok());
  const std::string bytes = ReadBytes(good_path);
  for (size_t keep : {size_t{10}, size_t{100}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteBytes(path, bytes.substr(0, keep));
    EXPECT_TRUE(ModelStore::Open(path).status().IsParseError())
        << "truncated to " << keep << " of " << bytes.size() << " bytes";
  }

  // Versions this build does not read: the past ones before v2 and the
  // unsupported future. The version picks the checksum hash, so an
  // unknown one cannot be verified and is refused.
  for (const uint32_t version : {0u, 1u, 5u, UINT32_MAX}) {
    std::string other = bytes;
    std::memcpy(&other[4], &version, sizeof(version));
    WriteBytes(path, other);
    const Status st = ModelStore::Open(path).status();
    EXPECT_TRUE(st.IsParseError()) << "version " << version;
    EXPECT_NE(st.ToString().find("this build reads 2, 3 and 4"),
              std::string::npos)
        << st.ToString();
  }

  // A section aliasing the header, which would serve the header bytes as
  // user factors: refused before any section is hashed.
  {
    std::string aliased = bytes;
    SetU64(&aliased, EntryField(0, 8), 0);
    WriteBytes(path, aliased);
    const Status st = ModelStore::Open(path).status();
    EXPECT_TRUE(st.IsParseError()) << st.ToString();
    EXPECT_NE(st.ToString().find("section 0 starts inside the header"),
              std::string::npos)
        << st.ToString();
  }

  // items_t pointed at the row-major items of a v3 file, its checksum
  // restamped to match: every checksum verifies, but the kernel's Vᵀ
  // operand would not be the transpose.
  {
    ASSERT_TRUE(test::WriteOclrV3(path, ModelStore::Open(good_path)->meta(),
                                  t.model.user_factors(),
                                  t.model.item_factors()));
    const std::string v3 = ReadBytes(path);
    std::string aliased = v3;
    SetU64(&aliased, EntryField(2, 8), GetU64(v3, EntryField(1, 8)));
    SetU64(&aliased, EntryField(2, 24), GetU64(v3, EntryField(1, 24)));
    WriteBytes(path, aliased);
    const Status st = ModelStore::Open(path).status();
    EXPECT_TRUE(st.IsParseError()) << st.ToString();
    EXPECT_NE(st.ToString().find("sections 1 and 2 overlap"),
              std::string::npos)
        << st.ToString();

    // The same v3 bytes stamped v4: a v4 file's row-major section must be
    // empty, whatever its checksum says.
    std::string stamped = v3;
    const uint32_t v4 = 4;
    std::memcpy(&stamped[4], &v4, sizeof(v4));
    WriteBytes(path, stamped);
    const Status refused = ModelStore::Open(path).status();
    EXPECT_TRUE(refused.IsParseError()) << refused.ToString();
    EXPECT_NE(refused.ToString().find(
                  "section 1 (row-major item factors) is not part of a v4 "
                  "file"),
              std::string::npos)
        << refused.ToString();
  }

  // Hostile header: dimensions whose byte product would wrap a size_t
  // (n_u = 2^30, k = 2^31 -> 2^64 bytes) must be rejected up front, not
  // pass the per-section length checks via overflow.
  {
    std::string hostile = bytes;
    const uint32_t huge_k = 1u << 31;
    const uint32_t huge_users = 1u << 30;
    std::memcpy(&hostile[16], &huge_k, sizeof(huge_k));
    std::memcpy(&hostile[20], &huge_users, sizeof(huge_users));
    WriteBytes(path, hostile);
  }
  EXPECT_TRUE(ModelStore::Open(path).status().IsParseError());

  // Missing file -> IOError, not ParseError.
  EXPECT_TRUE(ModelStore::Open("/nonexistent/model.oclr").status().IsIOError());
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

TEST(ModelStoreTest, ChecksumMismatchIsDetected) {
  TrainedModel t = TrainSmallModel();
  const std::string path = TempPath("corrupt.oclr");
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, path).ok());

  // Flip one byte deep inside a factor section.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-17, std::ios::end);
    char b;
    f.read(&b, 1);
    f.seekp(-17, std::ios::end);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  // Every open verifies the checksums and rejects.
  EXPECT_TRUE(ModelStore::Open(path).status().IsParseError());

  // Every byte of every section is covered, both ends included: the v4
  // file's two, and all three of a v3 file, its row-major items too.
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, path).ok());
  ExpectEverySectionFlipRejected(path);
  ASSERT_TRUE(test::WriteOclrV3(path, ModelStore::Open(path)->meta(),
                                t.model.user_factors(),
                                t.model.item_factors()));
  ExpectEverySectionFlipRejected(path);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, Version2And3FilesOpenAndServeLikeTheirV4Twin) {
  // Earlier releases wrote v2 (FNV-1a checksums) and v3 (XXH64), both
  // with the row-major item section: their artifacts must keep opening,
  // verifying and serving after the upgrade.
  TrainedModel t = TrainSmallModel();
  const CsrMatrix train = test::RandomCsr(60, 40, 600, 7);
  const std::string v4_path = TempPath("twin_v4.oclr");
  const std::string v3_path = TempPath("twin_v3.oclr");
  const std::string v2_path = TempPath("twin_v2.oclr");
  ASSERT_TRUE(SaveModelBinary(t.model, t.config, v4_path).ok());
  const BinaryModelMeta meta = ModelStore::Open(v4_path)->meta();
  ASSERT_TRUE(test::WriteOclrV3(v3_path, meta, t.model.user_factors(),
                                t.model.item_factors()));
  ASSERT_TRUE(test::WriteOclrV3(v2_path, meta, t.model.user_factors(),
                                t.model.item_factors()));
  ASSERT_TRUE(test::StampOclrV2(v2_path));

  // v2 and v3 share a layout; only the version and checksums differ. v4
  // holds the same user and Vᵀ bytes with an empty section 1 between.
  const std::string v4_bytes = ReadBytes(v4_path);
  const std::string v3_bytes = ReadBytes(v3_path);
  const std::string v2_bytes = ReadBytes(v2_path);
  EXPECT_EQ(v3_bytes[4], 3);
  EXPECT_EQ(v2_bytes[4], 2);
  ASSERT_EQ(v2_bytes.size(), v3_bytes.size());
  for (uint32_t kind = 0; kind < 3; ++kind) {
    EXPECT_EQ(GetU64(v2_bytes, EntryField(kind, 8)),
              GetU64(v3_bytes, EntryField(kind, 8)));
    EXPECT_NE(GetU64(v2_bytes, EntryField(kind, 24)),
              GetU64(v3_bytes, EntryField(kind, 24)));
  }
  EXPECT_EQ(v2_bytes.substr(192), v3_bytes.substr(192));
  for (const uint32_t kind : {0u, 2u}) {
    EXPECT_EQ(GetU64(v4_bytes, EntryField(kind, 16)),
              GetU64(v3_bytes, EntryField(kind, 16)));
    EXPECT_EQ(GetU64(v4_bytes, EntryField(kind, 24)),
              GetU64(v3_bytes, EntryField(kind, 24)));
  }
  EXPECT_EQ(v4_bytes.size() + t.model.item_factors().size() * sizeof(double),
            v3_bytes.size());

  auto v4 = ModelStore::Open(v4_path);
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  StoreRecommender v4_rec(*v4);
  ServeOptions options;
  options.m = 10;
  for (const std::string& old_path : {v3_path, v2_path}) {
    SCOPED_TRACE(old_path);
    auto old_store = ModelStore::Open(old_path);
    ASSERT_TRUE(old_store.ok()) << old_store.status().ToString();
    EXPECT_TRUE(
        SameMatrix(old_store->user_factors(), t.model.user_factors()));
    EXPECT_TRUE(SameMatrix(old_store->item_factors_t(),
                           TransposedCopy(t.model.item_factors())));
    StoreRecommender old_rec(*old_store);
    ServeWorkspace old_ws, v4_ws;
    old_ws.Reserve(options.m, options.block_items);
    v4_ws.Reserve(options.m, options.block_items);
    for (uint32_t u = 0; u < v4_rec.num_users(); ++u) {
      auto from_old = ServeTopM(old_rec, u, train.Row(u), options, &old_ws);
      auto from_v4 = ServeTopM(v4_rec, u, train.Row(u), options, &v4_ws);
      ASSERT_EQ(from_old.size(), from_v4.size()) << "u=" << u;
      for (size_t r = 0; r < from_old.size(); ++r) {
        ASSERT_EQ(from_old[r].item, from_v4[r].item) << "u=" << u;
        ASSERT_EQ(from_old[r].score, from_v4[r].score) << "u=" << u;
      }
    }
    auto loaded = old_store->MaterializeOcular();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->model.item_factors(), t.model.item_factors());
    // Their checksums still guard every section, the row-major items too.
    ExpectEverySectionFlipRejected(old_path);
  }
  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(v4_path.c_str());
}

TEST(ModelStoreTest, OpenIsZeroCopy) {
  // Large enough that an accidental factor copy dwarfs the bound: two
  // sections of 2000x32 and 32x1200 doubles ~= 0.8 MB.
  OcularConfig cfg;
  cfg.k = 32;
  cfg.lambda = 1.0;
  Rng rng = test::MakeRng();
  DenseMatrix fu(2000, 32), fi(1200, 32);
  fu.FillUniform(&rng, 0.0, 1.0);
  fi.FillUniform(&rng, 0.0, 1.0);
  OcularModel model(std::move(fu), std::move(fi));
  const std::string path = TempPath("zero_copy.oclr");
  ASSERT_TRUE(SaveModelBinary(model, cfg, path).ok());

  const uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  auto store = ModelStore::Open(path);  // checksum verify on: reads, no copies
  const uint64_t allocated =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const size_t factor_bytes =
      (model.user_factors().size() + model.item_factors().size()) *
      sizeof(double);
  ASSERT_GT(factor_bytes, 800000u);
  // O(header) heap: path strings and the Result plumbing, nowhere near a
  // factor section. (A single copied matrix would trip this by 10x+.)
  EXPECT_LT(allocated, 64 * 1024u)
      << "ModelStore::Open allocated " << allocated
      << " bytes for a model with " << factor_bytes << " factor bytes";

  // Serving out of the store allocates nothing once the workspace is warm.
  StoreRecommender rec(*store);
  ServeOptions options;
  options.m = 10;
  ServeWorkspace ws;
  ws.Reserve(options.m, options.block_items);
  (void)ServeTopM(rec, 0, {}, options, &ws);  // warm-up
  const uint64_t serve_before = g_alloc_bytes.load(std::memory_order_relaxed);
  for (uint32_t u = 1; u < 40; ++u) {
    (void)ServeTopM(rec, u, {}, options, &ws);
  }
  EXPECT_EQ(g_alloc_bytes.load(std::memory_order_relaxed), serve_before)
      << "steady-state mmap serving must not allocate";
  std::remove(path.c_str());
}

// ------------------------------------------- residency and block edges

/// A store at K = 64, by default 9 MiB as v4: 2048 users x 16384 items,
/// so the user section spans several kVerifyBlockBytes blocks and Vᵀ is
/// 8 MiB (a v3 file adds 8 MiB of row-major items).
struct LargeStore {
  DenseMatrix users;
  DenseMatrix items;
  std::string path;

  explicit LargeStore(const std::string& name, uint32_t num_users = 2048,
                      uint32_t num_items = 16384)
      : users(num_users, 64), items(num_items, 64), path(TempPath(name)) {
    OcularConfig cfg;
    cfg.k = 64;
    cfg.lambda = 1.0;
    Rng rng = test::MakeRng();
    users.FillUniform(&rng, 0.0, 1.0);
    items.FillUniform(&rng, 0.0, 1.0);
    EXPECT_TRUE(SaveModelBinary(OcularModel(users, items), cfg, path).ok());
  }
  ~LargeStore() { std::remove(path.c_str()); }

  /// Rewrites the file as the v3 (or, stamped, v2) artifact of the same
  /// factors.
  void WriteOldVersion(bool v2) const {
    BinaryModelMeta meta;
    meta.k = 64;
    meta.lambda = 1.0;
    ASSERT_TRUE(test::WriteOclrV3(path, meta, users, items));
    if (v2) ASSERT_TRUE(test::StampOclrV2(path));
  }
};

long PresentPages(ConstMatrixView view) {
  return test::PresentPages(view.data(), view.size() * sizeof(double));
}

long SpannedPages(ConstMatrixView view) {
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(view.data());
  const uintptr_t end = begin + view.size() * sizeof(double);
  return static_cast<long>((end + page - 1) / page - begin / page);
}

/// The pages of `store`'s mapping present between its user factors and
/// Vᵀ, the ones neither touches: where a v2 or v3 file keeps its
/// row-major item section (none in a v4 file, whose Vᵀ follows the users).
long PresentBetweenServingSections(const ModelStore& store) {
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const ConstMatrixView users = store.user_factors();
  const uintptr_t begin =
      (reinterpret_cast<uintptr_t>(users.data() + users.size()) + page - 1) /
      page * page;
  const uintptr_t end =
      reinterpret_cast<uintptr_t>(store.item_factors_t().data()) / page * page;
  if (end <= begin) return 0;
  return test::PresentPages(reinterpret_cast<const void*>(begin), end - begin);
}

/// What serving needs resident after a verifying open: every page of the
/// user factors and of Vᵀ, and at most one block plus 2 MiB of a v2 or v3
/// file's row-major item section (fault-around may map a few of its pages
/// back).
void ExpectServingSectionsResident(const ModelStore& store) {
  const long page = ::sysconf(_SC_PAGESIZE);
  const long rest = PresentBetweenServingSections(store);
  ASSERT_GE(rest, 0) << "cannot read /proc/self/pagemap";
  EXPECT_LE(rest, static_cast<long>((kVerifyBlockBytes + (2u << 20)) / page))
      << "row-major item pages are resident";
  EXPECT_EQ(PresentPages(store.user_factors()),
            SpannedPages(store.user_factors()));
  EXPECT_EQ(PresentPages(store.item_factors_t()),
            SpannedPages(store.item_factors_t()));
}

TEST(ModelStoreTest, VerifiedOpenLeavesAtMostOneBlockResident) {
  const LargeStore large("resident.oclr");
  const long block_pages =
      static_cast<long>(kVerifyBlockBytes) / ::sysconf(_SC_PAGESIZE);
  for (const bool v3 : {false, true}) {
    SCOPED_TRACE(v3 ? "v3" : "v4");
    if (v3) large.WriteOldVersion(/*v2=*/false);
    auto store = ModelStore::Open(large.path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_GE(store->mapped_bytes(), v3 ? 16u << 20 : 8u << 20);
    ASSERT_GE(store->user_factors().size() * sizeof(double),
              4 * kVerifyBlockBytes);
    for (const ConstMatrixView section :
         {store->user_factors(), store->item_factors_t()}) {
      const long present = PresentPages(section);
      ASSERT_GE(present, 0) << "cannot read /proc/self/pagemap";
      EXPECT_LE(present, block_pages)
          << "of " << SpannedPages(section) << " pages are resident";
    }
    EXPECT_LE(PresentBetweenServingSections(*store), block_pages);
    // Every dropped page faults back in with the file's bytes.
    EXPECT_TRUE(SameMatrix(store->user_factors(), large.users));
    const DenseMatrix items_t = TransposedCopy(large.items);
    EXPECT_TRUE(SameMatrix(store->item_factors_t(), items_t));
    for (const ConstMatrixView section :
         {store->user_factors(), store->item_factors_t()}) {
      EXPECT_EQ(PresentPages(section), SpannedPages(section));
    }
  }
}

TEST(ModelStoreTest, RegistryLoadAndStoredUserServingLeaveItemRowsCold) {
  const LargeStore large("registry_resident.oclr");
  const auto train = std::make_shared<const CsrMatrix>(
      test::RandomCsr(2048, 16384, 20000, 5));
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", large.path, train).ok());
  const std::shared_ptr<const ServableModel> servable = registry.Get("m");
  ASSERT_NE(servable, nullptr);
  ASSERT_NE(servable->fold_in, nullptr);
  ServeOptions options;
  options.m = 10;
  ServeWorkspace ws;
  ws.Reserve(options.m, options.block_items);
  for (uint32_t u = 0; u < servable->num_users(); ++u) {
    ASSERT_EQ(ServeTopM(*servable->recommender, u, servable->ExcludeRow(u),
                        options, &ws)
                  .size(),
              options.m);
  }
  ExpectServingSectionsResident(servable->store);
}

TEST(ModelStoreTest, AReplacedGenerationGivesBackItsPagesAndStillServes) {
  // A request that leased the old generation before a swap keeps serving
  // from it, but the old mapping is not left resident beside the new one:
  // the swap drops its pages, and a read faults back only what it needs.
  const LargeStore large("retire.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", large.path).ok());
  const std::shared_ptr<const ServableModel> old_gen = registry.Get("m");
  ServeOptions options;
  options.m = 10;
  ServeWorkspace ws;
  ws.Reserve(options.m, options.block_items, 0, old_gen->num_items());
  const auto served = ServeTopM(*old_gen->recommender, 7, {}, options, &ws);
  const std::vector<ScoredItem> before(served.begin(), served.end());
  ASSERT_EQ(PresentPages(old_gen->store.item_factors_t()),
            SpannedPages(old_gen->store.item_factors_t()));

  ASSERT_TRUE(registry.Load("m", large.path).ok());
  ASSERT_NE(registry.Get("m"), old_gen);
  EXPECT_EQ(PresentPages(old_gen->store.user_factors()), 0);
  EXPECT_EQ(PresentPages(old_gen->store.item_factors_t()), 0);
  const auto after = ServeTopM(*old_gen->recommender, 7, {}, options, &ws);
  ASSERT_EQ(after.size(), before.size());
  for (size_t n = 0; n < before.size(); ++n) EXPECT_EQ(after[n], before[n]);
}

TEST(ModelStoreTest, MaterializeReadsVtAndLeavesItemRowsCold) {
  const LargeStore large("materialize_resident.oclr");
  for (const int version : {4, 3, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    if (version < 4) large.WriteOldVersion(/*v2=*/version == 2);
    auto store = ModelStore::Open(large.path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto loaded = store->MaterializeOcular();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // The item rows come from Vᵀ: a v2 or v3 file's row-major pages stay
    // dropped, and the copy is the saved model bit for bit.
    ExpectServingSectionsResident(*store);
    EXPECT_TRUE(SameMatrix(large.users, loaded->model.user_factors()));
    EXPECT_TRUE(SameMatrix(large.items, loaded->model.item_factors()));
  }
}

TEST(ModelStoreTest, EveryBlockEdgeFlipIsRejected) {
  // 256 KiB of users and 1 MiB per item section: every section spans
  // several blocks, and each open hashes 1.3 MiB (2.3 MiB in v2 and v3).
  const LargeStore large("block_edges.oclr", 512, 2048);
  for (const int version : {4, 3, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    if (version < 4) large.WriteOldVersion(/*v2=*/version == 2);
    std::string table(192, '\0');
    {
      std::ifstream in(large.path, std::ios::binary);
      in.read(table.data(), static_cast<std::streamsize>(table.size()));
    }
    size_t edges = 0;
    for (uint32_t kind = 0; kind < 3; ++kind) {
      const uint64_t offset = GetU64(table, EntryField(kind, 8));
      const uint64_t end = offset + GetU64(table, EntryField(kind, 16));
      for (uint64_t edge = (offset / kVerifyBlockBytes + 1) * kVerifyBlockBytes;
           edge < end; edge += kVerifyBlockBytes) {
        ++edges;
        for (const uint64_t at : {edge - 1, edge}) {
          std::fstream f(large.path,
                         std::ios::binary | std::ios::in | std::ios::out);
          char byte = 0;
          f.seekg(static_cast<std::streamoff>(at));
          f.read(&byte, 1);
          const char flipped = static_cast<char>(byte ^ 0x01);
          f.seekp(static_cast<std::streamoff>(at));
          f.write(&flipped, 1);
          f.flush();
          const Status st = ModelStore::Open(large.path).status();
          EXPECT_TRUE(st.IsParseError()) << "byte " << at;
          EXPECT_NE(st.ToString().find("section " + std::to_string(kind)),
                    std::string::npos)
              << st.ToString();
          f.seekp(static_cast<std::streamoff>(at));
          f.write(&byte, 1);
        }
      }
    }
    // Each section starts just past a block edge.
    const size_t item_sections = version < 4 ? 2 : 1;
    EXPECT_EQ(edges, ((256u << 10) + item_sections * (1u << 20)) /
                         kVerifyBlockBytes)
        << "one per block of every section";
    EXPECT_TRUE(ModelStore::Open(large.path).ok());
  }
}

TEST(ModelStoreTest, BaselineFactorsServeThroughTheSameStore) {
  const CsrMatrix train = test::TinyBlocksCsr();
  WalsConfig cfg;
  cfg.k = 4;
  cfg.iterations = 3;
  WalsRecommender wals(cfg);
  ASSERT_TRUE(wals.Fit(train).ok());

  const std::string path = TempPath("wals.oclr");
  ASSERT_TRUE(wals.SaveBinary(path).ok());
  auto store = ModelStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->meta().kind, BinaryModelKind::kDotProduct);
  EXPECT_EQ(store->meta().algorithm, "wALS");

  StoreRecommender store_rec(*store);
  EXPECT_EQ(store_rec.name(), "wALS");
  ServeOptions options;
  options.m = 5;
  ServeWorkspace ws_a, ws_b;
  ws_a.Reserve(options.m, options.block_items);
  ws_b.Reserve(options.m, options.block_items);
  for (uint32_t u = 0; u < wals.num_users(); ++u) {
    auto direct = ServeTopM(wals, u, train.Row(u), options, &ws_a);
    auto mapped = ServeTopM(store_rec, u, train.Row(u), options, &ws_b);
    ASSERT_EQ(direct.size(), mapped.size());
    for (size_t r = 0; r < direct.size(); ++r) {
      EXPECT_EQ(direct[r].item, mapped[r].item);
      EXPECT_EQ(direct[r].score, mapped[r].score);
    }
  }
  // Dot-product models cannot materialize as OCuLaR.
  EXPECT_TRUE(store->MaterializeOcular().status().IsFailedPrecondition());
  std::remove(path.c_str());
}

TEST(ModelStoreTest, SaveValidation) {
  TrainedModel t = TrainSmallModel();
  // Config/model dim mismatch (lost use_biases flag) is rejected.
  OcularConfig wrong = t.config;
  wrong.k = t.config.k + 1;
  EXPECT_TRUE(SaveModelBinary(t.model, wrong, TempPath("never.oclr"))
                  .IsInvalidArgument());
  // Overlong algorithm tag.
  BinaryModelMeta meta;
  meta.k = 2;
  meta.algorithm = "a-very-long-algorithm-tag";
  EXPECT_TRUE(SaveFactorsBinary(meta, DenseMatrix(2, 2, 0.5),
                                DenseMatrix(2, 2, 0.5), TempPath("never.oclr"))
                  .IsInvalidArgument());
  // Factor/k mismatch.
  meta.algorithm = "x";
  meta.k = 3;
  EXPECT_TRUE(SaveFactorsBinary(meta, DenseMatrix(2, 2, 0.5),
                                DenseMatrix(2, 2, 0.5), TempPath("never.oclr"))
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ocular
