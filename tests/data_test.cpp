// Unit tests for src/data: dataset, loaders (with failure injection),
// splitters, synthetic generators.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/strings.h"
#include "data/dataset.h"
#include "data/loaders.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "sparse/coo.h"
#include "test_util.h"

// Same pattern as tests/score_engine_test.cpp, tracking live bytes instead
// of counting calls: every global operator new adds the block's usable
// size, every delete takes it back, and the high-water mark is kept. The
// loader memory test bounds the peak of one LoadCsv call.
namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* TrackedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const auto usable = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_live_bytes.fetch_add(usable) + usable;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void TrackedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return TrackedAlloc(size); }
void* operator new[](std::size_t size) { return TrackedAlloc(size); }
void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedFree(p); }

namespace ocular {
namespace {

/// Writes `content` to a unique temp file; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "/ocular_data_test_" +
            std::to_string(counter++) + ".txt";
    std::ofstream out(path_);
    out << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, LabelsAndSummary) {
  CsrMatrix m = CsrMatrix::FromPairs({{0, 1}, {1, 0}}, 2, 2).value();
  Dataset ds("demo", m);
  EXPECT_EQ(ds.UserLabel(0), "user 0");
  EXPECT_EQ(ds.ItemLabel(1), "item 1");
  ds.set_user_labels({"Alice", "Bob"});
  ds.set_item_labels({"Hammer", "Nails"});
  EXPECT_EQ(ds.UserLabel(1), "Bob");
  EXPECT_EQ(ds.ItemLabel(0), "Hammer");
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_NE(ds.Summary().find("demo"), std::string::npos);
  EXPECT_NE(ds.Summary().find("2 users"), std::string::npos);
}

TEST(DatasetTest, ValidateRejectsLabelMismatch) {
  CsrMatrix m = CsrMatrix::FromPairs({{0, 1}}, 2, 2).value();
  Dataset ds("bad", m);
  ds.set_user_labels({"only-one"});
  EXPECT_TRUE(ds.Validate().IsInvalidArgument());
}

// --------------------------------------------------------------- Loaders

TEST(LoadersTest, MovieLens100KThresholdAndCompaction) {
  TempFile f(
      "10\t100\t5\t881250949\n"
      "10\t200\t2\t881250950\n"   // below threshold -> dropped
      "20\t100\t3\t881250951\n"
      "20\t300\t4\t881250952\n");
  auto ds = LoadMovieLens100K(f.path()).value();
  EXPECT_EQ(ds.num_users(), 2u);   // ids 10, 20 compacted
  EXPECT_EQ(ds.num_items(), 2u);   // items 100, 300 (200 dropped entirely)
  EXPECT_EQ(ds.num_interactions(), 3u);
}

TEST(LoadersTest, MovieLens1MFormat) {
  TempFile f(
      "1::1193::5::978300760\n"
      "1::661::3::978302109\n"
      "2::1193::1::978298413\n");
  auto ds = LoadMovieLens1M(f.path()).value();
  EXPECT_EQ(ds.num_users(), 1u);  // user 2's only rating is below threshold
  EXPECT_EQ(ds.num_interactions(), 2u);
}

TEST(LoadersTest, NetflixPerMovieFormat) {
  TempFile f(
      "1:\n"
      "6,3,2005-09-06\n"
      "7,5,2005-05-13\n"
      "8,2,2005-10-19\n"
      "2:\n"
      "6,4,2005-09-06\n");
  auto ds = LoadNetflix({f.path()}).value();
  EXPECT_EQ(ds.num_interactions(), 3u);  // user 8 dropped (rating 2)
  EXPECT_EQ(ds.num_users(), 2u);
  EXPECT_EQ(ds.num_items(), 2u);
}

TEST(LoadersTest, NetflixRejectsRatingBeforeHeader) {
  TempFile f("6,3,2005-09-06\n");
  EXPECT_TRUE(LoadNetflix({f.path()}).status().IsParseError());
}

TEST(LoadersTest, CsvPairsWithComments) {
  TempFile f(
      "# comment line\n"
      "0 5\n"
      "1 5\n"
      "1 6\n");
  CsvOptions opts;
  opts.compact_ids = false;
  auto ds = LoadCsv(f.path(), opts).value();
  EXPECT_EQ(ds.num_users(), 2u);
  EXPECT_EQ(ds.num_items(), 7u);  // raw ids preserved
  EXPECT_EQ(ds.num_interactions(), 3u);
  EXPECT_TRUE(ds.interactions().HasEntry(1, 6));
}

TEST(LoadersTest, CsvLinePerUserCiteULikeStyle) {
  // First token = item count (CiteULike users.dat convention).
  TempFile f(
      "2 13 17\n"
      "1 5\n"
      "3 1 2 3\n");
  CsvOptions opts;
  opts.line_per_user = true;
  auto ds = LoadCsv(f.path(), opts).value();
  EXPECT_EQ(ds.num_users(), 3u);
  EXPECT_EQ(ds.num_interactions(), 6u);
  EXPECT_TRUE(ds.interactions().HasEntry(0, 13));
  EXPECT_TRUE(ds.interactions().HasEntry(2, 3));
}

TEST(LoadersTest, CsvWithRatingColumn) {
  TempFile f(
      "0,10,4.0\n"
      "0,11,2.0\n"
      "1,10,3.0\n");
  CsvOptions opts;
  opts.delimiter = ',';
  opts.rating_column = 2;
  auto ds = LoadCsv(f.path(), opts).value();
  EXPECT_EQ(ds.num_interactions(), 2u);  // 2.0 dropped
}

TEST(LoadersTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadMovieLens100K("/nonexistent/file").status().IsIOError());
  EXPECT_TRUE(LoadCsv("/nonexistent/file").status().IsIOError());
}

TEST(LoadersTest, MalformedLinesAreParseErrors) {
  TempFile bad_fields("1\t2\n");  // too few fields for ml-100k
  EXPECT_TRUE(LoadMovieLens100K(bad_fields.path()).status().IsParseError());
  TempFile bad_int("a\tb\t3\t0\n");
  EXPECT_TRUE(LoadMovieLens100K(bad_int.path()).status().IsParseError());
  TempFile bad_rating("1\t2\tx\t0\n");
  EXPECT_TRUE(LoadMovieLens100K(bad_rating.path()).status().IsParseError());
}

TEST(LoadersTest, GarbageBytesAreParseErrorsNotCrashes) {
  // Binary junk, partial lines, embedded NULs: every loader must return a
  // clean ParseError (or succeed on the benign prefix), never crash.
  std::string junk;
  Rng rng(97);
  for (int b = 0; b < 512; ++b) {
    junk.push_back(static_cast<char>(rng.UniformInt(uint64_t{256})));
  }
  TempFile f(junk);
  auto ml = LoadMovieLens100K(f.path());
  EXPECT_TRUE(!ml.ok() || ml->num_interactions() == 0);
  auto ml1m = LoadMovieLens1M(f.path());
  EXPECT_TRUE(!ml1m.ok() || ml1m->num_interactions() == 0);
  auto nf = LoadNetflix({f.path()});
  EXPECT_TRUE(!nf.ok() || nf->num_interactions() == 0);
  auto csv = LoadCsv(f.path());
  EXPECT_TRUE(!csv.ok() || csv->num_interactions() == 0);
  CsvOptions lpu;
  lpu.line_per_user = true;
  auto cul = LoadCsv(f.path(), lpu);
  EXPECT_TRUE(!cul.ok() || cul->num_interactions() == 0);
}

TEST(LoadersTest, SaveCsvRoundTrips) {
  CsrMatrix m =
      CsrMatrix::FromPairs({{0, 1}, {0, 3}, {2, 0}}, 3, 4).value();
  Dataset ds("rt", m);
  const std::string path = ::testing::TempDir() + "/ocular_roundtrip.tsv";
  ASSERT_TRUE(SaveCsv(ds, path).ok());
  CsvOptions opts;
  opts.delimiter = '\t';
  opts.compact_ids = false;
  auto loaded = LoadCsv(path, opts).value();
  EXPECT_EQ(loaded.num_interactions(), 3u);
  EXPECT_TRUE(loaded.interactions().HasEntry(2, 0));
  std::remove(path.c_str());
}

/// LoadCsv as it was before block reading: std::getline, a Split vector
/// per line, every row buffered, then one CooBuilder over the buffered
/// rows. The oracle for the block loader's matrices and error texts.
Result<Dataset> ReferenceLoadCsv(const std::string& path,
                                 const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::string line;
  size_t lineno = 0;
  CooBuilder coo;
  if (options.line_per_user) {
    uint32_t user = 0;
    while (std::getline(in, line)) {
      ++lineno;
      std::string_view sv = Trim(line);
      if (!sv.empty() && options.comment_char != '\0' &&
          sv.front() == options.comment_char) {
        continue;
      }
      auto fields = SplitAny(sv, " \t,");
      size_t start = 0;
      if (fields.size() >= 2) {
        auto head = ParseInt64(fields[0]);
        if (head.ok() &&
            static_cast<size_t>(head.value()) == fields.size() - 1) {
          start = 1;
        }
      }
      for (size_t f = start; f < fields.size(); ++f) {
        OCULAR_ASSIGN_OR_RETURN(int64_t item, ParseInt64(fields[f]));
        if (item < 0) return Status::ParseError("negative item id");
        coo.Add(user, static_cast<uint32_t>(item));
      }
      ++user;
    }
    OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(user, 0));
    return Dataset("csv:" + path, CsrMatrix::FromCoo(std::move(entries)));
  }
  struct Row {
    int64_t user;
    int64_t item;
    double rating;
  };
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view sv = Trim(line);
    if (sv.empty()) continue;
    if (options.comment_char != '\0' && sv.front() == options.comment_char) {
      continue;
    }
    auto fields = options.delimiter == ' ' ? SplitAny(sv, " \t")
                                           : Split(sv, options.delimiter);
    if (fields.size() < 2) {
      return Status::ParseError(path + ":" + std::to_string(lineno) +
                                ": expected at least user, item");
    }
    OCULAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(fields[0]));
    OCULAR_ASSIGN_OR_RETURN(int64_t i, ParseInt64(fields[1]));
    double r = options.positive_threshold;
    if (options.rating_column >= 0) {
      if (static_cast<size_t>(options.rating_column) >= fields.size()) {
        return Status::ParseError(path + ":" + std::to_string(lineno) +
                                  ": rating column out of range");
      }
      OCULAR_ASSIGN_OR_RETURN(r, ParseDouble(fields[options.rating_column]));
    }
    rows.push_back({u, i, r});
  }
  std::unordered_map<int64_t, uint32_t> users, items;
  for (const Row& row : rows) {
    if (row.rating < options.positive_threshold) continue;
    if (options.compact_ids) {
      auto user = users.try_emplace(row.user, users.size()).first;
      auto item = items.try_emplace(row.item, items.size()).first;
      coo.Add(user->second, item->second);
    } else {
      if (row.user < 0 || row.item < 0) {
        return Status::ParseError("negative id with compact_ids=false");
      }
      coo.Add(static_cast<uint32_t>(row.user), static_cast<uint32_t>(row.item));
    }
  }
  OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize());
  return Dataset("csv:" + path, CsrMatrix::FromCoo(std::move(entries)));
}

struct LoaderCase {
  std::string name;
  std::string content;
  CsvOptions options;
};

CsvOptions Tsv(bool compact_ids = false) {
  CsvOptions o;
  o.delimiter = '\t';
  o.compact_ids = compact_ids;
  return o;
}

std::vector<LoaderCase> LoaderCases() {
  std::vector<LoaderCase> cases;
  Rng rng(17);
  std::vector<std::string> shuffled;
  for (int e = 0; e < 600; ++e) {
    shuffled.push_back(std::to_string(rng.UniformInt(uint64_t{50})) + "\t" +
                       std::to_string(rng.UniformInt(uint64_t{30})) + "\n");
  }
  rng.Shuffle(&shuffled);
  std::string shuffled_text;
  for (const std::string& l : shuffled) shuffled_text += l;
  cases.push_back({"shuffled_rows", shuffled_text, Tsv()});
  cases.push_back({"duplicates", "1\t2\n1\t2\n0\t5\n1\t2\n0\t5\n", Tsv()});
  cases.push_back({"crlf", "1\t2\r\n3\t4\r\n\r\n5\t6\r\n", Tsv()});
  cases.push_back(
      {"comments_and_blank_lines",
       "# header\n\n   \n1\t2\n# 3\t4\n\t\n2\t0\n  # indented comment\n",
       Tsv()});
  cases.push_back({"padded_fields", " 1 \t 2 \n  3\t4  \n5 \t6\n", Tsv()});
  cases.push_back({"missing_final_newline", "1\t2\n3\t4", Tsv()});

  // A data line that starts 3 bytes before the first block ends, and one
  // 3 * kLoaderBlockBytes long (a block holds only part of it).
  std::string straddle;
  for (uint32_t k = 0; straddle.size() + 64 < kLoaderBlockBytes; ++k) {
    straddle += std::to_string(k % 97) + "\t" + std::to_string(k % 89) + "\n";
  }
  straddle += "#" + std::string(kLoaderBlockBytes - 3 - straddle.size() - 1,
                                'x') + "\n";
  straddle += "123\t45\n";
  straddle += "7\t" + std::string(3 * kLoaderBlockBytes, ' ') + "9\n";
  for (uint32_t k = 0; k < 5000; ++k) {
    straddle += std::to_string(k % 101) + "\t" + std::to_string(k % 83) + "\n";
  }
  cases.push_back({"block_boundary_and_long_line", straddle, Tsv()});

  CsvOptions space;  // delimiter ' ': any run of spaces and tabs
  space.compact_ids = false;
  cases.push_back(
      {"space_delimiter_mixed_tabs", "1 \t 2\n3\t\t4 5\n 6  7 \n", space});

  CsvOptions rated;
  rated.delimiter = ',';
  rated.rating_column = 2;
  rated.positive_threshold = 3.0;
  rated.compact_ids = false;
  cases.push_back({"rating_column_threshold",
                   "0,10,4.0\n0,11,2.0\n1,10,3.0\n2,12,2.99\n-1,3,1\n",
                   rated});
  CsvOptions rated_item = rated;
  rated_item.rating_column = 1;
  cases.push_back({"rating_in_item_column", "5,3\n6,2\n7,4\n", rated_item});

  cases.push_back({"compact_ids_first_seen_order",
                   "100\t7\n50\t7\n100\t9\n-4\t7\n50\t1\n", Tsv(true)});

  CsvOptions per_user;
  per_user.line_per_user = true;
  cases.push_back(
      {"line_per_user", "2 13 17\n\n# c\n1 5\n3 1,2\t3\n4\r\n", per_user});

  // Error cases: the texts must not change.
  cases.push_back({"too_few_fields", "1\t2\n3\n", Tsv()});
  cases.push_back({"bad_integer", "1\t2\nx\t3\n", Tsv()});
  CsvOptions far_rating = rated;
  far_rating.rating_column = 3;
  cases.push_back({"rating_column_out_of_range", "1,2,3\n", far_rating});
  cases.push_back({"bad_rating", "1,2,abc\n", rated});
  cases.push_back({"negative_raw_id", "1\t2\n-1\t2\n", Tsv()});
  cases.push_back(
      {"parse_error_after_negative_id", "-1\t2\n3\t4\nzz\t1\n", Tsv()});
  cases.push_back({"line_per_user_negative_item", "1 -3\n", per_user});
  return cases;
}

TEST(LoadersTest, BlockLoaderMatchesTheLineByLineReference) {
  for (const LoaderCase& c : LoaderCases()) {
    SCOPED_TRACE(c.name);
    TempFile f(c.content);
    auto got = LoadCsv(f.path(), c.options);
    auto want = ReferenceLoadCsv(f.path(), c.options);
    ASSERT_EQ(got.ok(), want.ok())
        << (got.ok() ? want.status() : got.status()).ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(got->name(), want->name());
    EXPECT_EQ(got->interactions(), want->interactions());
  }
}

TEST(LoadersTest, RawIdsPastUint32RangeAreParseErrorsNamingTheLine) {
  // Id 4294967295 used to give a 0-row matrix holding one entry, and
  // 4294967296 silently became id 0.
  for (const std::string id : {"4294967295", "4294967296"}) {
    SCOPED_TRACE(id);
    TempFile users(std::string("0\t1\n1\t2\n") + id + "\t0\n");
    auto ds = LoadCsv(users.path(), Tsv());
    ASSERT_FALSE(ds.ok());
    EXPECT_TRUE(ds.status().IsParseError());
    EXPECT_NE(ds.status().message().find(users.path() + ":3:"),
              std::string::npos)
        << ds.status().ToString();

    TempFile items(std::string("0\t") + id + "\n");
    EXPECT_TRUE(LoadCsv(items.path(), Tsv()).status().IsParseError());
    CsvOptions per_user;
    per_user.line_per_user = true;
    EXPECT_TRUE(LoadCsv(items.path(), per_user).status().IsParseError());
    LoaderOptions raw;
    raw.compact_ids = false;
    TempFile ml(std::string("1\t") + id + "\t5\t0\n");
    EXPECT_TRUE(LoadMovieLens100K(ml.path(), raw).status().IsParseError());

    // Remapped ids may be any int64.
    auto compact = LoadCsv(users.path(), Tsv(true));
    ASSERT_TRUE(compact.ok()) << compact.status().ToString();
    EXPECT_EQ(compact->num_users(), 3u);
  }
}

TEST(LoadersTest, CsvLoadPeakHeapIsAtMostSixteenBytesPerLinePlusABlock) {
  // 2,000 users x 100 items: once in row order (as SaveCsv writes it, the
  // daemon's --datasets layout) and once shuffled.
  constexpr uint32_t kUsers = 2000;
  constexpr uint32_t kPerUser = 100;
  std::vector<std::string> lines;
  lines.reserve(kUsers * kPerUser);
  for (uint32_t u = 0; u < kUsers; ++u) {
    for (uint32_t k = 0; k < kPerUser; ++k) {
      lines.push_back(std::to_string(u) + "\t" +
                      std::to_string((u * 7 + k * 13) % 3000) + "\n");
    }
  }
  for (const bool shuffle : {false, true}) {
    SCOPED_TRACE(shuffle ? "shuffled" : "row order");
    if (shuffle) {
      Rng rng(5);
      rng.Shuffle(&lines);
    }
    const std::string path = ::testing::TempDir() + "/ocular_peak_heap.tsv";
    {
      std::ofstream out(path);
      for (const std::string& l : lines) out << l;
    }
    const int64_t before = g_live_bytes.load();
    g_peak_bytes.store(before);
    auto ds = LoadCsv(path, Tsv());
    const int64_t peak = g_peak_bytes.load() - before;
    std::remove(path.c_str());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    EXPECT_EQ(ds->num_interactions(), size_t{kUsers} * kPerUser);
    EXPECT_LE(peak, static_cast<int64_t>(16 * lines.size() + kLoaderBlockBytes))
        << "peak heap " << peak << " B for " << lines.size() << " lines";
  }
}

// ---------------------------------------------------------------- Splits

using test::RandomCsr;

TEST(SplitTest, PartitionIsDisjointAndComplete) {
  CsrMatrix m = RandomCsr(50, 40, 800, 1);
  Rng rng(2);
  auto split = SplitInteractions(m, 0.75, &rng).value();
  EXPECT_EQ(split.train.num_rows(), m.num_rows());
  EXPECT_EQ(split.test.num_cols(), m.num_cols());
  EXPECT_EQ(split.train.nnz() + split.test.nnz(), m.nnz());
  for (auto [u, i] : split.test.ToPairs()) {
    EXPECT_TRUE(m.HasEntry(u, i));
    EXPECT_FALSE(split.train.HasEntry(u, i));
  }
  // ~75% in train (binomial, generous tolerance).
  const double frac =
      static_cast<double>(split.train.nnz()) / static_cast<double>(m.nnz());
  EXPECT_NEAR(frac, 0.75, 0.08);
}

TEST(SplitTest, ExtremeFractions) {
  CsrMatrix m = RandomCsr(20, 20, 100, 3);
  Rng rng(4);
  auto all_train = SplitInteractions(m, 1.0, &rng).value();
  EXPECT_EQ(all_train.train.nnz(), m.nnz());
  EXPECT_EQ(all_train.test.nnz(), 0u);
  auto all_test = SplitInteractions(m, 0.0, &rng).value();
  EXPECT_EQ(all_test.test.nnz(), m.nnz());
}

TEST(SplitTest, InvalidArguments) {
  CsrMatrix m = RandomCsr(5, 5, 10, 5);
  Rng rng(6);
  EXPECT_TRUE(SplitInteractions(m, 1.5, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(SplitInteractions(m, -0.1, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(SplitInteractions(m, 0.5, nullptr).status().IsInvalidArgument());
}

TEST(SplitTest, LeaveKOutHoldsExactlyK) {
  CsrMatrix m = RandomCsr(30, 60, 900, 7);
  Rng rng(8);
  auto split = LeaveKOut(m, 2, &rng).value();
  EXPECT_EQ(split.train.nnz() + split.test.nnz(), m.nnz());
  for (uint32_t u = 0; u < m.num_rows(); ++u) {
    if (m.RowDegree(u) > 2) {
      EXPECT_EQ(split.test.RowDegree(u), 2u) << "user " << u;
    } else {
      EXPECT_EQ(split.test.RowDegree(u), 0u) << "user " << u;
    }
  }
}

TEST(SplitTest, KFoldCoversEachEntryExactlyOnce) {
  CsrMatrix m = RandomCsr(25, 25, 300, 9);
  Rng rng(10);
  auto folds = KFoldSplits(m, 4, &rng).value();
  ASSERT_EQ(folds.size(), 4u);
  size_t total_test = 0;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.nnz() + fold.test.nnz(), m.nnz());
    total_test += fold.test.nnz();
  }
  EXPECT_EQ(total_test, m.nnz());  // each entry tests in exactly one fold
}

TEST(SplitTest, KFoldRejectsBadArgs) {
  CsrMatrix m = RandomCsr(5, 5, 10, 11);
  Rng rng(12);
  EXPECT_TRUE(KFoldSplits(m, 1, &rng).status().IsInvalidArgument());
}

TEST(SplitTest, SampleFractionSizes) {
  CsrMatrix m = RandomCsr(40, 40, 600, 13);
  Rng rng(14);
  auto half = SampleFraction(m, 0.5, &rng).value();
  EXPECT_NEAR(static_cast<double>(half.nnz()),
              static_cast<double>(m.nnz()) * 0.5, 1.0);
  for (auto [u, i] : half.ToPairs()) EXPECT_TRUE(m.HasEntry(u, i));
  EXPECT_EQ(SampleFraction(m, 1.0, &rng).value().nnz(), m.nnz());
  EXPECT_EQ(SampleFraction(m, 0.0, &rng).value().nnz(), 0u);
}

// ------------------------------------------------------------- Synthetic

TEST(SyntheticTest, PlantedShapeAndValidity) {
  PlantedCoClusterConfig cfg;
  cfg.num_users = 80;
  cfg.num_items = 60;
  cfg.num_clusters = 5;
  Rng rng(15);
  auto data = GeneratePlantedCoClusters(cfg, &rng).value();
  EXPECT_EQ(data.dataset.num_users(), 80u);
  EXPECT_EQ(data.dataset.num_items(), 60u);
  EXPECT_GT(data.dataset.num_interactions(), 0u);
  EXPECT_EQ(data.user_factors.rows(), 80u);
  EXPECT_EQ(data.user_factors.cols(), 5u);
  EXPECT_EQ(data.cluster_users.size(), 5u);
}

TEST(SyntheticTest, TrueProbabilityMatchesFactors) {
  PlantedCoClusterConfig cfg;
  cfg.num_users = 10;
  cfg.num_items = 10;
  cfg.num_clusters = 2;
  Rng rng(16);
  auto data = GeneratePlantedCoClusters(cfg, &rng).value();
  for (uint32_t u = 0; u < 10; ++u) {
    for (uint32_t i = 0; i < 10; ++i) {
      const double p = data.TrueProbability(u, i);
      EXPECT_GE(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
  }
}

TEST(SyntheticTest, EdgesConcentrateInsideClusters) {
  PlantedCoClusterConfig cfg;
  cfg.num_users = 200;
  cfg.num_items = 150;
  cfg.num_clusters = 4;
  cfg.noise = 0.0;
  Rng rng(17);
  auto data = GeneratePlantedCoClusters(cfg, &rng).value();
  // Without noise every edge must be inside at least one planted cluster,
  // i.e. its true probability is positive.
  for (auto [u, i] : data.dataset.interactions().ToPairs()) {
    EXPECT_GT(data.TrueProbability(u, i), 0.0);
  }
}

TEST(SyntheticTest, RejectsBadConfig) {
  Rng rng(18);
  PlantedCoClusterConfig cfg;
  cfg.num_users = 0;
  EXPECT_TRUE(GeneratePlantedCoClusters(cfg, &rng).status()
                  .IsInvalidArgument());
  cfg.num_users = 10;
  cfg.num_clusters = 0;
  EXPECT_TRUE(GeneratePlantedCoClusters(cfg, &rng).status()
                  .IsInvalidArgument());
  cfg.num_clusters = 2;
  cfg.strength_min = 2.0;
  cfg.strength_max = 1.0;
  EXPECT_TRUE(GeneratePlantedCoClusters(cfg, &rng).status()
                  .IsInvalidArgument());
  cfg.strength_min = 1.0;
  EXPECT_TRUE(GeneratePlantedCoClusters(cfg, nullptr).status()
                  .IsInvalidArgument());
}

TEST(SyntheticTest, PaperToyMatchesFigureOne) {
  Dataset toy = MakePaperToyDataset();
  EXPECT_EQ(toy.num_users(), 12u);
  EXPECT_EQ(toy.num_items(), 12u);
  const CsrMatrix& m = toy.interactions();
  // User 6 has items 1-3 and 5-9 but NOT 4 (the headline recommendation).
  for (uint32_t i : {1u, 2u, 3u, 5u, 6u, 7u, 8u, 9u}) {
    EXPECT_TRUE(m.HasEntry(6, i)) << i;
  }
  EXPECT_FALSE(m.HasEntry(6, 4));
  // Users 4, 5 bought items 1-4.
  for (uint32_t i : {1u, 2u, 3u, 4u}) {
    EXPECT_TRUE(m.HasEntry(4, i));
    EXPECT_TRUE(m.HasEntry(5, i));
  }
  // Users 7-9 bought items 4-9.
  for (uint32_t u : {7u, 8u, 9u}) {
    for (uint32_t i : {4u, 5u, 6u, 7u, 8u, 9u}) EXPECT_TRUE(m.HasEntry(u, i));
  }
  // Rows 3, 10, 11 and columns 0, 10, 11 are empty.
  EXPECT_EQ(m.RowDegree(3), 0u);
  EXPECT_EQ(m.RowDegree(10), 0u);
  EXPECT_EQ(m.RowDegree(11), 0u);
  auto col_deg = m.ColumnDegrees();
  EXPECT_EQ(col_deg[0], 0u);
  EXPECT_EQ(col_deg[10], 0u);
  EXPECT_EQ(col_deg[11], 0u);
  EXPECT_TRUE(toy.has_user_labels());
  EXPECT_EQ(toy.UserLabel(6), "Client 6");
}

TEST(SyntheticTest, ShapedGeneratorsScale) {
  Rng rng(19);
  auto ml = MakeMovieLensLike(0.02, &rng).value();
  // Users scale linearly; items by sqrt(scale) (see MakeShaped).
  EXPECT_NEAR(ml.dataset.num_users(), 6040 * 0.02, 2);
  EXPECT_NEAR(ml.dataset.num_items(), 3706 * std::sqrt(0.02), 2);
  EXPECT_GT(ml.dataset.num_interactions(), 100u);
  EXPECT_EQ(ml.dataset.name(), "movielens-like");
  // Mean positives-per-user tracks the real dataset's ~95 (within noise;
  // some users are idiosyncratic/empty by design).
  const double deg = static_cast<double>(ml.dataset.num_interactions()) /
                     ml.dataset.num_users();
  EXPECT_GT(deg, 40.0);
  EXPECT_LT(deg, 200.0);

  auto b2b = MakeB2BLike(0.005, &rng).value();
  EXPECT_EQ(b2b.dataset.name(), "b2b-like");
  EXPECT_GT(b2b.dataset.num_interactions(), 0u);

  EXPECT_TRUE(MakeMovieLensLike(0.0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(MakeMovieLensLike(1.5, &rng).status().IsInvalidArgument());
}

TEST(SyntheticTest, GeneratorIsDeterministicGivenSeed) {
  PlantedCoClusterConfig cfg;
  cfg.num_users = 50;
  cfg.num_items = 50;
  cfg.num_clusters = 3;
  Rng rng1(42), rng2(42);
  auto d1 = GeneratePlantedCoClusters(cfg, &rng1).value();
  auto d2 = GeneratePlantedCoClusters(cfg, &rng2).value();
  EXPECT_EQ(d1.dataset.interactions(), d2.dataset.interactions());
}

}  // namespace
}  // namespace ocular
