// Unit tests for src/data: dataset, loaders (with failure injection),
// splitters, synthetic generators.

#include <gtest/gtest.h>
#include <malloc.h>
#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
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
// loader memory test bounds the peak of one LoadCsv call. While
// g_watched_thread is set, allocations on any other thread are counted.
namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<std::thread::id> g_watched_thread{};
std::atomic<int64_t> g_allocs_off_the_watched_thread{0};

void* TrackedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::thread::id watched = g_watched_thread.load();
  if (watched != std::thread::id() && std::this_thread::get_id() != watched) {
    g_allocs_off_the_watched_thread.fetch_add(1);
  }
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

TEST(LoadersTest, FieldErrorsNameTheFileAndLine) {
  // A malformed line in a 400k-line file must be findable: every loader
  // error starts with "path:line: ".
  const auto message = [](const Result<Dataset>& loaded) {
    return loaded.ok() ? std::string("ok") : loaded.status().message();
  };
  CsvOptions tsv;
  tsv.delimiter = '\t';
  tsv.compact_ids = false;
  TempFile bad_int("1\t2\nx\t3\n");
  EXPECT_EQ(message(LoadCsv(bad_int.path(), tsv)),
            bad_int.path() + ":2: invalid integer: 'x'");
  TempFile negative("1\t2\n3\t-4\n-5\t6\n");
  EXPECT_EQ(message(LoadCsv(negative.path(), tsv)),
            negative.path() + ":2: negative id -4");
  CsvOptions rated = tsv;
  rated.rating_column = 2;
  TempFile bad_rating("1\t2\t4\n1\t3\t5\n1\t4\tx\n");
  EXPECT_EQ(message(LoadCsv(bad_rating.path(), rated)),
            bad_rating.path() + ":3: invalid float: 'x'");
  CsvOptions per_user;
  per_user.line_per_user = true;
  TempFile negative_item("1 2\n3 -4\n");
  EXPECT_EQ(message(LoadCsv(negative_item.path(), per_user)),
            negative_item.path() + ":2: negative item id -4");
  TempFile ml("1\t2\t5\t0\n1\t3\tx\t0\n");
  EXPECT_EQ(message(LoadMovieLens100K(ml.path())),
            ml.path() + ":2: invalid float: 'x'");
  TempFile netflix("6:\n1,3\n2,\n");
  EXPECT_EQ(message(LoadNetflix({netflix.path()})),
            netflix.path() + ":3: empty float field");
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
  // Every line-level error names its file and line.
  const auto at = [&](size_t line_number, const std::string& message) {
    return Status::ParseError(path + ":" + std::to_string(line_number) +
                              ": " + message);
  };
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
        auto item = ParseInt64(fields[f]);
        if (!item.ok()) return at(lineno, item.status().message());
        if (*item < 0) {
          return at(lineno, "negative item id " + std::to_string(*item));
        }
        coo.Add(user, static_cast<uint32_t>(*item));
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
    size_t lineno;
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
      return at(lineno, "expected at least user, item");
    }
    auto u = ParseInt64(fields[0]);
    if (!u.ok()) return at(lineno, u.status().message());
    auto i = ParseInt64(fields[1]);
    if (!i.ok()) return at(lineno, i.status().message());
    double r = options.positive_threshold;
    if (options.rating_column >= 0) {
      if (static_cast<size_t>(options.rating_column) >= fields.size()) {
        return at(lineno, "rating column out of range");
      }
      auto rating = ParseDouble(fields[options.rating_column]);
      if (!rating.ok()) return at(lineno, rating.status().message());
      r = *rating;
    }
    rows.push_back({*u, *i, r, lineno});
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
        return at(row.lineno,
                  "negative id " +
                      std::to_string(row.user < 0 ? row.user : row.item));
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

  // The scanner's edges.
  cases.push_back({"leading_zeros", "007\t0042\n00\t000\n0\t042\n", Tsv()});
  cases.push_back({"ids_at_the_uint32_edge",
                   "4294967294\t4294967295\n4294967295\t4294967294\n"
                   "4294967294\t1\n",
                   Tsv(true)});
  cases.push_back({"largest_raw_item_id", "0\t4294967294\n1\t3\n", Tsv()});
  cases.push_back({"int64_edges",
                   "9223372036854775807\t-9223372036854775808\n1\t2\n",
                   Tsv(true)});
  cases.push_back({"int64_overflow", "1\t9223372036854775808\n", Tsv(true)});
  cases.push_back({"plus_sign", "1\t2\n+1\t2\n", Tsv()});
  cases.push_back({"trailing_delimiter", "1\t2\t\n3\t4\t\r\n", Tsv()});
  CsvOptions tsv_rated = Tsv();
  tsv_rated.rating_column = 2;
  cases.push_back({"trailing_delimiter_is_no_rating", "1\t2\t\n", tsv_rated});
  cases.push_back({"empty_middle_field", "1\t\t2\n", Tsv()});
  cases.push_back({"bare_cr_line", "1\t2\n\r\n3\t4\n", Tsv()});
  cases.push_back({"cr_separated_line", "1\t2\r3\t4\n", Tsv()});
  cases.push_back({"last_line_cr_without_newline", "1\t2\n3\t4\r", Tsv()});
  CsvOptions digit_comment = Tsv();
  digit_comment.comment_char = '1';
  cases.push_back({"digit_comment_char", "1\t2\n21\t3\n \v1\t5\n4\t1\n",
                   digit_comment});
  cases.push_back({"space_delimiter_single_spaces", "1 2\n3 4\n10 0\n",
                   space});
  // A delimiter from_chars would read as part of a number.
  CsvOptions minus = Tsv();
  minus.delimiter = '-';
  cases.push_back({"minus_delimiter", "5-3\n10-20-x\n 7 - 8 \n", minus});
  cases.push_back({"minus_delimiter_leading", "5-3\n-7-2\n", minus});
  CsvOptions digit = Tsv();
  digit.delimiter = '0';
  cases.push_back({"digit_delimiter", "506\n10203\n", digit});
  return cases;
}

/// Loads `path` by LoadCsv, then through the range seam at each count in
/// `ranges`: every load must give `want`'s matrix and name, or its error
/// text.
::testing::AssertionResult LoadsLikeTheReference(
    const std::string& path, const CsvOptions& options,
    const Result<Dataset>& want,
    std::initializer_list<size_t> ranges = {1, 2, 3, 7}) {
  const auto check = [&](const Result<Dataset>& got, const std::string& how)
      -> ::testing::AssertionResult {
    if (got.ok() != want.ok()) {
      return ::testing::AssertionFailure()
             << how << ": " << (got.ok() ? "loaded" : got.status().ToString())
             << ", want " << (want.ok() ? "loaded" : want.status().ToString());
    }
    if (!want.ok()) {
      if (got.status().ToString() == want.status().ToString()) {
        return ::testing::AssertionSuccess();
      }
      return ::testing::AssertionFailure()
             << how << ": " << got.status().ToString() << ", want "
             << want.status().ToString();
    }
    if (got->name() != want->name() ||
        !(got->interactions() == want->interactions())) {
      return ::testing::AssertionFailure() << how << ": another matrix";
    }
    return ::testing::AssertionSuccess();
  };
  auto result = check(LoadCsv(path, options), "LoadCsv");
  for (const size_t count : ranges) {
    if (!result) break;
    result = check(internal::LoadCsvInRanges(path, options, count),
                   std::to_string(count) + " ranges");
  }
  return result;
}

TEST(LoadersTest, BlockLoaderMatchesTheLineByLineReference) {
  for (const LoaderCase& c : LoaderCases()) {
    SCOPED_TRACE(c.name);
    TempFile f(c.content);
    EXPECT_TRUE(LoadsLikeTheReference(f.path(), c.options,
                                      ReferenceLoadCsv(f.path(), c.options)));
  }
}

TEST(LoadersTest, RangeCutsMatchTheReference) {
  // Rows of 8 bytes, so that the cuts land on known lines: of `ranges`
  // ranges, range k starts at the first line at or after byte
  // size / ranges * k.
  constexpr size_t kLines = 120;
  constexpr size_t kBytes = 8 * kLines;
  const auto first_line = [](size_t ranges, size_t k) {  // 0-based
    return (kBytes / ranges * k + 7) / 8;
  };
  const auto rows = [](const std::map<size_t, std::string>& replaced) {
    std::string out;
    for (size_t j = 0; j < kLines; ++j) {
      const auto it = replaced.find(j);
      char row[16];
      std::snprintf(row, sizeof(row), "%03zu\t%03zu\n", j % 53, j % 41);
      out += it != replaced.end() ? it->second : std::string(row);
    }
    return out;
  };
  const std::string bad = "x01\t002\n";
  struct Case {
    std::string name;
    size_t ranges;
    std::string content;
    size_t error_line;  // 1-based; 0: the file loads
  };
  std::vector<Case> cases = {
      {"error_on_the_first_line_of_a_range", 3,
       rows({{first_line(3, 1), bad}}), first_line(3, 1) + 1},
      {"error_on_the_last_line_of_a_range", 3,
       rows({{first_line(3, 2) - 1, bad}}), first_line(3, 2)},
      {"error_on_the_first_line_of_the_last_range", 7,
       rows({{first_line(7, 6), bad}}), first_line(7, 6) + 1},
      {"negative_id_in_range_0_then_a_malformed_line_in_range_3", 4,
       rows({{5, "-01\t002\n"}, {first_line(4, 3) + 2, bad}}),
       first_line(4, 3) + 3},
      {"first_negative_id_of_several_ranges", 4,
       rows({{first_line(4, 2), "-02\t002\n"},
             {first_line(4, 1) + 1, "003\t-04\n"}}),
       first_line(4, 1) + 2},
  };
  // Blank, comment and '\r' lines on both sides of every cut.
  std::map<size_t, std::string> at_cuts;
  for (size_t k = 1; k < 7; ++k) {
    at_cuts[first_line(7, k) - 1] = k % 2 == 0 ? "#00\t001\n" : "       \n";
    at_cuts[first_line(7, k)] = k % 2 == 0 ? "   \r   \n" : "01\t002\r\n";
  }
  cases.push_back(
      {"blank_comment_and_cr_lines_at_the_cuts", 7, rows(at_cuts), 0});
  std::string unterminated = rows({});
  unterminated.pop_back();
  cases.push_back({"final_line_without_newline", 3, unterminated, 0});
  std::string bad_unterminated = rows({{kLines - 1, "001\tx2 \n"}});
  bad_unterminated.pop_back();
  cases.push_back({"malformed_final_line_without_newline", 3,
                   bad_unterminated, kLines});
  // A line longer than a range: the cuts inside it leave ranges empty, and
  // the lines after it keep their numbers (original line j is now j + 2).
  const std::string long_line = "7\t" + std::string(600, ' ') + "9\n";
  const std::string plain = rows({});
  cases.push_back({"line_longer_than_a_range", 7,
                   plain.substr(0, 80) + long_line + plain.substr(80), 0});
  const std::string late_error = rows({{100, bad}});
  cases.push_back({"error_after_a_line_longer_than_a_range", 7,
                   late_error.substr(0, 80) + long_line + late_error.substr(80),
                   102});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempFile f(c.content);
    const auto want = ReferenceLoadCsv(f.path(), Tsv());
    if (c.error_line == 0) {
      EXPECT_TRUE(want.ok()) << want.status().ToString();
    } else {
      ASSERT_FALSE(want.ok());
      EXPECT_EQ(want.status().message().rfind(
                    f.path() + ":" + std::to_string(c.error_line) + ": ", 0),
                0u)
          << want.status().ToString();
    }
    EXPECT_TRUE(LoadsLikeTheReference(f.path(), Tsv(), want, {c.ranges}));
  }
}

/// A random file of the differential grammar — digits, '-', '+', ' ',
/// '\t', '\r', '#', ',', '.' and '\n' — of `user D item D rating...`
/// rows padded with whitespace, some with a trailing delimiter, blank lines
/// and comment lines. `noise` is
/// the chance of each defect: a signed id, a field cut short or split by
/// a stray delimiter, or a line with one byte replaced by a random grammar
/// byte; a file without noise parses. Ids stay below 1000, so raw-id
/// matrices stay small.
std::string GrammarFile(Rng& rng, char delimiter, size_t lines,
                        double noise) {
  static constexpr std::string_view kBytes = "0123456789-+ \t\r#,.";
  const auto pad = [&] {
    static constexpr std::string_view kPads[] = {"", "", "", " ", "\r",
                                                 "  ", "\t"};
    // A tab pad inside a tab-delimited row is an empty field: a defect.
    const uint64_t pads = delimiter == '\t' && !rng.Bernoulli(noise) ? 6 : 7;
    return std::string(kPads[rng.UniformInt(pads)]);
  };
  const auto number = [&] {
    std::string n;
    if (rng.Bernoulli(noise)) n += rng.UniformInt(uint64_t{4}) == 0 ? '+' : '-';
    const uint64_t digits = 1 + rng.UniformInt(uint64_t{3});
    for (uint64_t d = 0; d < digits; ++d) {
      n += static_cast<char>('0' + rng.UniformInt(uint64_t{10}));
    }
    return n;
  };
  const auto rating = [&] {
    static constexpr std::string_view kRatings[] = {"1",  "3",   "5", "2.5",
                                                    "4.", ".5", "3.0", "0"};
    return std::string(kRatings[rng.UniformInt(uint64_t{8})]);
  };
  const auto delim = [&] {
    if (!rng.Bernoulli(noise)) return std::string(1, delimiter);
    return std::string(1 + rng.UniformInt(uint64_t{2}),
                       "\t ,"[rng.UniformInt(uint64_t{3})]);
  };
  std::string out;
  for (size_t l = 0; l < lines; ++l) {
    std::string line;
    const uint64_t kind = rng.UniformInt(uint64_t{20});
    if (kind == 0) {
      line = pad();  // blank
    } else if (kind == 1) {
      line = pad() + "#" + number() + delim() + number();
    } else {
      line = pad() + number() + pad() + delim() + pad() + number();
      const uint64_t ratings =
          rng.Bernoulli(noise) ? rng.UniformInt(uint64_t{3}) : 3;
      for (uint64_t f = 0; f < ratings; ++f) line += delim() + pad() + rating();
      if (rng.Bernoulli(0.2)) line += delim();  // trailing delimiter
      line += pad();
    }
    if (!line.empty() && rng.Bernoulli(noise)) {
      line[rng.UniformInt(uint64_t{line.size()})] =
          kBytes[rng.UniformInt(uint64_t{kBytes.size()})];
    }
    out += line;
    if (l + 1 < lines || rng.UniformInt(uint64_t{4}) != 0) out += '\n';
  }
  return out;
}

TEST(LoadersTest, ScannerMatchesTheReferenceOnRandomGrammarFiles) {
  Rng rng(2024);
  size_t accepted = 0;
  for (int file = 0; file < 400; ++file) {
    CsvOptions options;
    options.delimiter = "\t ,"[rng.UniformInt(uint64_t{3})];
    options.rating_column =
        static_cast<int>(rng.UniformInt(int64_t{-2}, int64_t{3}));
    if (options.rating_column < 0) options.rating_column = -1;
    options.compact_ids = rng.Bernoulli(0.5);
    options.comment_char = "##\0" "7"[rng.UniformInt(uint64_t{4})];
    options.line_per_user = rng.UniformInt(uint64_t{8}) == 0;
    // Every 40th file spans several read blocks.
    const size_t lines =
        file % 40 == 39 ? 9000 : 1 + rng.UniformInt(uint64_t{40});
    constexpr double kNoise[] = {0.0, 0.0, 0.01, 0.05, 0.3};
    const double noise = kNoise[rng.UniformInt(uint64_t{5})];
    const std::string content =
        GrammarFile(rng, options.delimiter, lines, noise);
    SCOPED_TRACE("file " + std::to_string(file) + ": " +
                 content.substr(0, 200));
    TempFile f(content);
    const auto want = ReferenceLoadCsv(f.path(), options);
    ASSERT_TRUE(LoadsLikeTheReference(f.path(), options, want));
    if (want.ok()) ++accepted;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 40u);
  EXPECT_LT(accepted, 360u);
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

TEST(LoadersTest, FifoLoadsLikeTheRegularFile) {
  // pread fails on a pipe, so a FIFO loads on one range, reading to its end.
  std::string content;
  for (uint32_t k = 0; k < 100000; ++k) {
    content += std::to_string(k % 997) + "\t" + std::to_string(k % 331) + "\n";
  }
  TempFile regular(content);
  const std::string fifo = ::testing::TempDir() + "/ocular_data_test.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // A reader that stops early must not take the test down with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] { std::ofstream(fifo) << content; });
  auto got = LoadCsv(fifo, Tsv());
  writer.join();
  std::remove(fifo.c_str());
  auto want = LoadCsv(regular.path(), Tsv());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(got->interactions(), want->interactions());
}

TEST(LoadersTest, RangeThreadsAllocateNothing) {
  // glibc keeps a heap arena for each thread that allocates, and a daemon
  // keeps that memory resident: a load in ranges allocates only on the
  // calling thread. The 200,000 lines of the peak-heap test.
  std::vector<std::string> lines;
  for (uint32_t u = 0; u < 2000; ++u) {
    for (uint32_t k = 0; k < 100; ++k) {
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
    std::string content;
    for (const std::string& l : lines) content += l;
    TempFile f(content);
    g_allocs_off_the_watched_thread.store(0);
    g_watched_thread.store(std::this_thread::get_id());
    auto ds = internal::LoadCsvInRanges(f.path(), Tsv(), 4);
    g_watched_thread.store(std::thread::id());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    EXPECT_EQ(ds->num_interactions(), lines.size());
    EXPECT_EQ(g_allocs_off_the_watched_thread.load(), 0);
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
