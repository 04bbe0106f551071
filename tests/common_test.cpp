// Unit tests for src/common: Status/Result, Rng, strings, hashes, thread
// pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/fs_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace ocular {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "NotImplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
}

Status FailingHelper() { return Status::Internal("boom"); }
Status PropagatingHelper() {
  OCULAR_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = PropagatingHelper();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

// ---------------------------------------------------------------- Result

Result<int> ParseOrFail(bool fail) {
  if (fail) return Status::ParseError("nope");
  return 42;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParseOrFail(false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = ParseOrFail(true);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> UsesAssignOrReturn(bool fail) {
  OCULAR_ASSIGN_OR_RETURN(int v, ParseOrFail(fail));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(UsesAssignOrReturn(false).value(), 43);
  EXPECT_TRUE(UsesAssignOrReturn(true).status().IsParseError());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(uint64_t{10})];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, UniformIntSignedRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 5);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, ZipfFavorsLowIndices) {
  Rng rng(23);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(100, 1.0)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(29);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.Zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(31);
  for (uint64_t n : {10ULL, 100ULL, 1000ULL}) {
    for (uint64_t k : std::initializer_list<uint64_t>{0, 1, 5, n / 2, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      ASSERT_EQ(sample.size(), k);
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      std::set<uint64_t> uniq(sample.begin(), sample.end());
      EXPECT_EQ(uniq.size(), k) << "duplicates in sample";
      for (uint64_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(&v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng a(41);
  Rng b = a.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

// --------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitAnyDropsEmpties) {
  auto parts = SplitAny("  a \t b\t\tc ", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitSeparatorMultiChar) {
  auto parts = SplitSeparator("1::2::3", "::");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "2");
  // Separator absent -> whole string.
  EXPECT_EQ(SplitSeparator("abc", "::").size(), 1u);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("4.5").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringsTest, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(0), "0");
}

// ------------------------------------------------------------------ hash

uint64_t Fnv(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

// Pinned outputs: journal records, shardset fingerprints and OCLR v2
// checksums already on disk hold FNV-1a values, and OCLR v3 and v4 files hold
// XXH64 values, so neither function may ever change.
TEST(HashTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(Fnv(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv("foobar"), 0x85944171f73967e8ull);
  const std::string_view s = "foobar";
  for (size_t cut = 0; cut <= s.size(); ++cut) {
    EXPECT_EQ(Fnv1a64(s.data() + cut, s.size() - cut, Fnv(s.substr(0, cut))),
              Fnv(s))
        << "split at " << cut;
  }
}

TEST(HashTest, Xxh64MatchesReferenceVectors) {
  // Lengths 0, 1, 3, 11, 39 and 43 cover the 32-byte stripe loop and the
  // 8-, 4- and 1-byte tails.
  const std::pair<std::string_view, uint64_t> vectors[] = {
      {"", 0xef46db3751d8e999ull},
      {"a", 0xd24ec4f1a98c6e5bull},
      {"abc", 0x44bc2cf5ad770999ull},
      {"hello world", 0x45ab6734b21e6968ull},
      {"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1ull},
      {"The quick brown fox jumps over the lazy dog", 0x0b242d361fda71bcull},
  };
  for (const auto& [input, want] : vectors) {
    EXPECT_EQ(Xxh64(input.data(), input.size()), want) << '"' << input << '"';
    // Same bytes at an odd address: the loads need no alignment.
    const std::string shifted = "x" + std::string(input);
    EXPECT_EQ(Xxh64(shifted.data() + 1, input.size()), want)
        << '"' << input << '"';
    // The streaming state agrees at every cut point, including the ones
    // that split a stripe or a tail word.
    for (size_t cut = 0; cut <= input.size(); ++cut) {
      Xxh64State state;
      state.Update(input.data(), cut);
      state.Update(input.data() + cut, input.size() - cut);
      EXPECT_EQ(state.Digest(), want)
          << '"' << input << "\" split at " << cut;
    }
  }
}

TEST(HashTest, Xxh64StateFedInPiecesMatchesOneShot) {
  // 3 MiB of seeded bytes fed in pieces that straddle stripe edges in
  // every phase, as a block-by-block checksum pass over a mapping does.
  std::string buffer(3u << 20, '\0');
  Rng rng(2017);
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(uint64_t{256}));
  const uint64_t one_shot = Xxh64(buffer.data(), buffer.size());
  for (const size_t piece : {1, 7, 31, 32, 33, 4097}) {
    Xxh64State state;
    for (size_t at = 0; at < buffer.size(); at += piece) {
      state.Update(buffer.data() + at, std::min(piece, buffer.size() - at));
    }
    EXPECT_EQ(state.Digest(), one_shot) << "pieces of " << piece;
  }
  Xxh64State empty;
  empty.Update(nullptr, 0);
  EXPECT_EQ(empty.Digest(), Xxh64("", 0));
}

TEST(HashTest, FileFingerprintIsFnv1aOfTheFilePrefix) {
  const std::string path = ::testing::TempDir() + "/fingerprint.bin";
  std::string content(10000, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>(i * 131 + 7);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "foobar";
  }
  EXPECT_EQ(fs::FileFingerprint(path).value(), 0x85944171f73967e8ull);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  // Reads cross the 4096-byte chunk boundary twice.
  EXPECT_EQ(fs::FileFingerprint(path, 9000).value(),
            Fnv1a64(content.data(), 9000));
  std::remove(path.c_str());
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); }, 1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForChunkedSumsCorrectly) {
  ThreadPool pool(4);
  std::atomic<long long> total{0};
  pool.ParallelForChunked(1, 10001, [&](size_t lo, size_t hi) {
    long long local = 0;
    for (size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 10000LL * 10001 / 2);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 64, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

// ----------------------------------------------------------------- timer

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  // A trivial spin so elapsed > 0 on any clock resolution.
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  EXPECT_GE(w.ElapsedMicros(), 0);
  w.Restart();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

// --------------------------------------------------------------- logging

TEST(LoggingTest, LevelThresholdRoundTrips) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  OCULAR_LOG(kInfo) << "should be filtered";
  SetLogLevel(prev);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  OCULAR_CHECK(1 + 1 == 2) << "never shown";
  OCULAR_CHECK_EQ(4, 4);
  OCULAR_CHECK_LT(1, 2);
  OCULAR_CHECK_GE(2, 2);
}

}  // namespace
}  // namespace ocular
