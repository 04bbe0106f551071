// Tests for the serving daemon layer: ModelRegistry load/get/atomic
// hot-reload, the RequestServer JSON line protocol, SIGHUP-driven reload,
// stats reporting, and bit-identical agreement between a served top-M
// request and the offline RecommendForAllUsers batch artifact — including
// the PR 5 concurrent core: simultaneous TCP clients on the worker pool,
// SIGHUP reload under load (no torn models), accept-queue load shedding,
// exact merged latency percentiles, the loopback load generator, and the
// live heap one `update` holds at its peak.

#include <gtest/gtest.h>

#include <malloc.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/fold_in.h"
#include "core/incremental.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "serving/batch.h"
#include "sparse/coo.h"
#include "serving/daemon.h"
#include "serving/journal.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "test_util.h"
#include "update_oracle.h"

// ------------------------------------------------- live-heap accounting
// Every operator new and delete moves a live-byte count by the block's
// malloc_usable_size, and a high-water mark follows the count, so a test
// can bound what one request holds at once; every operator new also
// bumps an allocation count.

namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto usable = static_cast<int64_t>(::malloc_usable_size(p));
  const int64_t live =
      g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(::malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace ocular {
namespace {

using test::RawClient;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Trains a small OCuLaR model on a deterministic matrix and writes it as
/// a binary OCLR file. Returns the in-memory fit for oracle comparisons.
struct DaemonFixture {
  CsrMatrix train;
  OcularConfig config;
  OcularModel model;
  std::string model_path;

  static DaemonFixture Make(const std::string& file, uint64_t seed = 11,
                            uint32_t sweeps = 6) {
    DaemonFixture f;
    f.train = test::RandomCsr(50, 30, 400, 11);
    f.config.k = 5;
    f.config.lambda = 0.5;
    f.config.max_sweeps = sweeps;
    f.config.seed = seed;
    OcularTrainer trainer(f.config);
    f.model = trainer.Fit(f.train).value().model;
    f.model_path = TempPath(file);
    std::remove(UpdateJournal::PathFor(f.model_path).c_str());
    EXPECT_TRUE(SaveModelBinary(f.model, f.config, f.model_path).ok());
    return f;
  }

  std::shared_ptr<const CsrMatrix> shared_train() const {
    return std::make_shared<const CsrMatrix>(train);
  }

  /// Removes the model and the journal an update writes beside it.
  void Cleanup() const {
    std::remove(model_path.c_str());
    std::remove(UpdateJournal::PathFor(model_path).c_str());
  }
};

TEST(ModelRegistryTest, LoadGetAndNames) {
  DaemonFixture f = DaemonFixture::Make("registry_a.oclr");
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("default"), nullptr);
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  ASSERT_TRUE(registry.Load("alt", f.model_path).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"alt", "default"}));

  auto model = registry.Get("default");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->store.num_users(), 50u);
  EXPECT_EQ(model->recommender->name(), "OCuLaR");
  // Exclusions come from the bound matrix; "alt" has none.
  EXPECT_EQ(model->ExcludeRow(0).size(), f.train.Row(0).size());
  EXPECT_TRUE(registry.Get("alt")->ExcludeRow(0).empty());

  // Loading a missing path fails and leaves the registry untouched.
  EXPECT_FALSE(registry.Load("default", "/nonexistent.oclr").ok());
  EXPECT_NE(registry.Get("default"), nullptr);
  // So does a dataset wider than the model, refused before anything is
  // sized by its width (2^32 - 1 columns of popularity would not fit).
  const auto wide = std::make_shared<const CsrMatrix>(
      CsrMatrix::FromPairs({{0, 4294967294u}}, 1, UINT32_MAX).value());
  EXPECT_TRUE(
      registry.Load("default", f.model_path, wide).IsInvalidArgument());
  EXPECT_EQ(registry.Get("default")->train->num_cols(), f.train.num_cols());
  f.Cleanup();
}

TEST(ModelRegistryTest, ReloadSwapsAtomicallyAndRetiresOldMapping) {
  DaemonFixture f = DaemonFixture::Make("registry_reload.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", f.model_path, f.shared_train()).ok());

  // A request in flight pins the old generation.
  auto old_model = registry.Get("m");
  const double old_score = old_model->recommender->Score(0, 0);

  // Retrain with another seed and overwrite the file in place.
  DaemonFixture f2 = DaemonFixture::Make("registry_reload.oclr", /*seed=*/99);
  ASSERT_TRUE(registry.ReloadAll().ok());

  auto new_model = registry.Get("m");
  ASSERT_NE(new_model, nullptr);
  EXPECT_NE(new_model.get(), old_model.get());
  // New generation serves the new factors...
  EXPECT_EQ(new_model->recommender->Score(0, 0),
            OcularModelRecommender(f2.model).Score(0, 0));
  // ...while the drained-but-held old generation still serves the old ones
  // (its mapping is retired only when this shared_ptr drops).
  EXPECT_EQ(old_model->recommender->Score(0, 0), old_score);
  // Exclusion matrix is shared across generations, not re-read.
  EXPECT_EQ(new_model->train.get(), old_model->train.get());

  // A reload with the file gone keeps the previous generation serving.
  f.Cleanup();
  EXPECT_FALSE(registry.ReloadAll().ok());
  EXPECT_EQ(registry.Get("m").get(), new_model.get());
}

TEST(RequestServerTest, ServedTopMIsBitIdenticalToBatchEngine) {
  DaemonFixture f = DaemonFixture::Make("daemon_parity.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.serve.m = 8;
  RequestServer server(&registry, options);

  // The offline bulk artifact on the same model: in-memory recommender,
  // same exclusions, same m.
  OcularModelRecommender memory_rec(f.model);
  BatchOptions batch;
  batch.m = 8;
  batch.skip_cold_users = false;
  auto bulk = RecommendForAllUsers(memory_rec, f.train, batch);
  ASSERT_TRUE(bulk.ok());

  for (uint32_t u = 0; u < f.train.num_rows(); ++u) {
    auto served = server.Recommend("default", u, options.serve);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const auto& oracle = bulk->recommendations[u];
    ASSERT_EQ(served->size(), oracle.size()) << "u=" << u;
    for (size_t r = 0; r < oracle.size(); ++r) {
      ASSERT_EQ((*served)[r].item, oracle[r].item) << "u=" << u;
      ASSERT_EQ((*served)[r].score, oracle[r].score) << "u=" << u;
    }
  }
  f.Cleanup();
}

TEST(RequestServerTest, StoredUsersServeTheirExclusionsWithoutAllocating) {
  // A worker's stored-user path: lease the model, decode the user's
  // exclusion row, serve through a warm workspace. After one warm-up
  // request on the shortest row, every user (the longest row included)
  // is served with no allocation: the row buffer was sized at the
  // longest row by its first use.
  DaemonFixture f = DaemonFixture::Make("daemon_exclude_alloc.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  const std::shared_ptr<const ServableModel> model = registry.Get("default");
  uint32_t shortest = 0;
  uint32_t longest = 0;
  for (uint32_t u = 0; u < f.train.num_rows(); ++u) {
    if (f.train.RowDegree(u) < f.train.RowDegree(shortest)) shortest = u;
    if (f.train.RowDegree(u) > f.train.RowDegree(longest)) longest = u;
  }
  ASSERT_GT(f.train.RowDegree(longest), f.train.RowDegree(shortest));
  ServeOptions options;
  options.m = 8;
  ServeWorkspace ws;
  ws.Reserve(options.m, options.block_items);
  (void)ServeTopM(*model->recommender, shortest, model->ExcludeRow(shortest),
                  options, &ws);

  const uint64_t before = g_alloc_count.load();
  size_t excluded_served = 0;
  bool rows_match = true;
  for (uint32_t u = 0; u < model->num_users(); ++u) {
    const std::span<const uint32_t> exclude = model->ExcludeRow(u);
    rows_match = rows_match && std::ranges::equal(exclude, f.train.Row(u));
    for (const ScoredItem& item :
         ServeTopM(*model->recommender, u, exclude, options, &ws)) {
      excluded_served += f.train.HasEntry(u, item.item) ? 1 : 0;
    }
  }
  const uint64_t allocations = g_alloc_count.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(rows_match) << "a decoded row differs from the dataset's";
  EXPECT_EQ(excluded_served, 0u) << "a known positive was recommended";
  f.Cleanup();
}

TEST(RequestServerTest, LineProtocol) {
  DaemonFixture f = DaemonFixture::Make("daemon_proto.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // A recommend round trip, parsed back with the JSON parser.
  auto reply =
      JsonValue::Parse(server.HandleLine(R"({"cmd":"recommend","user":3,"m":4})"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->Find("ok")->boolean());
  EXPECT_EQ(reply->Find("user")->number(), 3.0);
  const auto& items = reply->Find("items")->array();
  ASSERT_EQ(items.size(), 4u);
  for (size_t r = 1; r < items.size(); ++r) {
    EXPECT_GE(items[r - 1].Find("score")->number(),
              items[r].Find("score")->number());
  }

  // cmd defaults to recommend.
  auto bare = JsonValue::Parse(server.HandleLine(R"({"user":0})"));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->Find("ok")->boolean());

  // An explicit exclude overrides the training row.
  auto excl = JsonValue::Parse(server.HandleLine(
      R"({"user":3,"m":1,"exclude":[)" +
      std::to_string(items[0].Find("item")->number()) + "]}"));
  ASSERT_TRUE(excl.ok());
  EXPECT_NE(excl->Find("items")->array()[0].Find("item")->number(),
            items[0].Find("item")->number());

  // Errors answer ok:false and never kill the loop.
  for (const std::string bad : {
           std::string("this is not json"),
           std::string(R"([1,2,3])"),
           std::string(R"({"cmd":"recommend"})"),          // missing user
           std::string(R"({"user":1e9})"),                 // out of range
           std::string(R"({"user":2,"model":"absent"})"),  // unknown model
           std::string(R"({"cmd":"frobnicate"})"),         // unknown verb
       }) {
    auto err = JsonValue::Parse(server.HandleLine(bad));
    ASSERT_TRUE(err.ok()) << bad;
    EXPECT_FALSE(err->Find("ok")->boolean()) << bad;
    EXPECT_NE(err->Find("error"), nullptr) << bad;
  }

  // models verb reports the registry contents.
  auto models = JsonValue::Parse(server.HandleLine(R"({"cmd":"models"})"));
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->Find("models")->array().size(), 1u);
  EXPECT_EQ(models->Find("models")->array()[0].Find("algorithm")->string(),
            "OCuLaR");

  // stats counts every request including the failed ones.
  auto stats = JsonValue::Parse(server.HandleLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->Find("ok")->boolean());
  EXPECT_GE(stats->Find("requests_served")->number(), 10.0);
  EXPECT_GE(stats->Find("errors")->number(), 6.0);
  EXPECT_GE(stats->Find("p99_latency_us")->number(),
            stats->Find("p50_latency_us")->number());
  f.Cleanup();
}

TEST(RequestServerTest, PingAnswersLivenessWithoutTouchingAModel) {
  DaemonFixture f = DaemonFixture::Make("daemon_ping.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  auto ping = JsonValue::Parse(server.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping->Find("ok")->boolean());
  ASSERT_NE(ping->Find("uptime_ms"), nullptr);
  EXPECT_GE(ping->Find("uptime_ms")->number(), 0.0);
  ASSERT_NE(ping->Find("generation"), nullptr);
  EXPECT_EQ(ping->Find("generation")->number(),
            static_cast<double>(registry.generation()));

  // ping is a liveness probe, not a request: it never resolves a model
  // lease, so it answers identically on an empty registry — the health
  // prober must get a truthful "alive" from a daemon whose model failed
  // to load or was never configured.
  ModelRegistry empty;
  RequestServer bare(&empty);
  auto bare_ping = JsonValue::Parse(bare.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(bare_ping.ok());
  EXPECT_TRUE(bare_ping->Find("ok")->boolean());

  // A reload bumps the generation and the next ping reports it — the
  // front tier can watch model rollouts through probe replies alone.
  const double before = ping->Find("generation")->number();
  ASSERT_TRUE(JsonValue::Parse(server.HandleLine(R"({"cmd":"reload"})"))
                  ->Find("ok")
                  ->boolean());
  auto after = JsonValue::Parse(server.HandleLine(R"({"cmd":"ping"})"));
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->Find("generation")->number(), before);
  f.Cleanup();
}

TEST(RequestServerTest, ReloadVerbAndSighupBothHotReload) {
  DaemonFixture f = DaemonFixture::Make("daemon_reload.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  const std::string before =
      server.HandleLine(R"({"user":1,"m":5})");

  // Overwrite the file with a differently-seeded model; verb-driven reload.
  DaemonFixture f2 = DaemonFixture::Make("daemon_reload.oclr", /*seed=*/123);
  auto reload = JsonValue::Parse(server.HandleLine(R"({"cmd":"reload"})"));
  ASSERT_TRUE(reload.ok());
  EXPECT_TRUE(reload->Find("ok")->boolean());
  const std::string after = server.HandleLine(R"({"user":1,"m":5})");
  EXPECT_NE(before, after) << "reload must pick up the new factors";

  // SIGHUP latches a pending reload; ConsumePendingReload applies it once.
  RequestServer::InstallReloadSignalHandler();
  EXPECT_FALSE(server.ConsumePendingReload());
  ASSERT_EQ(::raise(SIGHUP), 0);
  EXPECT_TRUE(server.ConsumePendingReload());
  EXPECT_FALSE(server.ConsumePendingReload());
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kReloads], 2u);
  // Identical file contents -> identical answers after the SIGHUP swap.
  EXPECT_EQ(server.HandleLine(R"({"user":1,"m":5})"), after);
  f.Cleanup();
}

/// Everything left to read from the pipe end `fd`, up to EOF.
std::string ReadToEof(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return out;
    out.append(chunk, static_cast<size_t>(got));
  }
}

/// A pipe whose ends close with it.
struct Pipe {
  int read_end = -1;
  int write_end = -1;
  Pipe() {
    int fds[2];
    if (::pipe(fds) == 0) {
      read_end = fds[0];
      write_end = fds[1];
    }
  }
  ~Pipe() {
    if (read_end >= 0) ::close(read_end);
    CloseWrite();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  void CloseWrite() {
    if (write_end >= 0) ::close(write_end);
    write_end = -1;
  }
  bool Write(std::string_view bytes) const {
    return ::write(write_end, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }
};

TEST(RequestServerTest, StdioLoopServesUntilQuit) {
  DaemonFixture f = DaemonFixture::Make("daemon_stdio.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // The loop reads a file descriptor: the lines come through a pipe.
  Pipe in, out;
  ASSERT_TRUE(in.Write(
      "{\"user\":0,\"m\":3}\n"
      "\n"  // blank lines are skipped
      "{\"cmd\":\"stats\"}\n"
      "{\"cmd\":\"quit\"}\n"
      "{\"user\":1}\n"));  // never reached
  in.CloseWrite();
  server.RunStdioLoop(in.read_end, out.write_end);
  out.CloseWrite();
  EXPECT_TRUE(server.quit_requested());

  std::istringstream lines(ReadToEof(out.read_end));
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_TRUE(parsed->Find("ok")->boolean());
  }
  EXPECT_EQ(count, 3) << "quit must end the loop before the 4th request";
  f.Cleanup();
}

/// The system call `tid` of this process is blocked in (its number), or
/// -1 while it runs or when /proc cannot say.
long BlockedSyscall(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/syscall");
  long number = -1;
  if (!(in >> number)) return -1;
  return number;
}

TEST(RequestServerTest, StdioLoopKeepsAPartialLineAcrossAnInterruptedRead) {
  DaemonFixture f = DaemonFixture::Make("daemon_stdio_eintr.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);
  RequestServer::InstallReloadSignalHandler();
  const std::string request = R"({"user":2,"m":4})";
  const std::string expected = server.HandleLine(request) + "\n";

  Pipe in, out;
  std::atomic<pid_t> reader_tid{0};
  std::thread reader([&] {
    reader_tid.store(::gettid());
    server.RunStdioLoop(in.read_end, out.write_end);
  });
  const size_t half = request.size() / 2;
  ASSERT_TRUE(in.Write(std::string_view(request).substr(0, half)));
  // Wait until the loop has taken the half line and blocks in read(2)
  // again: the pipe is empty and the reader sleeps in system call 0.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    int unread = -1;
    ASSERT_EQ(::ioctl(in.read_end, FIONREAD, &unread), 0);
    if (unread == 0 && reader_tid.load() != 0 &&
        BlockedSyscall(reader_tid.load()) == SYS_read) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the reader never blocked in read(2)";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::pthread_kill(reader.native_handle(), SIGHUP), 0);
  // No byte follows, so only the interrupted read can bring the loop
  // back to apply the reload.
  while (server.Stats().daemon[DaemonMetrics::kReloads] == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the interrupted read did not apply the reload";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(in.Write(request.substr(half) + "\n"));
  in.CloseWrite();
  reader.join();
  out.CloseWrite();
  EXPECT_EQ(ReadToEof(out.read_end), expected)
      << "one reply, for the whole line";
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kReloads], 1u);
  f.Cleanup();
}

// ------------------------------------------------ latency percentiles

TEST(LatencyStatsTest, MergedPercentileIsExactOnKnownSequence) {
  // 1..100 in scrambled order: p50 must be the 50th smallest (index
  // floor(0.5 * 99) = 49 -> value 50), p99 the 99th (index 98 -> 99).
  std::vector<double> window;
  for (int v = 100; v >= 1; --v) window.push_back(v);
  EXPECT_EQ(MergedPercentile(&window, 0.50), 50.0);
  EXPECT_EQ(MergedPercentile(&window, 0.99), 99.0);
  EXPECT_EQ(MergedPercentile(&window, 0.0), 1.0);
  EXPECT_EQ(MergedPercentile(&window, 1.0), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(MergedPercentile(&empty, 0.5), 0.0);
  std::vector<double> one{7.5};
  EXPECT_EQ(MergedPercentile(&one, 0.99), 7.5);
}

TEST(LatencyStatsTest, PerWorkerRingsMergeToTheExactGlobalPercentile) {
  // The same 1..100 sequence striped across 4 worker rings must report
  // the same exact percentiles as a single ring would — merging the
  // windows BEFORE selecting is what makes the concurrent report exact
  // (averaging per-ring percentiles would give 50.5 here, not 50).
  std::deque<LatencyRing> rings;  // deque: LatencyRing holds atomics
  for (int w = 0; w < 4; ++w) rings.emplace_back(64);
  for (int v = 1; v <= 100; ++v) rings[v % 4].Record(v);
  std::vector<double> merged;
  for (const LatencyRing& ring : rings) ring.AppendWindowTo(&merged);
  ASSERT_EQ(merged.size(), 100u);
  EXPECT_EQ(MergedPercentile(&merged, 0.50), 50.0);
  EXPECT_EQ(MergedPercentile(&merged, 0.99), 99.0);
}

TEST(LatencyStatsTest, RingKeepsOnlyTheMostRecentWindow) {
  LatencyRing ring(4);
  for (int v = 1; v <= 6; ++v) ring.Record(v);
  std::vector<double> window;
  ring.AppendWindowTo(&window);
  std::sort(window.begin(), window.end());
  EXPECT_EQ(window, (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
}

// ---------------------------------------------- concurrent TCP serving

/// Waits (bounded) for RunTcpLoop on `serve_thread` to publish its
/// listening port. Returns 0 — after reaping the thread — when the loop
/// failed socket setup instead of listening, so callers can ASSERT and
/// fail the test rather than spin forever.
uint16_t WaitForPort(const RequestServer& server, std::thread* serve_thread) {
  for (int ms = 0; ms < 10000; ++ms) {
    const uint16_t port = server.bound_port();
    if (port != 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (serve_thread->joinable()) serve_thread->join();
  return 0;
}

/// The shared wire-exactness check (serving/loadgen.h) under the name
/// the assertions below read naturally with.
bool ReplyMatches(const std::string& line,
                  const std::vector<ScoredItem>& expect) {
  return ReplyMatchesRanked(line, expect);
}

/// The offline oracle for `model` under `train` exclusions at top-`m`.
std::vector<std::vector<ScoredItem>> Oracle(const OcularModel& model,
                                            const CsrMatrix& train,
                                            uint32_t m) {
  OcularModelRecommender rec(model);
  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  return RecommendForAllUsers(rec, train, batch).value().recommendations;
}

TEST(ConcurrentDaemonTest, ZeroWorkersRunOnePerCpuOfTheAffinityMask) {
  // Narrow this thread to the first CPU it may run on, as taskset -c or a
  // one-CPU cpuset would, and ask for the default worker count.
  cpu_set_t saved;
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
  ModelRegistry registry;
  RequestServer::Options options;
  options.num_workers = 0;
  const size_t workers = RequestServer(&registry, options).num_workers();
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(RequestServer(&registry, options).num_workers(), UsableCpus());
}

TEST(ConcurrentDaemonTest, SimultaneousClientsAreBitIdenticalToBatchEngine) {
  DaemonFixture f = DaemonFixture::Make("daemon_concurrent.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.serve.m = 8;
  options.num_workers = 4;
  RequestServer server(&registry, options);
  EXPECT_EQ(server.num_workers(), 4u);

  const auto oracle = Oracle(f.model, f.train, 8);

  // 4 simultaneous pipelined clients; every client covers every user
  // (50 requests round-robin over 50 users), so every worker slot serves
  // rows that another worker serves too — identical answers required.
  constexpr uint32_t kClients = 4;
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, kClients).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  std::atomic<uint64_t> mismatches{0};
  LoadGenOptions load;
  load.port = port;
  load.clients = kClients;
  load.requests_per_client = 50;
  load.pipeline = 8;
  load.m = 8;
  load.num_users = f.train.num_rows();
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle[user])) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto result = RunLoadGen(load);
  serve_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, kClients * 50u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(mismatches.load(), 0u)
      << "a concurrently served reply differed from RecommendForAllUsers";

  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.daemon[DaemonMetrics::kRequestsServed], kClients * 50u);
  EXPECT_EQ(stats.daemon[DaemonMetrics::kErrors], 0u);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
  f.Cleanup();
}

TEST(ConcurrentDaemonTest, SighupReloadUnderLoadNeverServesATornModel) {
  DaemonFixture f = DaemonFixture::Make("daemon_reload_load.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::InstallReloadSignalHandler();

  RequestServer::Options options;
  options.serve.m = 6;
  options.num_workers = 3;
  RequestServer server(&registry, options);

  const auto oracle_old = Oracle(f.model, f.train, 6);

  constexpr uint32_t kClients = 4;
  // Three waves of connections: all-old, reload-lands-mid-wave, all-new.
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3 * kClients).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  LoadGenOptions load;
  load.port = port;
  load.clients = kClients;
  load.requests_per_client = 40;
  load.pipeline = 4;
  load.m = 6;
  load.num_users = f.train.num_rows();

  // Wave 1: old generation only.
  std::atomic<uint64_t> torn{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_old[user])) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(torn.load(), 0u);

  // Overwrite the artifact with a differently-seeded model and latch the
  // reload; wave 2 runs while the swap lands. Every reply must be
  // entirely old-generation or entirely new-generation.
  DaemonFixture f2 =
      DaemonFixture::Make("daemon_reload_load.oclr", /*seed=*/97);
  const auto oracle_new = Oracle(f2.model, f.train, 6);
  ASSERT_EQ(::raise(SIGHUP), 0);

  std::atomic<uint64_t> old_seen{0};
  std::atomic<uint64_t> new_seen{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (ReplyMatches(line, oracle_old[user])) {
      old_seen.fetch_add(1, std::memory_order_relaxed);
    } else if (ReplyMatches(line, oracle_new[user])) {
      new_seen.fetch_add(1, std::memory_order_relaxed);
    } else {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(torn.load(), 0u)
      << "a reply matched neither the old nor the new generation";
  EXPECT_EQ(old_seen.load() + new_seen.load(),
            kClients * load.requests_per_client);

  // The latch is consumed by the first accept/read poll of wave 2, so by
  // wave 3 every worker serves the new generation exclusively.
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kReloads], 1u);
  std::atomic<uint64_t> stale{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_new[user])) {
      stale.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(stale.load(), 0u)
      << "a worker kept serving the old generation after the reload";

  serve_thread.join();
  f.Cleanup();
}

// ---------------------------------------------------- load shedding

TEST(ConcurrentDaemonTest, MaxConnectionsCapShedsWith503StyleReply) {
  DaemonFixture f = DaemonFixture::Make("daemon_shed.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.num_workers = 1;
  options.max_connections = 2;  // A and B are admitted, C is shed
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  // A and B are live admitted connections (completed round trips prove
  // it) — under the epoll core an idle keep-alive connection costs no
  // worker, so both stay open while the single worker serves either.
  RawClient a;
  ASSERT_TRUE(a.Connect(port));
  ASSERT_TRUE(a.Send(R"({"user":0,"m":3})"));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));
  RawClient b;
  ASSERT_TRUE(b.Connect(port));
  ASSERT_TRUE(b.Send(R"({"user":1,"m":3})"));
  ASSERT_TRUE(b.ReadLine(&line));

  // C exceeds the admission cap: 503 with the retry contract, then close.
  RawClient c;
  ASSERT_TRUE(c.Connect(port));
  ASSERT_TRUE(c.ReadLine(&line)) << "shed connection must get a reply";
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_FALSE(parsed->Find("ok")->boolean());
  ASSERT_NE(parsed->Find("code"), nullptr);
  EXPECT_EQ(parsed->Find("code")->number(), 503.0);
  ASSERT_NE(parsed->Find("retry_after_ms"), nullptr);
  EXPECT_FALSE(c.ReadLine(&line)) << "shed connection must be closed";
  c.Close();

  // A and B were never disturbed by the shed.
  ASSERT_TRUE(a.Send(R"({"user":2,"m":3})"));
  ASSERT_TRUE(a.ReadLine(&line));
  a.Close();
  b.Close();
  serve_thread.join();
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.conn[ConnMetrics::kShed], 1u);
  EXPECT_EQ(stats.conn[ConnMetrics::kCapped], 1u);
  EXPECT_EQ(stats.conn[ConnMetrics::kOpen], 0u);
  f.Cleanup();
}

TEST(ConcurrentDaemonTest, ConnectionCoreCountersAreExact) {
  DaemonFixture f = DaemonFixture::Make("daemon_conn_counters.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.num_workers = 1;
  // A tiny outbound cap so one never-reading client trips the
  // slow-consumer policy deterministically: a single burst of large
  // replies overflows it long before the socket buffer helps.
  options.max_outbound_bytes = 16 << 10;
  options.io_timeout_ms = 50;
  options.idle_timeout_ms = 0;  // no 408s in this test
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  // Two live connections; the stats verb must report the open gauge
  // including both (the reply travels over one of them).
  RawClient a;
  ASSERT_TRUE(a.Connect(port));
  RawClient b;
  // A tiny receive window so the kernel cannot absorb B's reply flood
  // for it — the backlog must land in the server's outbound buffer.
  ASSERT_TRUE(b.Connect(port, /*rcvbuf=*/4096));
  ASSERT_TRUE(a.Send(R"({"cmd":"ping"})"));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));
  ASSERT_TRUE(a.Send(R"({"cmd":"stats"})"));
  ASSERT_TRUE(a.ReadLine(&line));
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  ASSERT_NE(parsed->Find("connections_open"), nullptr);
  EXPECT_EQ(parsed->Find("connections_open")->number(), 2.0);
  ASSERT_NE(parsed->Find("connections_slow_closed"), nullptr);
  EXPECT_EQ(parsed->Find("connections_slow_closed")->number(), 0.0);
  ASSERT_NE(parsed->Find("accept_emfile"), nullptr);
  EXPECT_EQ(parsed->Find("accept_emfile")->number(), 0.0);

  // B floods pipelined wide requests and never reads a byte: its reply
  // backlog must hit the outbound cap (or stall past the write-progress
  // deadline) and the connection must be dropped — never a blocked
  // worker, never an unbounded buffer. The flood's replies (~6 MB) are
  // sized past tcp_wmem's autotuning ceiling (4 MB on stock kernels) so
  // the kernel cannot absorb them all on B's behalf.
  std::string burst;
  for (int i = 0; i < 8000; ++i) burst += R"({"user":1,"m":30})" "\n";
  ASSERT_TRUE(b.Send(burst));
  std::string probe_line;
  bool slow_closed_seen = false;
  for (int tries = 0; tries < 100 && !slow_closed_seen; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slow_closed_seen = server.Stats().conn[ConnMetrics::kSlowClosed] > 0;
  }
  EXPECT_TRUE(slow_closed_seen)
      << "a never-reading client was not dropped by the slow-consumer "
         "policy";

  // A is still healthy after B's demise, and the peak outbound gauge
  // recorded B's backlog.
  ASSERT_TRUE(a.Send(R"({"user":2,"m":3})"));
  ASSERT_TRUE(a.ReadLine(&probe_line));
  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.conn[ConnMetrics::kSlowClosed], 1u);
  EXPECT_GT(stats.conn[ConnMetrics::kPeakOutbound], 0u);
  EXPECT_EQ(stats.conn[ConnMetrics::kShed], 0u);

  b.Close();
  a.Close();
  // The third accept ends the bounded loop.
  RawClient last;
  ASSERT_TRUE(last.Connect(port));
  last.Close();
  serve_thread.join();
  EXPECT_EQ(server.Stats().conn[ConnMetrics::kOpen], 0u);
  f.Cleanup();
}

TEST(ConcurrentDaemonTest, ClientVanishingWithUnreadRepliesDoesNotKillServer) {
  DaemonFixture f = DaemonFixture::Make("daemon_sigpipe.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  RequestServer server(&registry, options);
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 2).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  // Hundreds of pipelined requests whose replies overflow the socket
  // buffer, then vanish without reading any of them: the worker's
  // batched send hits the reset connection and must surface as an error
  // on THAT connection (MSG_NOSIGNAL), not as a process-killing SIGPIPE.
  {
    RawClient rude;
    ASSERT_TRUE(rude.Connect(port));
    std::string burst;
    for (int i = 0; i < 400; ++i) burst += R"({"user":1,"m":30})" "\n";
    (void)rude.Send(burst);
    rude.Close();  // unread replies pending -> RST at the server
  }

  // The server (and its one worker) must still be alive and correct.
  RawClient polite;
  ASSERT_TRUE(polite.Connect(port));
  ASSERT_TRUE(polite.Send(R"({"user":2,"m":3})"));
  std::string line;
  ASSERT_TRUE(polite.ReadLine(&line));
  auto reply = JsonValue::Parse(line);
  ASSERT_TRUE(reply.ok()) << line;
  EXPECT_TRUE(reply->Find("ok")->boolean());
  polite.Close();
  serve_thread.join();
  f.Cleanup();
}

// ------------------------------------------------------ load generator

TEST(LoadGenTest, DrivesAndMeasuresAConcurrentDaemon) {
  DaemonFixture f = DaemonFixture::Make("daemon_loadgen.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 2;
  RequestServer server(&registry, options);
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  LoadGenOptions load;
  load.port = port;
  load.clients = 3;
  load.requests_per_client = 20;
  load.pipeline = 4;
  load.m = 5;
  load.num_users = f.train.num_rows();
  auto result = RunLoadGen(load);
  serve_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, 60u);
  EXPECT_EQ(result->ok_replies, 60u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_GT(result->requests_per_second, 0.0);
  EXPECT_GE(result->p99_latency_us, result->p50_latency_us);
  EXPECT_GT(result->p50_latency_us, 0.0);

  // Option validation.
  LoadGenOptions bad;
  EXPECT_TRUE(RunLoadGen(bad).status().IsInvalidArgument());
  f.Cleanup();
}

// ------------------------------------------------------ fold-in serving

/// The training matrix's per-item interaction counts — the popularity
/// ranking the registry binds to a dataset-backed model.
std::vector<double> TrainPopularity(const CsrMatrix& train) {
  std::vector<double> pop(train.num_cols(), 0.0);
  for (uint32_t col : train.col_idx()) pop[col] += 1.0;
  return pop;
}

/// The offline fold-in oracle over the SAME context the daemon serves
/// from: in-memory factors (bit-identical to the mmapped binary file),
/// train-degree popularity, daemon-default serve/fold-in options.
std::vector<ScoredItem> HistoryOracle(const DaemonFixture& f,
                                      std::vector<uint32_t> history,
                                      uint32_t m, bool* folded = nullptr) {
  const std::vector<double> pop = TrainPopularity(f.train);
  auto ctx = MakeFoldInContext(f.model, f.config, pop);
  EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
  SanitizeHistory(&history, f.train.num_cols());
  FoldInWorkspace ws;
  std::vector<double> tile;
  std::vector<ScoredItem> selection;
  const ServeOptions serve;
  auto rec = RecommendForHistoryInto(*ctx, history, m, serve.min_score,
                                     serve.block_items, FoldInOptions{}, &ws,
                                     &tile, &selection);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  if (folded != nullptr) *folded = rec->folded;
  return {rec->items.begin(), rec->items.end()};
}

TEST(FoldInServingTest, HistoryRepliesAreBitIdenticalToOfflineOracle) {
  DaemonFixture f = DaemonFixture::Make("daemon_foldin.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // Unsorted input with a duplicate: the daemon must sanitize before the
  // solve and reply exactly as the offline path over the clean history.
  const std::string line = server.HandleLine(
      R"({"cmd":"recommend","history":[9,2,9,0,5],"m":6})");
  bool folded = false;
  const auto oracle = HistoryOracle(f, {0, 2, 5, 9}, 6, &folded);
  EXPECT_TRUE(folded);
  EXPECT_TRUE(ReplyMatchesRanked(line, oracle)) << line;
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("folded")->boolean());
  EXPECT_EQ(parsed->Find("dropped")->number(), 0.0);
  // The history's own items never come back as recommendations.
  for (const JsonValue& entry : parsed->Find("items")->array()) {
    const double item = entry.Find("item")->number();
    EXPECT_TRUE(item != 0.0 && item != 2.0 && item != 5.0 && item != 9.0);
  }

  // Out-of-range ids are dropped (counted in the reply and the stats),
  // not fatal: the remaining ids still fold.
  const std::string dropped_line = server.HandleLine(
      R"({"cmd":"recommend","history":[2,9999,5,123456],"m":6})");
  EXPECT_TRUE(ReplyMatchesRanked(dropped_line, HistoryOracle(f, {2, 5}, 6)))
      << dropped_line;
  auto dropped = JsonValue::Parse(dropped_line);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->Find("dropped")->number(), 2.0);

  const DaemonStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.daemon[DaemonMetrics::kFoldInRequests], 2u);
  EXPECT_EQ(stats.daemon[DaemonMetrics::kHistoryDroppedIds], 2u);
  auto stats_line =
      JsonValue::Parse(server.HandleLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats_line.ok());
  EXPECT_EQ(stats_line->Find("fold_in_requests")->number(), 2.0);
  EXPECT_EQ(stats_line->Find("history_dropped_ids")->number(), 2.0);
  EXPECT_EQ(stats_line->Find("updates")->number(), 0.0);
  f.Cleanup();
}

TEST(FoldInServingTest, EmptyOrFullyOutOfRangeHistoryFallsBackToPopularity) {
  DaemonFixture f = DaemonFixture::Make("daemon_foldin_pop.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);

  // The deterministic fallback: items ranked by training interaction
  // count, engine tie-break (lower id wins).
  const std::vector<double> pop = TrainPopularity(f.train);
  const std::vector<ScoredItem> expect = TopM(pop, 5, {});

  const std::string empty_line =
      server.HandleLine(R"({"cmd":"recommend","history":[],"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(empty_line, expect)) << empty_line;
  auto parsed = JsonValue::Parse(empty_line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("folded")->boolean());

  // A history whose every id is beyond the catalog sanitizes to empty and
  // must answer the identical fallback (plus the drop count).
  const std::string oor_line = server.HandleLine(
      R"({"cmd":"recommend","history":[5000,6000],"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(oor_line, expect)) << oor_line;
  auto oor = JsonValue::Parse(oor_line);
  ASSERT_TRUE(oor.ok());
  EXPECT_FALSE(oor->Find("folded")->boolean());
  EXPECT_EQ(oor->Find("dropped")->number(), 2.0);
  f.Cleanup();
}

TEST(FoldInServingTest, MalformedHistoryAndUpdateRequestsAnswerErrors) {
  DaemonFixture f = DaemonFixture::Make("daemon_foldin_err.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  // "nodata": same model without a bound dataset — updates must refuse.
  ASSERT_TRUE(registry.Load("nodata", f.model_path).ok());
  // "dot": a non-OCuLaR factor file — fold-in must refuse.
  const std::string dot_path = TempPath("daemon_foldin_err_dot.oclr");
  {
    DenseMatrix users(4, 3);
    DenseMatrix items(6, 3);
    ASSERT_TRUE(
        SaveDotProductFactors("wALS", 3, 0.1, users, items, dot_path).ok());
  }
  ASSERT_TRUE(registry.Load("dot", dot_path).ok());
  RequestServer server(&registry);

  for (const std::string bad : {
           // fold-in shape errors
           std::string(R"({"history":"0,1,2"})"),
           std::string(R"({"history":[1,-2]})"),
           std::string(R"({"history":[1.5]})"),
           std::string(R"({"history":["a"]})"),
           std::string(R"({"user":1,"history":[2]})"),
           std::string(R"({"history":[2],"exclude":[3]})"),
           std::string(R"({"history":[1],"model":"dot"})"),
           std::string(R"({"history":[1],"model":"absent"})"),
           // update shape errors
           std::string(R"({"cmd":"update"})"),
           std::string(R"({"cmd":"update","adds":[[1,2,3]]})"),
           std::string(R"({"cmd":"update","adds":[[1,-2]]})"),
           std::string(R"({"cmd":"update","adds":[3]})"),
           std::string(R"({"cmd":"update","adds":[[1,2]],"sweeps":0})"),
           std::string(R"({"cmd":"update","adds":[[1,2]],"model":"absent"})"),
           std::string(R"({"cmd":"update","adds":[[1,2]],"model":"nodata"})"),
       }) {
    auto err = JsonValue::Parse(server.HandleLine(bad));
    ASSERT_TRUE(err.ok()) << bad;
    EXPECT_FALSE(err->Find("ok")->boolean()) << bad;
    EXPECT_NE(err->Find("error"), nullptr) << bad;
  }
  // No update may have landed: same registry generation throughout.
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kUpdates], 0u);
  f.Cleanup();
  std::remove(dot_path.c_str());
}

TEST(FoldInServingTest, UpdateRefusesIdUint32MaxAndKeepsTheBoundMatrix) {
  // [4294967295, 0] used to be accepted: the grown shape wrapped to 0
  // rows and the merged training matrix shifted every row by one entry.
  DaemonFixture f = DaemonFixture::Make("daemon_update_u32max.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);
  const auto before = registry.Get("default");

  for (const std::string& bad : {
           std::string(R"({"cmd":"update","adds":[[4294967295,0]]})"),
           std::string(R"({"cmd":"update","adds":[[0,4294967295]]})"),
           std::string(R"({"cmd":"update","adds":[[1,2],[4294967296,0]]})"),
       }) {
    auto err = JsonValue::Parse(server.HandleLine(bad));
    ASSERT_TRUE(err.ok()) << bad;
    EXPECT_FALSE(err->Find("ok")->boolean()) << bad;
    ASSERT_NE(err->Find("error"), nullptr) << bad;
  }
  const auto after = registry.Get("default");
  EXPECT_EQ(after.get(), before.get());
  ASSERT_NE(after->train, nullptr);
  EXPECT_EQ(*after->train, PackedRows::Pack(f.train));
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kUpdates], 0u);
  f.Cleanup();
}

TEST(FoldInServingTest, UpdateVerbPublishesANewGenerationServingNewUsers) {
  DaemonFixture f = DaemonFixture::Make("daemon_update.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.serve.m = 5;
  RequestServer server(&registry, options);

  const auto before = registry.Get("default");
  // New user 50 appears with three purchases; replicate offline FIRST
  // (the daemon's publish overwrites the artifact in place).
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {50, 0}, {50, 7}, {50, 12}};
  const test::FoldInReplay oracle =
      test::ReplayFoldIn(f.model_path, f.train, adds);

  auto reply = JsonValue::Parse(server.HandleLine(
      R"({"cmd":"update","adds":[[50,0],[50,7],[50,12]],"sweeps":3})"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->Find("ok")->boolean())
      << server.Stats().daemon[DaemonMetrics::kErrors];
  EXPECT_EQ(reply->Find("users")->number(), 51.0);
  EXPECT_EQ(reply->Find("items")->number(), 30.0);
  EXPECT_GE(reply->Find("publish_us")->number(), 0.0);

  // A new generation is live: fresh registry pointer, grown shape, and
  // the overwritten artifact stays valid for a later SIGHUP reload.
  const auto after = registry.Get("default");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->store.num_users(), 51u);
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kUpdates], 1u);

  // The brand-new user is servable at once, bit-identical to the offline
  // replay (same factors, same merged-train exclusions).
  const auto expect = Oracle(oracle.model, oracle.train, 5);
  const std::string served =
      server.HandleLine(R"({"cmd":"recommend","user":50,"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(served, expect[50])) << served;
  // Old users keep serving the model consistently too: their rows and
  // the item factors are the ones the update left alone.
  const std::string old_user =
      server.HandleLine(R"({"cmd":"recommend","user":3,"m":5})");
  EXPECT_TRUE(ReplyMatchesRanked(old_user, expect[3])) << old_user;
  f.Cleanup();
}

TEST(FoldInServingTest, UpdateGrowsTheModelToCoverEveryDatasetRow) {
  // The bound dataset has a user (row 60) the 50-user model never saw.
  DaemonFixture f = DaemonFixture::Make("daemon_wide_dataset.oclr");
  const std::vector<std::pair<uint32_t, uint32_t>> extra = {{60, 3}};
  auto wide = std::make_shared<const CsrMatrix>(
      f.train.WithEntries(extra, 61, 30).value());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, wide).ok());
  RequestServer server(&registry);

  auto reply = JsonValue::Parse(server.HandleLine(
      R"({"cmd":"update","adds":[[0,7]],"sweeps":2})"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->Find("ok")->boolean())
      << reply->Find("error")->string();
  EXPECT_EQ(reply->Find("users")->number(), 61.0);
  EXPECT_EQ(registry.Get("default")->num_users(), 61u);
  f.Cleanup();
}

TEST(FoldInServingTest, NewItemsFoldInFirstAndNewRowsKeepTheBiasPinned) {
  // A model with the bias extension grows on both sides: item 30 is
  // bought by two serving users, item 31 only by a new one, and the bound
  // dataset has a row (52) past the model's 50 users.
  const CsrMatrix train = test::RandomCsr(50, 30, 400, 11);
  OcularConfig config;
  config.k = 5;
  config.lambda = 0.5;
  config.max_sweeps = 6;
  config.use_biases = true;
  const std::string path = TempPath("daemon_grow_both.oclr");
  ASSERT_TRUE(SaveModelBinary(OcularTrainer(config).Fit(train).value().model,
                              config, path)
                  .ok());
  const CsrMatrix wide = train.WithEntries({{{52, 4}}}, 53, 30).value();
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {3, 30}, {7, 30}, {50, 31}};
  const test::FoldInReplay oracle = test::ReplayFoldIn(path, wide, adds);

  ModelRegistry registry;
  ASSERT_TRUE(registry
                  .Load("default", path,
                        std::make_shared<const CsrMatrix>(wide))
                  .ok());
  RequestServer server(&registry);
  auto reply = JsonValue::Parse(server.HandleLine(
      R"({"cmd":"update","adds":[[3,30],[7,30],[50,31]]})"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->Find("ok")->boolean()) << reply->Find("error")->string();
  EXPECT_EQ(reply->Find("users")->number(), 53.0);
  EXPECT_EQ(reply->Find("items")->number(), 32.0);
  EXPECT_EQ(reply->Find("users_refreshed")->number(), 5.0);

  // The artifact is the offline replay's, byte for byte.
  const std::string oracle_path = TempPath("daemon_grow_both_oracle.oclr");
  ASSERT_TRUE(SaveModelBinary(oracle.model, oracle.config, oracle_path).ok());
  const auto bytes = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes(path), bytes(oracle_path));
  // New rows carry the pinned 1 whether or not they had history.
  const OcularModel& grown = oracle.model;
  for (uint32_t u = 50; u < 53; ++u) {
    EXPECT_EQ(grown.user_factors().At(u, config.k + 1), 1.0) << "user " << u;
  }
  for (uint32_t i = 30; i < 32; ++i) {
    EXPECT_EQ(grown.item_factors().At(i, config.k), 1.0) << "item " << i;
  }
  EXPECT_EQ(*registry.Get("default")->train, PackedRows::Pack(oracle.train));
  std::remove(path.c_str());
  std::remove(oracle_path.c_str());
  std::remove(UpdateJournal::PathFor(path).c_str());
}

TEST(UpdateMemoryTest, OneUpdateHoldsNoFactorCopyAtItsPeak) {
  // Factors that outweigh the interaction matrix several times over, so a
  // factor copy cannot hide in the slack.
  const uint32_t users = 3000;
  const uint32_t items = 400;
  OcularConfig config;
  config.k = 32;
  config.lambda = 1.0;
  Rng rng = test::MakeRng();
  DenseMatrix fu(users, config.k);
  DenseMatrix fi(items, config.k);
  fu.FillUniform(&rng, 0.0, 0.2);
  fi.FillUniform(&rng, 0.0, 0.2);
  const std::string path = TempPath("update_peak.oclr");
  std::remove(UpdateJournal::PathFor(path).c_str());
  ASSERT_TRUE(
      SaveModelBinary(OcularModel(std::move(fu), std::move(fi)), config, path)
          .ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry
                  .Load("default", path,
                        std::make_shared<const CsrMatrix>(
                            test::RandomCsr(users, items, 12000, 3)))
                  .ok());
  RequestServer server(&registry);
  ASSERT_NE(server.HandleLine(R"({"cmd":"recommend","user":0,"m":5})")
                .find(R"("ok":true)"),
            std::string::npos);

  const int64_t before = g_live_bytes.load();
  g_peak_live_bytes.store(before);
  const std::string reply = server.HandleLine(
      R"({"cmd":"update","adds":[[7,3],[9,11],[2999,399]],"sweeps":1})");
  const int64_t peak = g_peak_live_bytes.load() - before;
  ASSERT_NE(reply.find(R"("ok":true)"), std::string::npos) << reply;

  // The packed merged rows and the writer's one buffer, plus slack: four
  // doubles per item for the new generation's popularity and item sums,
  // and 16 KiB for the folded rows, the solver's scratch, the journal
  // record and the registry's bookkeeping. No decoded copy of the merged
  // matrix fits: it would take four bytes per positive, not one.
  const auto merged = registry.Get("default")->train;
  ASSERT_NE(merged, nullptr);
  const int64_t factor_bytes =
      int64_t{users + items} * config.k * sizeof(double);
  const auto merged_bytes =
      static_cast<int64_t>(merged->row_ptr().size() * sizeof(uint64_t) +
                           merged->bytes().size());
  const int64_t slack =
      4 * int64_t{items} * sizeof(double) + (int64_t{16} << 10);
  EXPECT_LE(peak, merged_bytes + static_cast<int64_t>(kWriteBufferBytes) +
                      slack)
      << "peak live heap " << peak << " B; merged matrix " << merged_bytes
      << " B, write buffer " << kWriteBufferBytes << " B, one factor copy "
      << factor_bytes << " B";
  std::remove(path.c_str());
  std::remove(UpdateJournal::PathFor(path).c_str());
}

TEST(UpdateQualityTest, FoldInRecallStaysWithinTwoPercentOfRetraining) {
  // The gate the fold-in update replaced the retrain under: on a B2B
  // shape, one stream of updates like the live-b2b benchmark's (20 adds
  // each, drawn off the training matrix) is replayed through the daemon's
  // fold-in and through one-sweep UpdateModel warm starts, and recall@50
  // on the held-out quarter must stay within 2% relative.
  Rng data_rng = test::MakeRng(7);
  auto data = MakeB2BLike(0.05, &data_rng);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  Rng split_rng = test::MakeRng(8);
  auto split =
      SplitInteractions(data->dataset.interactions(), 0.75, &split_rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const CsrMatrix& train = split->train;
  OcularConfig config;
  config.k = 24;
  config.lambda = 1.0;
  config.max_sweeps = 10;
  OcularModel model = OcularTrainer(config).Fit(train).value().model;
  const std::string path = TempPath("update_quality.oclr");
  ASSERT_TRUE(SaveModelBinary(model, config, path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry
                  .Load("default", path, std::make_shared<const CsrMatrix>(
                                             train))
                  .ok());
  RequestServer::Options options;
  options.update_journal = false;
  RequestServer server(&registry, options);
  OcularConfig one_sweep = config;
  one_sweep.max_sweeps = 1;
  CsrMatrix merged = train;
  Rng add_rng = test::MakeRng(9);
  for (int n = 0; n < 16; ++n) {
    std::vector<std::pair<uint32_t, uint32_t>> adds;
    std::string line = R"({"cmd":"update","adds":[)";
    while (adds.size() < 20) {
      const auto u =
          static_cast<uint32_t>(add_rng.UniformInt(train.num_rows()));
      const auto i =
          static_cast<uint32_t>(add_rng.UniformInt(train.num_cols()));
      if (train.HasEntry(u, i)) continue;
      line += (adds.empty() ? "[" : ",[") + std::to_string(u) + "," +
              std::to_string(i) + "]";
      adds.emplace_back(u, i);
    }
    const std::string reply = server.HandleLine(line + R"(],"sweeps":1})");
    ASSERT_NE(reply.find(R"("ok":true)"), std::string::npos) << reply;
    merged = merged.WithEntries(adds, merged.num_rows(), merged.num_cols())
                 .value();
    model = UpdateModel(std::move(model), merged, one_sweep).value().model;
  }
  ASSERT_EQ(*registry.Get("default")->train, PackedRows::Pack(merged));

  auto folded = LoadModelAuto(path);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const double fold_in_recall =
      EvaluateRankingAtM(OcularModelRecommender(folded->model), merged,
                         split->test, 50)
          .value()
          .recall;
  const double retrain_recall =
      EvaluateRankingAtM(OcularModelRecommender(model), merged, split->test,
                         50)
          .value()
          .recall;
  EXPECT_LE(std::abs(fold_in_recall - retrain_recall), 0.02 * retrain_recall)
      << "recall@50: fold-in " << fold_in_recall << ", retrain "
      << retrain_recall;
  std::remove(path.c_str());
}

TEST(ConcurrentDaemonTest, UpdateUnderLoadNeverServesATornModel) {
  DaemonFixture f = DaemonFixture::Make("daemon_update_load.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());

  RequestServer::Options options;
  options.serve.m = 6;
  options.num_workers = 3;
  RequestServer server(&registry, options);

  const auto oracle_old = Oracle(f.model, f.train, 6);
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {50, 1}, {50, 4}, {51, 2}};
  const test::FoldInReplay updated =
      test::ReplayFoldIn(f.model_path, f.train, adds);
  const auto oracle_new = Oracle(updated.model, updated.train, 6);

  constexpr uint32_t kClients = 4;
  // Three waves of recommend connections plus the updater's own.
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3 * kClients + 1).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  LoadGenOptions load;
  load.port = port;
  load.clients = kClients;
  load.requests_per_client = 40;
  load.pipeline = 4;
  load.m = 6;
  load.num_users = f.train.num_rows();  // only pre-update users queried

  // Wave 1: old generation only.
  std::atomic<uint64_t> torn{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_old[user])) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(torn.load(), 0u);

  // Wave 2: the update lands mid-wave on its own connection while the
  // fleet keeps querying. Every reply must be ENTIRELY old-generation or
  // ENTIRELY new-generation — a mixed ranking means a torn model.
  std::thread updater([port] {
    RawClient u;
    ASSERT_TRUE(u.Connect(port));
    ASSERT_TRUE(u.Send(
        R"({"cmd":"update","adds":[[50,1],[50,4],[51,2]],"sweeps":2})"));
    std::string reply;
    ASSERT_TRUE(u.ReadLine(&reply));
    auto parsed = JsonValue::Parse(reply);
    ASSERT_TRUE(parsed.ok()) << reply;
    EXPECT_TRUE(parsed->Find("ok")->boolean()) << reply;
    u.Close();
  });
  std::atomic<uint64_t> old_seen{0};
  std::atomic<uint64_t> new_seen{0};
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (ReplyMatches(line, oracle_old[user])) {
      old_seen.fetch_add(1, std::memory_order_relaxed);
    } else if (ReplyMatches(line, oracle_new[user])) {
      new_seen.fetch_add(1, std::memory_order_relaxed);
    } else {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  updater.join();
  EXPECT_EQ(torn.load(), 0u)
      << "a reply matched neither the old nor the updated generation";
  EXPECT_EQ(old_seen.load() + new_seen.load(),
            kClients * load.requests_per_client);
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kUpdates], 1u);

  // Wave 3: the update has published; every worker serves the new
  // generation exclusively, including the just-added users.
  std::atomic<uint64_t> stale{0};
  load.num_users = updated.train.num_rows();
  load.on_reply = [&](uint32_t user, const std::string& line) {
    if (!ReplyMatches(line, oracle_new[user])) {
      stale.fetch_add(1, std::memory_order_relaxed);
    }
  };
  ASSERT_TRUE(RunLoadGen(load).ok());
  EXPECT_EQ(stale.load(), 0u)
      << "a worker kept serving the pre-update generation";

  serve_thread.join();
  f.Cleanup();
}

TEST(LoadGenTest, HistoryTrafficExercisesTheFoldInPath) {
  DaemonFixture f = DaemonFixture::Make("daemon_loadgen_hist.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 2;
  RequestServer server(&registry, options);
  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 2).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0) << "RunTcpLoop never started listening";

  std::atomic<uint64_t> history_replies{0};
  std::atomic<uint64_t> user_replies{0};
  LoadGenOptions load;
  load.port = port;
  load.clients = 2;
  load.requests_per_client = 20;
  load.pipeline = 4;
  load.m = 5;
  load.num_users = f.train.num_rows();
  load.history_every = 2;  // every other request folds in
  load.history_len = 5;
  load.num_items = f.train.num_cols();
  load.on_history_reply = [&](std::span<const uint32_t> history,
                              const std::string& line) {
    EXPECT_EQ(history.size(), 5u);
    EXPECT_EQ(line.rfind("{\"ok\":true", 0), 0u) << line;
    history_replies.fetch_add(1, std::memory_order_relaxed);
  };
  load.on_reply = [&](uint32_t, const std::string&) {
    user_replies.fetch_add(1, std::memory_order_relaxed);
  };
  auto result = RunLoadGen(load);
  serve_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(history_replies.load(), 20u);  // every even slot of 2x20
  EXPECT_EQ(user_replies.load(), 20u);
  EXPECT_EQ(server.Stats().daemon[DaemonMetrics::kFoldInRequests], 20u);

  // The generator itself is deterministic and refuses a missing catalog.
  EXPECT_EQ(LoadGenHistory(7, 5, 30), LoadGenHistory(7, 5, 30));
  LoadGenOptions bad = load;
  bad.num_items = 0;
  EXPECT_TRUE(RunLoadGen(bad).status().IsInvalidArgument());
  f.Cleanup();
}

}  // namespace
}  // namespace ocular
