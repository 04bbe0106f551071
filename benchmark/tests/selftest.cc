// Self-tests of the benchmark's own measurement code.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "loadgen.h"
#include "measure.h"
#include "oracle.h"
#include "procs.h"
#include "serving/render.h"

namespace ocular::bench {
namespace {

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedDiffers) {
  const auto a = PoissonSchedule(42, 1000.0, 2.0);
  const auto b = PoissonSchedule(42, 1000.0, 2.0);
  const auto c = PoissonSchedule(43, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // About rate x seconds arrivals, ascending, all inside the phase.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000);
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentiles, HighestPercentileWithTenSamplesBeyond) {
  TailPercentile t = HighestSupportedPercentile(OneTo(1000));
  EXPECT_EQ(t.percentile, 0.99);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);

  t = HighestSupportedPercentile(OneTo(999));  // p99 leaves only 9 beyond
  EXPECT_EQ(t.percentile, 0.9);
  EXPECT_EQ(t.value, 900.0);

  t = HighestSupportedPercentile(OneTo(10000));
  EXPECT_EQ(t.percentile, 0.999);
  EXPECT_EQ(t.value, 9990.0);

  t = HighestSupportedPercentile(OneTo(19));
  EXPECT_EQ(t.percentile, 0.0);
  EXPECT_EQ(t.n, 19u);

  EXPECT_EQ(Median(OneTo(5)), 3.0);
}

TEST(Percentiles, TrimmedMeanDropsTheExtremes) {
  EXPECT_EQ(TrimmedMean({5.0, 1.0, 100.0, 2.0, 3.0}), 10.0 / 3.0);
  EXPECT_EQ(TrimmedMean({4.0, 2.0}), 3.0);
  EXPECT_EQ(TrimmedMean({}), 0.0);
}

std::string RenderReply(const std::vector<ScoredItem>& items) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("model");
  w.String("default");
  w.Key("user");
  w.UInt(3);
  WriteRankedItems(&w, items);
  w.EndObject();
  return w.str();
}

/// A score whose wire rendering changes with its next double up.
double WireBoundaryScore() {
  double x = std::nextafter(0.1234567890125, 0.0);
  auto render = [](double v) {
    JsonWriter w;
    w.Double(v);
    return w.str();
  };
  while (render(x) == render(std::nextafter(x, 1.0))) {
    x = std::nextafter(x, 1.0);
  }
  return x;
}

TEST(Oracle, FlagsOneUlpChangeAndSwappedPair) {
  const std::vector<ScoredItem> oracle = {{7, 0.9}, {2, WireBoundaryScore()},
                                          {5, 0.05}};
  EXPECT_EQ(RankedListMismatch(oracle, oracle), "");
  EXPECT_EQ(RankedReplyMismatch(RenderReply(oracle), oracle), "");

  std::vector<ScoredItem> ulp = oracle;
  ulp[0].score = std::nextafter(ulp[0].score, 1.0);
  EXPECT_NE(RankedListMismatch(ulp, oracle), "");
  ulp = oracle;
  ulp[1].score = std::nextafter(ulp[1].score, 1.0);
  EXPECT_NE(RankedReplyMismatch(RenderReply(ulp), oracle), "");

  std::vector<ScoredItem> swapped = oracle;
  std::swap(swapped[0].item, swapped[1].item);
  EXPECT_NE(RankedListMismatch(swapped, oracle), "");
  EXPECT_NE(RankedReplyMismatch(RenderReply(swapped), oracle), "");

  EXPECT_NE(RankedReplyMismatch("{\"ok\":false,\"error\":\"x\"}", oracle), "");
  EXPECT_TRUE(HasRankedShape(RenderReply(oracle), 3));
  EXPECT_FALSE(HasRankedShape(RenderReply(oracle), 2));
}

TEST(Oracle, ReplyLogFlagsADifferentReplyForTheSameKey) {
  ReplyLog log(4);
  EXPECT_TRUE(log.Observe(1, "{\"ok\":true,\"items\":[]}"));
  EXPECT_TRUE(log.Observe(1, "{\"ok\":true,\"items\":[]}"));
  EXPECT_FALSE(log.Observe(1, "{\"ok\":true,\"items\":[1]}"));
  EXPECT_EQ(log.entries()[1].count, 3u);
}

std::vector<Request> TinyStream() {
  std::vector<Request> stream;
  for (uint32_t u = 0; u < 4; ++u) {
    stream.push_back({"{\"user\":" + std::to_string(u) + "}\n", u, false});
  }
  return stream;
}

TEST(FailFrac, RefusedConnectionCountsEveryRequest) {
  const auto port = FreePorts(1);  // nothing listens there
  ASSERT_TRUE(port.ok());
  const std::vector<Request> stream = TinyStream();
  LoadSession::Options o;
  o.port = *port;
  o.connections = 2;
  o.stream = &stream;
  o.num_keys = 4;
  o.drain_s = 0.2;
  LoadSession session(o);
  session.Connect();
  EXPECT_EQ(session.live_connections(), 0u);
  const PhaseResult ph = session.OpenLoop("refused", 500.0, 0.2, 1);
  EXPECT_GT(ph.attempted, 0u);
  EXPECT_EQ(ph.failed, ph.attempted);
  EXPECT_EQ(session.failures().connection_losses, ph.attempted);
  EXPECT_TRUE(ph.latency_ms.empty());
}

TEST(FailFrac, UnansweredRequestsTimeOut) {
  // A listener that never accepts: connects succeed, replies never come.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 16), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<struct sockaddr*>(&addr), &len);

  const std::vector<Request> stream = TinyStream();
  LoadSession::Options o;
  o.port = ntohs(addr.sin_port);
  o.connections = 2;
  o.stream = &stream;
  o.num_keys = 4;
  o.drain_s = 0.2;
  LoadSession session(o);
  session.Connect();
  EXPECT_EQ(session.live_connections(), 2u);
  const PhaseResult ph = session.OpenLoop("silent", 500.0, 0.2, 1);
  EXPECT_GT(ph.attempted, 0u);
  EXPECT_EQ(ph.failed, ph.attempted);
  EXPECT_EQ(session.failures().timeouts, ph.attempted);
  ::close(listener);
}

}  // namespace
}  // namespace ocular::bench
