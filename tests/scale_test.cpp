// Catalog-scale end-to-end proof for sharded serving: a deterministic
// 2M+-user factor catalog is streamed to disk as an 8-shard shardset
// (peak memory: one shard), served by three fork/exec ocular_served
// replicas behind an in-process FleetServer, and every sampled reply —
// including users at every shard boundary — must be byte-identical to an
// offline oracle answering from the same shardset in-process. The
// generator's purity (any row regenerable in O(k)) is what lets the
// verifier check mmapped bytes without ever holding the full matrix.
//
// Registered with LABELS scale: this runs in a dedicated Release CI job,
// not in the sanitizer lanes.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/model_shard.h"
#include "core/model_store.h"
#include "data/scale.h"
#include "serving/daemon.h"
#include "serving/fleet.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "test_util.h"

namespace ocular {
namespace {

using test::FreePort;
using test::RawClient;
using test::ServedProcess;
using test::WaitForServing;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------- generator properties

TEST(ScaleGeneratorTest, RowsArePureAndOrderIndependent) {
  ScaleCatalogSpec spec;
  spec.num_users = 1000;
  spec.num_items = 32;
  spec.k = 8;
  spec.seed = 123;

  // Regenerating a row — later, out of order, repeatedly — yields the
  // exact same doubles: the oracle property the scale test leans on.
  std::vector<double> a(spec.k), b(spec.k);
  ScaleUserRow(spec, 999, a);
  ScaleUserRow(spec, 0, b);  // interleave another user
  ScaleUserRow(spec, 999, b);
  EXPECT_EQ(a, b);

  // Distinct users and distinct seeds diverge.
  ScaleUserRow(spec, 998, b);
  EXPECT_NE(a, b);
  ScaleCatalogSpec other = spec;
  other.seed = 124;
  ScaleUserRow(other, 999, b);
  EXPECT_NE(a, b);

  // Values live in [min_affinity, max_affinity).
  for (uint32_t u = 0; u < spec.num_users; u += 97) {
    ScaleUserRow(spec, u, a);
    for (double v : a) {
      EXPECT_GE(v, spec.min_affinity);
      EXPECT_LT(v, spec.max_affinity);
    }
  }

  // The item factors, in their K x n_i serving layout, regenerate
  // identically and stay in range too.
  const DenseMatrix items_t = ScaleItemFactorsTransposed(spec);
  ASSERT_EQ(items_t.rows(), spec.k);
  ASSERT_EQ(items_t.cols(), spec.num_items);
  EXPECT_EQ(items_t, ScaleItemFactorsTransposed(spec));
  for (uint32_t d = 0; d < spec.k; ++d) {
    for (const double v : items_t.Row(d)) {
      EXPECT_GE(v, spec.min_affinity);
      EXPECT_LT(v, spec.max_affinity);
    }
  }
}

// ------------------------------------------------- the scale end-to-end

TEST(ScaleShardSetTest, TwoMillionUsersServedBitIdenticalThroughFleet) {
  // An odd user count exercises the uneven EvenSplit (the first
  // num_users % num_shards shards carry one extra user).
  ScaleCatalogSpec spec;
  spec.num_users = 2'000'003;
  spec.num_items = 128;
  spec.k = 8;
  spec.seed = 7;
  const uint32_t kShards = 8;
  const std::string manifest_path = TempPath("scale_catalog.shardset");

  // ---- stream the catalog to disk; peak memory is one shard block.
  BinaryModelMeta meta;
  meta.k = spec.k;
  meta.lambda = 0.5;
  auto map = ShardMap::EvenSplit(spec.num_users, kShards);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  const DenseMatrix items_t = ScaleItemFactorsTransposed(spec);
  const auto write_start = std::chrono::steady_clock::now();
  Status written = WriteShardSetStreaming(
      meta, *map, items_t,
      [&spec](uint32_t user, std::span<double> out) {
        ScaleUserRow(spec, user, out);
      },
      manifest_path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  const auto write_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - write_start)
                            .count();
  std::fprintf(stderr, "streamed %u users x K=%u into %u shards in %lld ms\n",
               spec.num_users, spec.k, kShards,
               static_cast<long long>(write_ms));

  // ---- sample users at every shard edge plus a scattered sweep.
  std::vector<uint32_t> sample = {0, spec.num_users - 1};
  for (uint32_t s = 0; s < map->num_shards(); ++s) {
    sample.push_back(map->begin(s));
    if (map->begin(s) > 0) sample.push_back(map->begin(s) - 1);
    sample.push_back(map->end(s) - 1);
  }
  for (uint64_t i = 1; i <= 32; ++i) {
    sample.push_back(static_cast<uint32_t>((i * 2654435761ULL) %
                                           spec.num_users));
  }
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  // ---- the streamed bytes ARE the generator's rows (mmap vs regenerate).
  {
    auto set = OpenShardSet(manifest_path);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_EQ(set->map, *map) << "manifest round-trips the routing table";
    std::vector<double> expect(spec.k);
    for (uint32_t u : sample) {
      const uint32_t s = set->map.shard_of(u);
      ScaleUserRow(spec, u, expect);
      const std::span<const double> got =
          set->shards[s]->user_factors().Row(u - set->map.begin(s));
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.begin(),
                             got.end()))
          << "user " << u << " shard " << s;
    }
  }

  // ---- offline oracle: the same shardset answered in-process.
  ModelRegistry oracle_registry;
  ASSERT_TRUE(oracle_registry.Load("default", manifest_path).ok());
  RequestServer oracle(&oracle_registry);

  // ---- three real replicas + fleet front tier.
  uint16_t ports[3] = {FreePort(), FreePort(), FreePort()};
  std::unique_ptr<ServedProcess> replicas[3];
  for (int r = 0; r < 3; ++r) {
    ASSERT_NE(ports[r], 0);
    replicas[r] = std::make_unique<ServedProcess>(ServedProcess::Start(
        {"--models=default=" + manifest_path,
         "--port=" + std::to_string(ports[r]), "--io-timeout-ms=100",
         "--journal=0", "--workers=8"},
        "", TempPath("scale_replica" + std::to_string(r) + ".log")));
    ASSERT_TRUE(WaitForServing(ports[r], replicas[r].get(), 60000)) << r;
  }

  FleetServer::Options options;
  options.replicas = {ports[0], ports[1], ports[2]};
  options.num_workers = 4;
  options.io_timeout_ms = 2000;
  options.probe_interval_ms = 200;
  FleetServer fleet(options);
  std::thread fleet_thread([&fleet] {
    EXPECT_TRUE(fleet.RunLoop(0, 0).ok());
  });
  uint16_t fleet_port = 0;
  for (int ms = 0; ms < 10000 && fleet_port == 0; ++ms) {
    fleet_port = fleet.bound_port();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(fleet_port, 0);

  // ---- every sampled reply through the fleet is byte-identical to the
  // oracle, and routes to the shard the pure map says it should.
  RawClient client;
  ASSERT_TRUE(client.Connect(fleet_port));
  for (uint32_t u : sample) {
    const std::string request = R"({"cmd":"recommend","user":)" +
                                std::to_string(u) + R"(,"m":10})";
    const std::string expect = oracle.HandleLine(request);
    ASSERT_TRUE(client.Send(request)) << u;
    std::string got;
    ASSERT_TRUE(client.ReadLine(&got)) << u;
    EXPECT_EQ(got, expect) << "user " << u;

    auto parsed = JsonValue::Parse(got);
    ASSERT_TRUE(parsed.ok()) << got;
    ASSERT_NE(parsed->Find("shard"), nullptr)
        << "sharded replies must carry the shard field: " << got;
    EXPECT_EQ(static_cast<uint32_t>(parsed->Find("shard")->number()),
              map->shard_of(u))
        << "user " << u;
  }
  client.Close();

  // The fleet saw only healthy replicas: nothing shed, nothing 503'd.
  const FleetStatsSnapshot snapshot = fleet.Stats();
  EXPECT_EQ(snapshot.fleet[FleetMetrics::kNoHealthy503s], 0u);
  EXPECT_GE(snapshot.fleet[FleetMetrics::kRequestsProxied], sample.size());

  fleet.Stop();
  fleet_thread.join();
}

}  // namespace
}  // namespace ocular
