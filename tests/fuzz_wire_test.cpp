// Seeded, deterministic fuzz sweep over the daemon's untrusted wire
// surface: byte-noise, truncation, splicing, oversized fields, and deep
// nesting against (1) the JSON parser alone, (2) RequestServer::HandleLine,
// and (3) the full TCP line protocol. The contract under fuzz: never
// crash, never hang, answer every non-empty line with one well-formed
// {"ok":...} object, and keep serving correct replies afterwards. The CI
// chaos job runs this binary under AddressSanitizer so an out-of-bounds
// parse is a hard failure, not luck.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/model_store.h"
#include "core/ocular_recommender.h"
#include "serving/batch.h"
#include "serving/daemon.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "test_util.h"

namespace ocular {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// splitmix64: the whole sweep is reproducible from the seed constants
// below — a failure prints its iteration index, which pins the input.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seed corpus: well-formed requests of every verb the daemon speaks
/// (except quit — a mutant surviving as a literal quit would end a fuzz
/// connection early) plus already-hostile shapes.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* corpus = new std::vector<std::string>{
      R"({"cmd":"recommend","user":3,"m":10})",
      R"({"cmd":"recommend","model":"default","user":0,"m":1})",
      R"({"cmd":"recommend","user":7,"exclude":[1,5,9],"m":4})",
      R"({"cmd":"recommend","history":[5,1,5,9],"m":6})",
      R"({"cmd":"update","adds":[[12,3],[99,7]],"sweeps":2})",
      R"({"cmd":"update","adds":[[0,0]],"num_users":64,"num_items":64})",
      R"({"cmd":"models"})",
      R"({"cmd":"stats"})",
      R"({"user":1e9,"m":-3})",
      R"({"user":0,"m":1.5,"min_score":"high"})",
      R"({"cmd":42,"user":[],"m":{}})",
      R"([{"user":0}])",
      R"("just a string")",
      R"({"user":0,"exclude":[999999999,-1,3.14]})",
      R"({"history":["a",null,true,-7]})",
      std::string("{\"u\0ser\":0,\"m\":\"\\ud800\"}", 24),
      R"({{{{]]]]}}}})",
      std::string("nul\0byte{\"user\":0}", 18),
      "{\"user\":0,\"m\":4}   trailing garbage",
  };
  return *corpus;
}

/// One deterministic mutant: pick a seed line, apply 1-3 mutations, and
/// sanitize so the line stays a single wire line (no '\n') that the
/// daemon will actually answer (non-empty, not a lone '\r').
std::string Mutant(uint64_t* rng) {
  const auto& corpus = Corpus();
  std::string line = corpus[SplitMix(rng) % corpus.size()];
  const uint64_t mutations = 1 + SplitMix(rng) % 3;
  for (uint64_t m = 0; m < mutations; ++m) {
    switch (SplitMix(rng) % 5) {
      case 0: {  // flip a byte
        if (line.empty()) break;
        line[SplitMix(rng) % line.size()] =
            static_cast<char>(1 + SplitMix(rng) % 255);
        break;
      }
      case 1: {  // truncate
        if (line.empty()) break;
        line.resize(SplitMix(rng) % line.size());
        break;
      }
      case 2: {  // insert noise bytes
        const size_t at = line.empty() ? 0 : SplitMix(rng) % line.size();
        std::string noise;
        for (uint64_t n = 1 + SplitMix(rng) % 8; n > 0; --n) {
          noise.push_back(static_cast<char>(1 + SplitMix(rng) % 255));
        }
        line.insert(at, noise);
        break;
      }
      case 3: {  // duplicate a slice
        if (line.empty()) break;
        const size_t from = SplitMix(rng) % line.size();
        const size_t len = 1 + SplitMix(rng) % (line.size() - from);
        line.insert(SplitMix(rng) % line.size(), line.substr(from, len));
        break;
      }
      case 4: {  // splice the head of another seed onto the tail
        const std::string& other = corpus[SplitMix(rng) % corpus.size()];
        const size_t keep = SplitMix(rng) % (line.size() + 1);
        line = line.substr(0, keep) +
               other.substr(other.size() - SplitMix(rng) % (other.size() + 1));
        break;
      }
    }
  }
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  if (line.empty() || line == "\r") line = "x";
  return line;
}

/// Structured hostile inputs the random mutator is unlikely to produce:
/// deep nesting (the parser's depth cap must answer, not smash the
/// stack), oversized scalars, and wide containers.
std::vector<std::string> StructuredHostiles() {
  std::vector<std::string> lines;
  lines.push_back(std::string(2000, '['));
  lines.push_back(std::string(2000, '[') + "0" + std::string(2000, ']'));
  {
    std::string nested;
    for (int d = 0; d < 500; ++d) nested += "{\"a\":";
    nested += "1";
    nested.append(500, '}');
    lines.push_back(nested);
  }
  lines.push_back("{\"user\":" + std::string(400, '9') + "}");
  lines.push_back("{\"user\":1" + std::string(400, '0') + ".5e308}");
  lines.push_back("{\"m\":4,\"user\":0,\"pad\":\"" + std::string(100000, 'a') +
                  "\"}");
  {
    std::string wide = "{\"user\":0,\"exclude\":[";
    for (int i = 0; i < 20000; ++i) {
      wide += std::to_string(i);
      wide.push_back(',');
    }
    wide.back() = ']';
    wide.push_back('}');
    lines.push_back(wide);
  }
  return lines;
}

TEST(WireFuzzTest, JsonParserSurvivesByteNoiseAndHostileShapes) {
  uint64_t rng = 0x0c01a201ull;
  size_t parsed_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string line = Mutant(&rng);
    auto value = JsonValue::Parse(line);  // must not crash or hang
    if (value.ok()) ++parsed_ok;
  }
  // The mutator is gentle enough that some mutants stay valid JSON —
  // proof the sweep exercises the accept path too, not just rejection.
  EXPECT_GT(parsed_ok, 0u);

  for (const std::string& line : StructuredHostiles()) {
    auto value = JsonValue::Parse(line);
    (void)value;  // deep nesting must come back as an error, never UB
  }
  // The depth cap specifically: nested far past kMaxDepth is an error.
  EXPECT_FALSE(
      JsonValue::Parse(std::string(2000, '[') + std::string(2000, ']')).ok());
}

/// A tiny served model shared by the HandleLine and TCP sweeps.
struct FuzzFixture {
  CsrMatrix train;
  OcularModel model;
  std::string model_path;
  std::unique_ptr<ModelRegistry> registry;

  static FuzzFixture Make(const std::string& file) {
    FuzzFixture f;
    f.train = test::RandomCsr(40, 24, 300, 7);
    OcularConfig config;
    config.k = 4;
    config.lambda = 0.5;
    config.max_sweeps = 5;
    config.seed = 13;
    OcularTrainer trainer(config);
    f.model = trainer.Fit(f.train).value().model;
    f.model_path = TempPath(file);
    EXPECT_TRUE(SaveModelBinary(f.model, config, f.model_path).ok());
    f.registry = std::make_unique<ModelRegistry>();
    // No dataset bound during the sweep: a mutant that happens to stay a
    // valid update command must fail cleanly (FailedPrecondition) instead
    // of retraining and republishing the model mid-fuzz.
    EXPECT_TRUE(f.registry->Load("default", f.model_path, nullptr).ok());
    return f;
  }

  /// Binds the training matrix (hot-swap, same as SIGHUP reload) so the
  /// post-sweep exact-ranking check runs with real exclusions.
  void BindDataset() {
    EXPECT_TRUE(registry
                    ->Load("default", model_path,
                           std::make_shared<const CsrMatrix>(train))
                    .ok());
  }
};

/// Every reply must be one well-formed JSON object carrying "ok".
void ExpectWellFormedReply(const std::string& reply, const std::string& input) {
  auto parsed = JsonValue::Parse(reply);
  ASSERT_TRUE(parsed.ok()) << "reply not JSON for input: " << input;
  ASSERT_NE(parsed->Find("ok"), nullptr) << "no ok field for: " << input;
}

TEST(WireFuzzTest, HandleLineAnswersEveryMutantWithWellFormedJson) {
  FuzzFixture f = FuzzFixture::Make("fuzz_handle.oclr");
  RequestServer::Options options;
  options.serve.m = 5;
  // The sweep must not churn journal files or retrain on a lucky valid
  // update mutant; correctness of the update path has its own tests.
  options.update_journal = false;
  RequestServer server(f.registry.get(), options);

  uint64_t rng = 0xfee1deadull;
  for (int i = 0; i < 5000; ++i) {
    const std::string line = Mutant(&rng);
    SCOPED_TRACE(i);
    ExpectWellFormedReply(server.HandleLine(line), line);
  }
  for (const std::string& line : StructuredHostiles()) {
    ExpectWellFormedReply(server.HandleLine(line), line.substr(0, 64));
  }

  // After the sweep the server still serves exact rankings.
  f.BindDataset();
  OcularModelRecommender rec(f.model);
  BatchOptions batch;
  batch.m = 5;
  batch.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, f.train, batch).value();
  EXPECT_TRUE(ReplyMatchesRanked(
      server.HandleLine(R"({"cmd":"recommend","user":2,"m":5})"),
      oracle.recommendations[2]));
  std::remove(f.model_path.c_str());
}

TEST(WireFuzzTest, TcpLineProtocolSurvivesPipelinedMutantBursts) {
  FuzzFixture f = FuzzFixture::Make("fuzz_tcp.oclr");
  RequestServer::Options options;
  options.serve.m = 5;
  options.update_journal = false;
  options.num_workers = 2;
  options.io_timeout_ms = 100;
  RequestServer server(f.registry.get(), options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  uint16_t port = 0;
  for (int ms = 0; ms < 10000 && port == 0; ++ms) {
    port = server.bound_port();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Pipelined bursts of mutants: the daemon answers one line per
  // non-empty request line, in order, and the connection stays up.
  uint64_t rng = 0xdecafbadull;
  std::string read_buffer;
  constexpr int kBursts = 40;
  constexpr int kLinesPerBurst = 32;
  for (int burst = 0; burst < kBursts; ++burst) {
    SCOPED_TRACE(burst);
    std::string batch;
    std::vector<std::string> lines;
    for (int n = 0; n < kLinesPerBurst; ++n) {
      std::string line = Mutant(&rng);
      // Keep each line far under max_request_bytes and the batch far
      // under the socket buffers (the client writes before reading).
      if (line.size() > 900) line.resize(900);
      if (line.empty() || line == "\r") line = "x";
      batch += line;
      batch.push_back('\n');
      lines.push_back(std::move(line));
    }
    ASSERT_TRUE(net::SendAll(fd, batch.data(), batch.size()));
    for (int n = 0; n < kLinesPerBurst; ++n) {
      std::string reply;
      ASSERT_TRUE(net::ReadLine(fd, &read_buffer, &reply))
          << "connection died on burst " << burst << " line " << n
          << " input: " << lines[n];
      ExpectWellFormedReply(reply, lines[n]);
    }
  }

  // The connection is still healthy and exact after ~1300 hostile lines.
  f.BindDataset();
  OcularModelRecommender rec(f.model);
  BatchOptions batch_options;
  batch_options.m = 5;
  batch_options.skip_cold_users = false;
  const auto oracle = RecommendForAllUsers(rec, f.train, batch_options).value();
  const std::string clean = "{\"cmd\":\"recommend\",\"user\":4,\"m\":5}\n";
  ASSERT_TRUE(net::SendAll(fd, clean.data(), clean.size()));
  std::string reply;
  ASSERT_TRUE(net::ReadLine(fd, &read_buffer, &reply));
  EXPECT_TRUE(ReplyMatchesRanked(reply, oracle.recommendations[4])) << reply;
  ::close(fd);

  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(ShutdownWatch().Requested());
  EXPECT_GE(server.Stats().daemon[DaemonMetrics::kRequestsServed],
            static_cast<uint64_t>(kBursts * kLinesPerBurst));
  std::remove(f.model_path.c_str());
}

/// Connects a blocking loopback client with TCP_NODELAY (so 1-byte sends
/// really hit the wire as 1-byte segments, exercising the server's
/// incremental line assembly instead of kernel coalescing).
int ConnectNoDelay(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(WireFuzzTest, OneByteTrickleDeliveryMatchesWholeLineDelivery) {
  FuzzFixture f = FuzzFixture::Make("fuzz_trickle.oclr");
  RequestServer::Options options;
  options.serve.m = 5;
  options.update_journal = false;
  options.num_workers = 1;
  options.io_timeout_ms = 100;
  // A deliberately tiny framing cap so the newline-free trickle below
  // proves the bound without streaming megabytes one byte at a time.
  options.max_request_bytes = 2048;
  RequestServer server(f.registry.get(), options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  uint16_t port = 0;
  for (int ms = 0; ms < 10000 && port == 0; ++ms) {
    port = server.bound_port();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(port, 0);

  // Deterministic corpus: recommend variants, hostile shapes, and seeded
  // mutants. Lines whose reply depends on daemon state (stats) or that
  // could end/alter the session (quit, reload, update) are excluded —
  // the two deliveries below must produce bit-identical reply streams.
  std::vector<std::string> corpus = {
      R"({"cmd":"recommend","user":3,"m":10})",
      R"({"cmd":"recommend","model":"default","user":0,"m":1})",
      R"({"cmd":"recommend","user":7,"exclude":[1,5,9],"m":4})",
      R"({"cmd":"recommend","history":[5,1,5,9],"m":6})",
      R"({"cmd":"models"})",
      R"({"user":1e9,"m":-3})",
      R"({"cmd":42,"user":[],"m":{}})",
      R"({{{{]]]]}}}})",
      "{\"user\":0,\"m\":4}   trailing garbage",
      std::string(300, '[') + "0" + std::string(300, ']'),
      "{\"user\":" + std::string(400, '9') + "}",
  };
  uint64_t rng = 0x721c71eull;
  while (corpus.size() < 40) {
    std::string line = Mutant(&rng);
    if (line.size() > 400) line.resize(400);
    if (line.find("stats") != std::string::npos ||
        line.find("quit") != std::string::npos ||
        line.find("reload") != std::string::npos ||
        line.find("update") != std::string::npos) {
      continue;
    }
    corpus.push_back(std::move(line));
  }

  // Delivery 1: every line dribbled one byte per send(2) — the hardest
  // possible split; the server assembles lines across ~hundreds of
  // 1-byte reads per request.
  std::vector<std::string> trickle_replies;
  {
    const int fd = ConnectNoDelay(port);
    ASSERT_GE(fd, 0);
    std::string read_buffer;
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE(i);
      const std::string framed = corpus[i] + "\n";
      for (const char byte : framed) {
        ASSERT_TRUE(net::SendAll(fd, &byte, 1));
      }
      std::string reply;
      ASSERT_TRUE(net::ReadLine(fd, &read_buffer, &reply))
          << "trickled line " << i << " got no reply: " << corpus[i];
      ExpectWellFormedReply(reply, corpus[i]);
      trickle_replies.push_back(std::move(reply));
    }
    ::close(fd);
  }

  // Delivery 2: the same corpus as whole framed lines on a fresh
  // connection. Byte-boundary splits must be invisible: identical bytes.
  {
    const int fd = ConnectNoDelay(port);
    ASSERT_GE(fd, 0);
    std::string read_buffer;
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE(i);
      const std::string framed = corpus[i] + "\n";
      ASSERT_TRUE(net::SendAll(fd, framed.data(), framed.size()));
      std::string reply;
      ASSERT_TRUE(net::ReadLine(fd, &read_buffer, &reply));
      EXPECT_EQ(reply, trickle_replies[i])
          << "delivery-dependent reply for: " << corpus[i];
    }
    ::close(fd);
  }

  // Buffer bound under trickle: a newline-free 1-byte stream must hit
  // the 413 at max_request_bytes — the line buffer cannot grow past the
  // cap no matter how the bytes arrive.
  {
    const int fd = ConnectNoDelay(port);
    ASSERT_GE(fd, 0);
    size_t sent = 0;
    const char byte = 'z';
    for (size_t i = 0; i < 4096; ++i) {
      if (!net::SendAll(fd, &byte, 1)) break;  // peer closed: RST
      ++sent;
    }
    std::string read_buffer, reply;
    ASSERT_TRUE(net::ReadLine(fd, &read_buffer, &reply))
        << "newline-free trickle must get a 413 reply";
    auto parsed = JsonValue::Parse(reply);
    ASSERT_TRUE(parsed.ok()) << reply;
    EXPECT_FALSE(parsed->Find("ok")->boolean());
    ASSERT_NE(parsed->Find("code"), nullptr);
    EXPECT_EQ(parsed->Find("code")->number(), 413.0);
    EXPECT_FALSE(net::ReadLine(fd, &read_buffer, &reply))
        << "oversize trickle connection must be closed";
    ::close(fd);
  }

  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(ShutdownWatch().Requested());
  std::remove(f.model_path.c_str());
}

}  // namespace
}  // namespace ocular
