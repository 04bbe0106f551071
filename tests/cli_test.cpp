// End-to-end subprocess tests of the `ocular` CLI binary: synth -> stats
// -> train -> recommend/explain -> evaluate, plus error paths. The binary
// path is injected by CMake as OCULAR_CLI_PATH.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

namespace ocular {
namespace {

#ifndef OCULAR_CLI_PATH
#define OCULAR_CLI_PATH "ocular"
#endif

/// Runs the CLI with `args`, capturing combined stdout+stderr and the
/// exit code.
struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult RunCli(const std::string& args) {
  const std::string cmd = std::string(OCULAR_CLI_PATH) + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int rc = pclose(pipe);
  result.exit_code = WEXITSTATUS(rc);
  return result;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, NoArgsPrintsUsage) {
  auto r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: ocular"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  auto r = RunCli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command"), std::string::npos);
}

TEST(CliTest, FullPipeline) {
  const std::string data = TempPath("cli_data.tsv");
  const std::string model = TempPath("cli_model.txt");

  auto synth = RunCli("synth --dataset=b2b --scale=0.005 --output=" + data);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  EXPECT_NE(synth.output.find("wrote"), std::string::npos);

  auto stats = RunCli("stats --input=" + data);
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("user degrees"), std::string::npos);

  auto train = RunCli("train --input=" + data + " --model=" + model +
                      " --k=6 --lambda=0.5 --sweeps=25");
  ASSERT_EQ(train.exit_code, 0) << train.output;
  EXPECT_NE(train.output.find("trained OCuLaR"), std::string::npos);

  auto rec = RunCli("recommend --model=" + model + " --input=" + data +
                    " --user=0 --m=3");
  ASSERT_EQ(rec.exit_code, 0) << rec.output;
  EXPECT_NE(rec.output.find("item"), std::string::npos);

  auto rec_json = RunCli("recommend --model=" + model + " --input=" + data +
                         " --history=0,1 --m=2 --json");
  ASSERT_EQ(rec_json.exit_code, 0) << rec_json.output;
  EXPECT_EQ(rec_json.output.front(), '[');

  auto expl = RunCli("explain --model=" + model + " --input=" + data +
                     " --user=0 --item=1 --json");
  ASSERT_EQ(expl.exit_code, 0) << expl.output;
  EXPECT_NE(expl.output.find("\"confidence\""), std::string::npos);

  auto eval = RunCli("evaluate --input=" + data +
                     " --k=6 --lambda=0.5 --sweeps=25 --m=20");
  ASSERT_EQ(eval.exit_code, 0) << eval.output;
  EXPECT_NE(eval.output.find("recall@20"), std::string::npos);
  EXPECT_NE(eval.output.find("AUC"), std::string::npos);

  std::remove(data.c_str());
  std::remove(model.c_str());
}

TEST(CliTest, TrainRelativeVariantAndBiases) {
  const std::string data = TempPath("cli_data2.tsv");
  const std::string model = TempPath("cli_model2.txt");
  ASSERT_EQ(
      RunCli("synth --dataset=movielens --scale=0.004 --output=" + data)
          .exit_code,
      0);
  auto train = RunCli("train --input=" + data + " --model=" + model +
                      " --k=4 --lambda=5 --variant=relative --biases "
                      "--sweeps=20");
  ASSERT_EQ(train.exit_code, 0) << train.output;
  EXPECT_NE(train.output.find("R-OCuLaR"), std::string::npos);
  // Reload the bias model through the serving path (regression: the
  // biases flag must round-trip through the model file).
  auto rec = RunCli("recommend --model=" + model + " --input=" + data +
                    " --user=0 --m=2");
  EXPECT_EQ(rec.exit_code, 0) << rec.output;
  std::remove(data.c_str());
  std::remove(model.c_str());
}

TEST(CliTest, ShardRoundTripAndConvertGuard) {
  const std::string data = TempPath("cli_shard_data.tsv");
  const std::string text_model = TempPath("cli_shard_model.txt");
  const std::string bin_model = TempPath("cli_shard_model.oclr");
  const std::string shardset = TempPath("cli_shard_model.shardset");

  ASSERT_EQ(RunCli("synth --dataset=b2b --scale=0.005 --output=" + data)
                .exit_code,
            0);
  ASSERT_EQ(RunCli("train --input=" + data + " --model=" + text_model +
                   " --k=4 --lambda=0.5 --sweeps=10")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("convert --in=" + text_model + " --out=" + bin_model)
                .exit_code,
            0);

  // Split the binary model into a 3-shard set, then inspect it back.
  auto shard = RunCli("shard --in=" + bin_model + " --out=" + shardset +
                      " --shards=3");
  ASSERT_EQ(shard.exit_code, 0) << shard.output;
  auto inspect = RunCli("shard --manifest=" + shardset + " --route=0");
  ASSERT_EQ(inspect.exit_code, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("user 0 -> shard 0"), std::string::npos)
      << inspect.output;

  // Satellite fix: `convert` must detect a shardset input and point at
  // the `shard` subcommand instead of misparsing the manifest.
  auto bad = RunCli("convert --in=" + shardset + " --out=/tmp/never.oclr");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("shardset manifest"), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("ocular shard"), std::string::npos) << bad.output;

  // Offline surfaces accept the manifest directly (LoadModelAuto gathers
  // the set): recommendations must be byte-identical to the monolithic
  // file's.
  auto mono = RunCli("recommend --model=" + bin_model + " --input=" + data +
                     " --user=3 --m=5");
  ASSERT_EQ(mono.exit_code, 0) << mono.output;
  auto gathered = RunCli("recommend --model=" + shardset + " --input=" + data +
                         " --user=3 --m=5");
  ASSERT_EQ(gathered.exit_code, 0) << gathered.output;
  EXPECT_EQ(mono.output, gathered.output);

  std::remove(data.c_str());
  std::remove(text_model.c_str());
  std::remove(bin_model.c_str());
}

TEST(CliTest, ErrorPathsAreClean) {
  EXPECT_NE(RunCli("stats --input=/nonexistent/file").exit_code, 0);
  EXPECT_NE(RunCli("train --input=/nonexistent/file --model=/tmp/x")
                .exit_code,
            0);
  EXPECT_NE(RunCli("synth --dataset=bogus --output=/tmp/x.tsv").exit_code,
            0);
  EXPECT_NE(RunCli("recommend --model=/nonexistent --input=/nonexistent")
                .exit_code,
            0);

  // Serve specs that used to serve without the exclusions they asked for.
  // stdin is /dev/null, so a serve that starts ends at once with exit 0.
  const std::string data = TempPath("cli_err_data.tsv");
  const std::string colons = TempPath("cli_err_data.colons");
  const std::string text_model = TempPath("cli_err_model.txt");
  const std::string model = TempPath("cli_err_model.oclr");
  ASSERT_EQ(RunCli("synth --dataset=b2b --scale=0.005 --output=" + data)
                .exit_code,
            0);
  ASSERT_EQ(RunCli("train --input=" + data + " --model=" + text_model +
                   " --k=4 --lambda=0.5 --sweeps=3")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("convert --in=" + text_model + " --out=" + model).exit_code,
            0);
  {
    std::ifstream in(data);
    std::ofstream out(colons);
    for (std::string line; std::getline(in, line);) {
      std::replace(line.begin(), line.end(), '\t', ':');
      out << line << '\n';
    }
  }
  const std::string serve = "serve --models=default=" + model;
  ASSERT_EQ(RunCli(serve + " --datasets=default=" + data + " </dev/null")
                .exit_code,
            0);
  const std::pair<std::string, std::string> cases[] = {
      {" --datasets=defualt=" + data,
       "'defualt=" + data + "' names no --models entry"},
      {" --datasets=default=" + data + ",default=" + colons,
       "--datasets entry 'default=" + colons + "' repeats the name"},
      {",default=" + model, "--models entry 'default=" + model + "' repeats"},
      {" --datasets=default=" + colons + " --delimiter=::",
       "--delimiter='::' is not one character"},
  };
  for (const auto& [flags, error] : cases) {
    SCOPED_TRACE(flags);
    auto r = RunCli(serve + flags + " </dev/null");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find(error), std::string::npos) << r.output;
  }

  // Trainer flags that used to wrap (--k=-1 became 4294967295 and aborted
  // on bad_alloc), fall back to a default (--k=abc), train on NaN, or
  // segfault (k + 2 bias dimensions wrapped to 1): each must exit 1, name
  // the flag, and leave no model file.
  const std::string bad_model = TempPath("cli_err_bad_model.txt");
  const std::pair<std::string, std::string> bad_flags[] = {
      {"train --k=-1", "--k=-1 is not an integer"},
      {"train --k=abc", "--k=abc is not an integer"},
      {"train --k=0", "--k=0 is not an integer"},
      {"train --k=4294967295 --biases=true", "--k=4294967295 is not"},
      {"train --k=4294967294 --biases=true", "--k=4294967294 is not"},
      {"train --sweeps=-1", "--sweeps=-1 is not an integer"},
      {"train --sweeps=4294967296", "--sweeps=4294967296 is not"},
      {"train --lambda=nan", "--lambda=nan is not a finite number"},
      {"train --lambda=inf", "--lambda=inf is not a finite number"},
      {"train --lambda=-1", "--lambda=-1 is not a finite number"},
      {"train --lambda=x", "--lambda=x is not a finite number"},
      {"evaluate --k=-1", "--k=-1 is not an integer"},
  };
  for (const auto& [command, error] : bad_flags) {
    SCOPED_TRACE(command);
    std::remove(bad_model.c_str());
    auto r = RunCli(command + " --input=" + data + " --model=" + bad_model);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find(error), std::string::npos) << r.output;
    EXPECT_FALSE(std::ifstream(bad_model).good()) << "a model was written";
  }

  for (const std::string& path : {data, colons, text_model, model}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ocular
