// End-to-end subprocess tests of the `ocular` CLI binary: synth -> stats
// -> train -> recommend/explain -> evaluate, plus error paths, and the flag
// grammar of every binary that declares flags. CMake injects the binary
// paths: OCULAR_CLI_PATH, OCULAR_SERVED_PATH, and OCULAR_FLAG_BINARIES
// ('|'-separated: the daemon, the fleet, and each built bench and example
// that declares flags).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define OCULAR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OCULAR_ASAN 1
#endif
#endif

namespace ocular {
namespace {

#ifndef OCULAR_CLI_PATH
#define OCULAR_CLI_PATH "ocular"
#endif
#ifndef OCULAR_SERVED_PATH
#define OCULAR_SERVED_PATH "ocular_served"
#endif
#ifndef OCULAR_FLAG_BINARIES
#define OCULAR_FLAG_BINARIES ""
#endif

/// Runs `binary` (the CLI by default) with `args`, capturing combined
/// stdout+stderr and the exit code.
struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult RunCli(const std::string& args,
                 const std::string& binary = OCULAR_CLI_PATH) {
  const std::string cmd = binary + " " + args + " 2>&1";
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

  // A --history id past 32 bits used to wrap (4294967296 ranked exactly
  // as 0); the wire protocol rejects such an id, and so does the CLI.
  auto wrapped = RunCli("recommend --model=" + model + " --input=" + data +
                        " --history=1,4294967296");
  EXPECT_EQ(wrapped.exit_code, 1) << wrapped.output;
  EXPECT_NE(wrapped.output.find("--history entry '4294967296' is not an "
                                "integer in [0, 4294967295]"),
            std::string::npos)
      << wrapped.output;

#ifndef OCULAR_ASAN
  // A K that passes every check but whose factor matrices no allocator can
  // hold: 5,000 users x K doubles is about 1.7e14 bytes, past the 128 TiB
  // user address space, so the allocation fails even with overcommit on.
  // Training must exit 1 naming K, and write no model. (ASan's operator
  // new aborts on such a request instead of throwing, so the case is left
  // out under it.)
  const std::string wide = TempPath("cli_err_wide.tsv");
  {
    std::ofstream out(wide);
    for (int u = 0; u < 5000; ++u) out << u << '\t' << u % 7 << '\n';
  }
  std::remove(bad_model.c_str());
  auto huge = RunCli("train --k=4294967293 --input=" + wide +
                     " --model=" + bad_model);
  EXPECT_EQ(huge.exit_code, 1) << huge.output;
  EXPECT_NE(huge.output.find("K=4294967293 needs"), std::string::npos)
      << huge.output;
  EXPECT_FALSE(std::ifstream(bad_model).good()) << "a model was written";
  std::remove(wide.c_str());
#endif

  for (const std::string& path : {data, colons, text_model, model}) {
    std::remove(path.c_str());
  }
}

// The top of --m's range used to abort on bad_alloc (the selection buffer
// was reserved at 4·m entries). It lists the whole catalog minus the
// user's own items, from the CLI and from the daemon.
TEST(CliTest, TopOfTheMRangeListsTheWholeCatalog) {
  const std::string data = TempPath("cli_topm_data.tsv");
  const std::string text_model = TempPath("cli_topm_model.txt");
  const std::string model = TempPath("cli_topm_model.oclr");
  ASSERT_EQ(RunCli("synth --dataset=b2b --scale=0.005 --output=" + data)
                .exit_code,
            0);
  ASSERT_EQ(RunCli("train --input=" + data + " --model=" + text_model +
                   " --k=4 --lambda=0.5 --sweeps=3")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("convert --in=" + text_model + " --out=" + model).exit_code,
            0);
  // Ids load as given, so the catalog is the largest item id + 1.
  uint32_t num_items = 0;
  std::set<uint32_t> user0_items;
  {
    std::ifstream in(data);
    for (uint32_t user = 0, item = 0; in >> user >> item;) {
      num_items = std::max(num_items, item + 1);
      if (user == 0) user0_items.insert(item);
    }
  }
  const size_t expected = num_items - user0_items.size();
  ASSERT_GT(expected, 0u);

  auto cli = RunCli("recommend --model=" + model + " --input=" + data +
                    " --user=0 --m=4294967295");
  ASSERT_EQ(cli.exit_code, 0) << cli.output;
  EXPECT_EQ(static_cast<size_t>(
                std::count(cli.output.begin(), cli.output.end(), '\n')),
            expected);

  const std::string session = TempPath("cli_topm_session.jsonl");
  std::ofstream(session) << "{\"cmd\":\"recommend\",\"user\":0}\n";
  auto served = RunCli("--models=default=" + model + " --datasets=default=" +
                           data + " --m=4294967295 <" + session,
                       OCULAR_SERVED_PATH);
  ASSERT_EQ(served.exit_code, 0) << served.output;
  size_t items = 0;
  for (size_t at = served.output.find("\"item\":"); at != std::string::npos;
       at = served.output.find("\"item\":", at + 1)) {
    ++items;
  }
  EXPECT_EQ(items, expected) << served.output.substr(0, 300);

  for (const std::string& path : {data, text_model, model, session}) {
    std::remove(path.c_str());
  }
}

/// One "usage: <program> [flags]" section of a binary's generated usage:
/// the command line that reaches it, and its declared flags' lines.
struct UsageSection {
  std::string command;               // binary path, plus a subcommand
  std::vector<std::string> flags;    // "--name=TYPE ..." lines
};

/// Splits `usage` into its sections. A section of `ocular <command>` is
/// reached as `cli <command>`; any other program as `binary`.
std::vector<UsageSection> UsageSections(const std::string& usage,
                                        const std::string& binary) {
  std::vector<UsageSection> sections;
  std::istringstream lines(usage);
  for (std::string line; std::getline(lines, line);) {
    const std::string head = "usage: ";
    if (line.rfind(head, 0) == 0 &&
        line.find(" [flags]") != std::string::npos &&
        line.find('<') == std::string::npos) {
      const std::string program =
          line.substr(head.size(), line.find(" [flags]") - head.size());
      sections.push_back(
          {program.rfind("ocular ", 0) == 0
               ? binary + " " + program.substr(std::string("ocular ").size())
               : binary,
           {}});
    } else if (line.rfind("  --", 0) == 0 && !sections.empty()) {
      sections.back().flags.push_back(line.substr(2));
    }
  }
  return sections;
}

std::vector<std::string> FlagBinaries() {
  std::vector<std::string> binaries;
  std::istringstream list(OCULAR_FLAG_BINARIES);
  for (std::string path; std::getline(list, path, '|');) {
    if (!path.empty()) binaries.push_back(path);
  }
  return binaries;
}

/// The values a numeric flag line ("--k=INT in [1, 4294967293] ...")
/// must reject: -1 and "abc", 1e300 for an integer, and one past each
/// bound.
std::vector<std::string> BadValues(const std::string& flag_line) {
  const size_t open = flag_line.find(" in [");
  if (open == std::string::npos) return {};
  const bool integer = flag_line.find("=INT") != std::string::npos;
  const size_t comma = flag_line.find(", ", open);
  const std::string lo = flag_line.substr(open + 5, comma - open - 5);
  const std::string hi =
      flag_line.substr(comma + 2, flag_line.find_first_of("])", comma) -
                                      comma - 2);
  std::set<std::string> values = {"abc"};
  if (std::stod(lo) > -1) values.insert("-1");
  if (integer) {
    values.insert("1e300");
    values.insert(std::to_string(std::stoll(lo) - 1));
    values.insert(hi == "9223372036854775807"
                      ? "9223372036854775808"
                      : std::to_string(std::stoll(hi) + 1));
  } else {
    values.insert(std::to_string(std::stod(lo) - 1));
    if (hi != "inf") values.insert(std::to_string(std::stod(hi) + 1));
  }
  return {values.begin(), values.end()};
}

// Every numeric flag of every binary that declares flags (each `ocular`
// subcommand, the daemon, the fleet, and each bench and example that is
// built), read from the binary's own generated usage: -1, "abc", 1e300
// for an integer, and one past each declared bound must each exit 1 and
// name the flag, and leave none of --model/--output/--out behind. An
// unknown flag, the misspelling --wrokers=4, and a stray token must each
// exit 2 and name what was wrong.
TEST(CliTest, EveryBinaryRejectsBadFlagsByItsTable) {
  std::vector<UsageSection> sections = UsageSections(RunCli("").output,
                                                     OCULAR_CLI_PATH);
  ASSERT_GE(sections.size(), 10u) << "one section per ocular command";
  for (const std::string& binary : FlagBinaries()) {
    const CliResult probe = RunCli("--no-such-flag", binary);
    ASSERT_EQ(probe.exit_code, 2) << binary << ": " << probe.output;
    const auto found = UsageSections(probe.output, binary);
    ASSERT_EQ(found.size(), 1u) << binary << ": " << probe.output;
    sections.push_back(found[0]);
  }
  const std::string outputs[] = {"model", "output", "out"};
  size_t numeric_flags = 0;
  for (const UsageSection& section : sections) {
    SCOPED_TRACE(section.command);
    ASSERT_FALSE(section.flags.empty());
    std::string output_args;
    for (const std::string& flag : section.flags) {
      for (const std::string& name : outputs) {
        if (flag.rfind("--" + name + "=", 0) == 0) {
          output_args += " --" + name + "=" + TempPath("flagcheck_") + name;
        }
      }
    }
    const auto run = [&](const std::string& args) {
      // A command line taken for valid would run the whole program; the
      // timeout turns that into exit 124, which no case expects.
      return RunCli(args + output_args + " </dev/null",
                    "timeout 60 " + section.command);
    };
    for (const std::string& flag : section.flags) {
      const std::string name = flag.substr(0, flag.find_first_of("=["));
      const std::vector<std::string> values = BadValues(flag);
      numeric_flags += values.empty() ? 0 : 1;
      for (const std::string& value : values) {
        const CliResult r = run(name + "=" + value);
        EXPECT_EQ(r.exit_code, 1) << name << "=" << value << ": " << r.output;
        EXPECT_NE(r.output.find(name), std::string::npos)
            << name << "=" << value << ": " << r.output;
      }
    }
    const std::pair<std::string, std::string> grammar[] = {
        {"--no-such-flag", "--no-such-flag"},
        {"--wrokers=4", "--wrokers"},
        {"stray", "'stray'"}};
    for (const auto& [args, named] : grammar) {
      const CliResult r = run(args);
      EXPECT_EQ(r.exit_code, 2) << args << ": " << r.output;
      EXPECT_NE(r.output.find(named), std::string::npos)
          << args << ": " << r.output;
      EXPECT_NE(r.output.find("usage: "), std::string::npos) << r.output;
    }
    for (const std::string& name : outputs) {
      EXPECT_FALSE(std::ifstream(TempPath("flagcheck_") + name).good())
          << "--" << name << " was written";
    }
  }
  EXPECT_GE(numeric_flags, 40u);
}

}  // namespace
}  // namespace ocular
