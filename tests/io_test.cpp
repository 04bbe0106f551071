// Tests for the I/O-adjacent extensions: the command-line flag grammar, the
// JSON writer, model persistence, and dataset statistics.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "data/stats.h"
#include "data/synthetic.h"

namespace ocular {
namespace {

// ----------------------------------------------------------------- Flags

const FlagTable kTable = {
    "prog",
    "",
    {StringFlag("name", "", "text"),
     CharFlag("delimiter", '\t', "one character"),
     IntFlag("k", 1, 100, "16", "integer"),
     RealFlag("lambda", 0.0, kNoUpperBound, "0.5", "real"),
     BoolFlag("verbose", false, "bool"),
     ChoiceFlag("variant", {"absolute", "relative"}, "absolute", "choice"),
     IntListFlag("history", 0, 9, "list"),
     IntFlag("port", 1, 65535, "", "no default")}};

Result<Flags> ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(kTable, static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, EqualsSyntaxAndDefaults) {
  auto f = ParseArgs({"--k=8", "--lambda=0.25", "--name=hello world",
                      "--delimiter=:", "--variant=relative", "--history=3,1,3",
                      "--port=7700"});
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f->Int("k"), 8);
  EXPECT_EQ(f->Int<uint32_t>("k"), 8u);
  EXPECT_DOUBLE_EQ(f->Real("lambda"), 0.25);
  EXPECT_EQ(f->String("name"), "hello world");
  EXPECT_EQ(f->Char("delimiter"), ':');
  EXPECT_EQ(f->String("variant"), "relative");
  EXPECT_EQ(f->IntList("history"), (std::vector<int64_t>{3, 1, 3}));
  EXPECT_EQ(f->Int<uint16_t>("port"), 7700);
  EXPECT_TRUE(f->Has("k"));

  auto d = ParseArgs({});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->Int("k"), 16);
  EXPECT_DOUBLE_EQ(d->Real("lambda"), 0.5);
  EXPECT_EQ(d->String("name"), "");
  EXPECT_EQ(d->Char("delimiter"), '\t');
  EXPECT_FALSE(d->Bool("verbose"));
  EXPECT_EQ(d->String("variant"), "absolute");
  EXPECT_TRUE(d->IntList("history").empty());
  EXPECT_FALSE(d->Has("k"));
  EXPECT_FALSE(d->Has("port"));
}

TEST(FlagsTest, SpaceSyntaxAndBareBools) {
  // A non-bool takes the next token whatever it is; a bare bool is true.
  auto f = ParseArgs({"--k", "8", "--verbose", "--name", "--x"});
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f->Int("k"), 8);
  EXPECT_TRUE(f->Bool("verbose"));
  EXPECT_EQ(f->String("name"), "--x");
}

TEST(FlagsTest, BoolSpellings) {
  for (const char* yes : {"--verbose=true", "--verbose=1", "--verbose=yes"}) {
    EXPECT_TRUE(ParseArgs({yes})->Bool("verbose")) << yes;
  }
  for (const char* no : {"--verbose=false", "--verbose=0", "--verbose=no"}) {
    EXPECT_FALSE(ParseArgs({"--verbose", no})->Bool("verbose")) << no;
  }
}

TEST(FlagsTest, LaterDuplicateWins) {
  auto f = ParseArgs({"--k=1", "--k=2", "--history=1,2", "--history=5"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->Int("k"), 2);
  EXPECT_EQ(f->IntList("history"), (std::vector<int64_t>{5}));
}

TEST(FlagsTest, BadValuesNameTheFlagAndItsRange) {
  const std::pair<const char*, const char*> cases[] = {
      {"--k=abc", "--k=abc is not an integer in [1, 100]"},
      {"--k=-1", "--k=-1 is not an integer in [1, 100]"},
      {"--k=0", "--k=0 is not an integer in [1, 100]"},
      {"--k=101", "--k=101 is not an integer in [1, 100]"},
      {"--k=1e300", "--k=1e300 is not an integer in [1, 100]"},
      {"--k=99999999999999999999", "--k=99999999999999999999 is not an"},
      {"--lambda=nan", "--lambda=nan is not a finite number in [0, inf)"},
      {"--lambda=inf", "--lambda=inf is not a finite number in [0, inf)"},
      {"--lambda=-1", "--lambda=-1 is not a finite number in [0, inf)"},
      {"--lambda=x", "--lambda=x is not a finite number in [0, inf)"},
      {"--delimiter=::", "--delimiter='::' is not one character"},
      {"--delimiter=", "--delimiter='' is not one character"},
      {"--verbose=maybe", "--verbose=maybe is not true|false, 1|0 or yes|no"},
      {"--variant=relativ",
       "--variant=relativ is not one of absolute|relative"},
      {"--history=1,10", "--history entry '10' is not an integer in [0, 9]"},
      {"--history=", "--history entry '' is not an integer in [0, 9]"},
  };
  for (const auto& [arg, message] : cases) {
    auto f = ParseArgs({"--k=5", arg});
    ASSERT_FALSE(f.ok()) << arg;
    EXPECT_TRUE(f.status().IsInvalidArgument()) << f.status().ToString();
    EXPECT_EQ(f.status().message().rfind(message, 0), 0u)
        << f.status().ToString();
  }
}

TEST(FlagsTest, GrammarErrorsAreParseErrors) {
  const std::pair<std::vector<const char*>, const char*> cases[] = {
      {{"--wrokers=4"}, "unknown flag --wrokers"},
      {{"--k=2", "stray"}, "stray argument 'stray'"},
      {{"--verbose", "true"}, "stray argument 'true'"},
      {{"--"}, "stray argument '--'"},
      {{"--k"}, "--k needs a value"},
  };
  for (const auto& [args, message] : cases) {
    auto f = ParseArgs(args);
    ASSERT_FALSE(f.ok()) << message;
    EXPECT_TRUE(f.status().IsParseError()) << f.status().ToString();
    EXPECT_EQ(f.status().message(), message);
  }
}

TEST(FlagsTest, UsageListsEveryFlagWithTypeRangeAndDefault) {
  const std::string usage = Usage(kTable);
  for (const char* line :
       {"usage: prog [flags]\n", "  --name=TEXT\n      text\n",
        "  --delimiter=CHAR (default tab)\n",
        "  --k=INT in [1, 100] (default 16)\n",
        "  --lambda=REAL in [0, inf) (default 0.5)\n",
        "  --verbose[=BOOL] (default false)\n",
        "  --variant=absolute|relative (default absolute)\n",
        "  --history=INT,... in [0, 9]\n", "  --port=INT in [1, 65535]\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << usage;
  }
}

TEST(FlagsDeathTest, MisreadingADeclaredFlagIsAProgramBug) {
  auto f = ParseArgs({"--port=80"});
  ASSERT_TRUE(f.ok());
  EXPECT_DEATH(f->Int("wrokers"), "--wrokers is not declared");
  EXPECT_DEATH(f->Real("k"), "--k is read as another type");
  EXPECT_DEATH(f->Int<uint8_t>("port"), "range does not fit");
  EXPECT_DEATH(ParseArgs({})->Int("port"), "--port has no value");
}

// ------------------------------------------------------------------ JSON

TEST(JsonWriterTest, NestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("user");
  w.Int(6);
  w.Key("scores");
  w.BeginArray();
  w.Double(0.5);
  w.Double(1.0);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.EndObject();
  w.Key("nothing");
  w.Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"user":6,"scores":[0.5,1],"nested":{"ok":true},"nothing":null})");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.String("a\"b\\c\nd\te\x01");
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(2.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,2.5]");
}

TEST(JsonWriterTest, ArrayOfObjects) {
  JsonWriter w;
  w.BeginArray();
  for (int i = 0; i < 2; ++i) {
    w.BeginObject();
    w.Key("i");
    w.Int(i);
    w.EndObject();
  }
  w.EndArray();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

// ------------------------------------------------------------ JSON parse

TEST(JsonValueTest, ParsesNestedDocument) {
  auto v = JsonValue::Parse(
      R"({"cmd":"recommend","user":3,"m":10,"opts":{"min_score":0.5},)"
      R"("exclude":[1,2,3],"fast":true,"note":null})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Find("cmd")->string(), "recommend");
  EXPECT_EQ(v->Find("user")->number(), 3.0);
  EXPECT_DOUBLE_EQ(v->Find("opts")->Find("min_score")->number(), 0.5);
  ASSERT_TRUE(v->Find("exclude")->is_array());
  EXPECT_EQ(v->Find("exclude")->array().size(), 3u);
  EXPECT_EQ(v->Find("exclude")->array()[2].number(), 3.0);
  EXPECT_TRUE(v->Find("fast")->boolean());
  EXPECT_TRUE(v->Find("note")->is_null());
  EXPECT_EQ(v->Find("absent"), nullptr);
}

TEST(JsonValueTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("label");
  w.String("a\"b\\c\nd\te");
  w.Key("scores");
  w.BeginArray();
  w.Double(0.25);
  w.Double(-1.5e-3);
  w.EndArray();
  w.EndObject();
  auto v = JsonValue::Parse(w.str());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("label")->string(), "a\"b\\c\nd\te");
  EXPECT_DOUBLE_EQ(v->Find("scores")->array()[0].number(), 0.25);
  EXPECT_DOUBLE_EQ(v->Find("scores")->array()[1].number(), -1.5e-3);
}

TEST(JsonValueTest, ParsesNumbersAndEscapes) {
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-0.5e2")->number(), -50.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("0")->number(), 0.0);
  EXPECT_EQ(JsonValue::Parse(R"("\u0041\u00e9")")->string(), "A\xc3\xa9");
  EXPECT_EQ(JsonValue::Parse(R"("\/")")->string(), "/");
  EXPECT_TRUE(JsonValue::Parse("  true  ")->boolean());
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",         "[1,2",        "{\"a\":}",  "{\"a\" 1}",
      "{'a':1}",    "01",        "1.",          "--1",       "1e",
      "tru",        "nul",       "\"unterminated", "\"bad\\q\"",
      "{\"a\":1}x", "[1,,2]",    "\"\\u12\"",   "[1] []",
  };
  for (const char* doc : bad) {
    EXPECT_TRUE(JsonValue::Parse(doc).status().IsParseError())
        << "accepted: " << doc;
  }
  // Nesting bomb is bounded, not stack-overflowed.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_TRUE(JsonValue::Parse(deep).status().IsParseError());
}

TEST(JsonValueTest, DuplicateKeysFirstWins) {
  auto v = JsonValue::Parse(R"({"a":1,"a":2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->number(), 1.0);
  EXPECT_EQ(v->members().size(), 2u);
}

// -------------------------------------------------------------- Model IO

TEST(ModelIoTest, RoundTripsExactly) {
  Rng rng(3);
  DenseMatrix fu(7, 4), fi(5, 4);
  fu.FillUniform(&rng, 0.0, 2.0);
  fi.FillUniform(&rng, 0.0, 2.0);
  OcularModel model(fu, fi);
  OcularConfig cfg;
  cfg.k = 4;
  cfg.lambda = 0.125;
  cfg.variant = OcularVariant::kRelative;

  const std::string path = ::testing::TempDir() + "/ocular_model_rt.txt";
  ASSERT_TRUE(SaveModel(model, cfg, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config.k, 4u);
  EXPECT_DOUBLE_EQ(loaded->config.lambda, 0.125);
  EXPECT_EQ(loaded->config.variant, OcularVariant::kRelative);
  // "%.17g" round-trips doubles exactly.
  EXPECT_EQ(loaded->model.user_factors(), model.user_factors());
  EXPECT_EQ(loaded->model.item_factors(), model.item_factors());
  std::remove(path.c_str());
}

TEST(ModelIoTest, BiasModelRoundTrips) {
  // Regression test: models trained with use_biases carry k+2 factor
  // columns; the file format must record the flag or reloading fails.
  Dataset toy = MakePaperToyDataset();
  OcularConfig cfg;
  cfg.k = 3;
  cfg.use_biases = true;
  cfg.max_sweeps = 10;
  OcularTrainer trainer(cfg);
  auto fit = trainer.Fit(toy.interactions()).value();
  const std::string path = ::testing::TempDir() + "/ocular_bias_model.txt";
  ASSERT_TRUE(SaveModel(fit.model, cfg, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->config.use_biases);
  EXPECT_EQ(loaded->config.TotalDims(), 5u);
  EXPECT_EQ(loaded->model.user_factors(), fit.model.user_factors());
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveRejectsConfigModelDimMismatch) {
  // A bias model saved with a bias-less config must be rejected loudly.
  OcularModel model(DenseMatrix(2, 5, 0.5), DenseMatrix(2, 5, 0.5));
  OcularConfig cfg;
  cfg.k = 3;  // TotalDims 3 != model.k() 5
  EXPECT_TRUE(SaveModel(model, cfg,
                        ::testing::TempDir() + "/never_written2.txt")
                  .IsInvalidArgument());
}

TEST(ModelIoTest, AcceptsLegacyConfigLineWithoutBiasesField) {
  const std::string path = ::testing::TempDir() + "/ocular_legacy_model.txt";
  {
    std::ofstream out(path);
    out << "ocular-model v1\n"
        << "k 2 lambda 0.5 variant absolute\n"
        << "users 1\n0.25 0.75\n"
        << "items 1\n0.5 0.125\n";
  }
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->config.use_biases);
  EXPECT_DOUBLE_EQ(loaded->model.user_factors().At(0, 1), 0.75);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/ocular_model_bad.txt";
  auto write = [&](const std::string& content) {
    std::ofstream out(path);
    out << content;
  };
  write("not a model\n");
  EXPECT_TRUE(LoadModel(path).status().IsParseError());
  write("ocular-model v1\nk 2 lambda x variant absolute\n");
  EXPECT_TRUE(LoadModel(path).status().IsParseError());
  write("ocular-model v1\nk 2 lambda 1 variant weird\n");
  EXPECT_TRUE(LoadModel(path).status().IsParseError());
  write("ocular-model v1\nk 2 lambda 1 variant absolute\nusers 1\n0.5\n");
  EXPECT_TRUE(LoadModel(path).status().IsParseError());  // wrong arity
  write("ocular-model v1\nk 2 lambda 1 variant absolute\nusers 1\n"
        "0.5 -0.25\nitems 0\n");
  EXPECT_TRUE(LoadModel(path).status().IsParseError());  // negative factor
  EXPECT_TRUE(LoadModel("/nonexistent/model").status().IsIOError());
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveRejectsInvalidModel) {
  DenseMatrix fu(1, 1, -1.0);  // negative factor: invalid
  OcularModel model(fu, DenseMatrix(1, 1, 0.5));
  OcularConfig cfg;
  cfg.k = 1;
  EXPECT_FALSE(SaveModel(model, cfg,
                         ::testing::TempDir() + "/never_written.txt")
                   .ok());
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, DegreeSummaryHandChecked) {
  auto s = SummarizeDegrees({0, 1, 2, 3, 4});
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_EQ(s.zeros, 1u);
  // Gini of {0,1,2,3,4}: 2*(0*1+1*2+2*3+3*4+4*5)/(5*10) - 6/5 = 0.4.
  EXPECT_NEAR(s.gini, 0.4, 1e-12);
}

TEST(StatsTest, UniformDegreesHaveZeroGini) {
  auto s = SummarizeDegrees({5, 5, 5, 5});
  EXPECT_NEAR(s.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
}

TEST(StatsTest, EmptyInput) {
  auto s = SummarizeDegrees({});
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
}

TEST(StatsTest, DatasetStatsEndToEnd) {
  CsrMatrix m =
      CsrMatrix::FromPairs({{0, 0}, {0, 1}, {1, 0}, {2, 2}}, 4, 3).value();
  auto stats = ComputeDatasetStats(m);
  EXPECT_EQ(stats.num_users, 4u);
  EXPECT_EQ(stats.num_items, 3u);
  EXPECT_EQ(stats.num_positives, 4u);
  EXPECT_EQ(stats.user_degrees.zeros, 1u);  // user 3
  EXPECT_EQ(stats.item_degrees.max, 2u);    // item 0
  const std::string report = RenderDatasetStats(stats);
  EXPECT_NE(report.find("users 4"), std::string::npos);
  EXPECT_NE(report.find("gini"), std::string::npos);
}

TEST(StatsTest, ZipfItemsHaveHigherGiniThanUniform) {
  Rng rng(21);
  PlantedCoClusterConfig cfg;
  cfg.num_users = 150;
  cfg.num_items = 200;
  cfg.num_clusters = 6;
  cfg.item_popularity_zipf = 1.0;
  auto skewed = GeneratePlantedCoClusters(cfg, &rng).value();
  cfg.item_popularity_zipf = 0.0;
  auto flat = GeneratePlantedCoClusters(cfg, &rng).value();
  const double gini_skewed =
      ComputeDatasetStats(skewed.dataset.interactions()).item_degrees.gini;
  const double gini_flat =
      ComputeDatasetStats(flat.dataset.interactions()).item_degrees.gini;
  EXPECT_GT(gini_skewed, gini_flat);
}

}  // namespace
}  // namespace ocular
