// The benches' one regression gate (bench::Record in bench/bench_util.h):
// a record gated against a baseline text, checked for its exit code and
// for the key its FAIL line names.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bench/bench_util.h"

namespace ocular {
namespace bench {
namespace {

/// A record of bench "t" on a two-key workload with one gated row.
Record MakeRecord(double speedup, bool higher = true) {
  Record record("t");
  record.Workload("kind", "two_block");
  record.Workload("scale", 0.5);
  record.Info("seconds", 1.25);
  if (higher) {
    record.AtLeast("speedup", speedup, 0.75);
  } else {
    record.AtMost("speedup", speedup, 5.0, 100.0);
  }
  return record;
}

struct Gated {
  int exit_code;
  std::string errors;
};

Gated Check(const Record& record, const std::string& baseline) {
  testing::internal::CaptureStderr();
  const int rc = record.Check(baseline);
  return {rc, testing::internal::GetCapturedStderr()};
}

constexpr char kWorkload[] = R"("workload":{"kind":"two_block","scale":0.5})";

TEST(BenchRecordTest, ARecordGatedAgainstItselfPasses) {
  const Record higher = MakeRecord(2.0);
  EXPECT_EQ(Check(higher, higher.ToJson()).exit_code, 0);
  const Record lower = MakeRecord(40.0, /*higher=*/false);
  EXPECT_EQ(Check(lower, lower.ToJson()).exit_code, 0);
}

TEST(BenchRecordTest, AHigherRowBelowFactorTimesRecordedFailsNamingItsKey) {
  const std::string baseline =
      std::string(R"({"bench":"t",)") + kWorkload + R"(,"speedup":4})";
  EXPECT_EQ(Check(MakeRecord(3.0), baseline).exit_code, 0);  // limit 3
  const Gated below = Check(MakeRecord(2.99), baseline);
  EXPECT_EQ(below.exit_code, 2);
  EXPECT_NE(below.errors.find("speedup"), std::string::npos) << below.errors;
}

TEST(BenchRecordTest, ALowerRowAboveFactorTimesRecordedPlusSlackFails) {
  const std::string baseline =
      std::string(R"({"bench":"t",)") + kWorkload + R"(,"speedup":10})";
  // Limit 5 x 10 + 100 = 150.
  EXPECT_EQ(Check(MakeRecord(150.0, false), baseline).exit_code, 0);
  const Gated above = Check(MakeRecord(150.5, false), baseline);
  EXPECT_EQ(above.exit_code, 2);
  EXPECT_NE(above.errors.find("speedup"), std::string::npos) << above.errors;
}

TEST(BenchRecordTest, ANonFiniteValueFails) {
  const std::string baseline =
      std::string(R"({"bench":"t",)") + kWorkload + R"(,"speedup":4})";
  EXPECT_EQ(Check(MakeRecord(std::nan("")), baseline).exit_code, 2);
  EXPECT_EQ(Check(MakeRecord(std::nan(""), false), baseline).exit_code, 2);
}

TEST(BenchRecordTest, AWorkloadThatDiffersInOneKeyIsRefusedNamingIt) {
  const Gated differs =
      Check(MakeRecord(3.0), R"({"bench":"t","workload":{"kind":"two_block",)"
                             R"("scale":1},"speedup":3})");
  EXPECT_EQ(differs.exit_code, 2);
  EXPECT_NE(differs.errors.find("scale"), std::string::npos) << differs.errors;

  const Gated lacks = Check(
      MakeRecord(3.0),
      R"({"bench":"t","workload":{"kind":"two_block"},"speedup":3})");
  EXPECT_EQ(lacks.exit_code, 2);
  EXPECT_NE(lacks.errors.find("scale"), std::string::npos) << lacks.errors;

  const Gated extra = Check(MakeRecord(3.0),
                            R"({"bench":"t","workload":{"kind":"two_block",)"
                            R"("scale":0.5,"k":50},"speedup":3})");
  EXPECT_EQ(extra.exit_code, 2);
  EXPECT_NE(extra.errors.find("k,"), std::string::npos) << extra.errors;
}

TEST(BenchRecordTest, ABaselineOfAnotherBenchOrWithoutTheRowIsRefused) {
  const Gated other = Check(
      MakeRecord(3.0),
      std::string(R"({"bench":"u",)") + kWorkload + R"(,"speedup":3})");
  EXPECT_EQ(other.exit_code, 2);
  const Gated missing =
      Check(MakeRecord(3.0), std::string(R"({"bench":"t",)") + kWorkload +
                                 R"(,"legacy":{"speedup":3}})");
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.errors.find("speedup"), std::string::npos)
      << missing.errors;
  EXPECT_EQ(Check(MakeRecord(3.0), "{\"bench\":").exit_code, 2);
}

TEST(BenchRecordTest, TheGateReadsTheTopLevelValueNotTheFirstMatch) {
  // A first-match substring search reads the nested 1 and passes 2.0
  // against a limit of 0.75; the top-level 3 sets the limit at 2.25.
  const std::string baseline = std::string(R"({"bench":"t",)") + kWorkload +
                               R"(,"legacy":{"speedup":1},"speedup":3})";
  EXPECT_EQ(Check(MakeRecord(2.0), baseline).exit_code, 2);
  EXPECT_EQ(Check(MakeRecord(2.25), baseline).exit_code, 0);
}

TEST(BenchRecordTest, ADifferentUsableCpuCountIsNotRefused) {
  const Record record = MakeRecord(3.0);
  const std::string baseline = std::string(R"({"bench":"t",)") + kWorkload +
                               R"(,"usable_cpus":)" +
                               std::to_string(UsableCpus() + 7) +
                               R"(,"speedup":3})";
  EXPECT_EQ(Check(record, baseline).exit_code, 0);
  EXPECT_NE(record.ToJson().find("\"usable_cpus\":" +
                                 std::to_string(UsableCpus())),
            std::string::npos);
}

}  // namespace
}  // namespace bench
}  // namespace ocular
