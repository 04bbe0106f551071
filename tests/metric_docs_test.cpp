// Keeps docs/OPERATIONS.md's `stats` reference in step with the metric
// tables: every row of the connection core's, the daemon's and the
// fleet's table must appear in the reference as
// "| `key` | sum-or-max | help |", with the table's merge rule and help
// line, and the reference may name no counter that no table declares.
// CMake passes the source tree as OCULAR_SOURCE_DIR.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <string>

#include "serving/daemon.h"
#include "serving/fleet.h"
#include "serving/line_server.h"
#include "serving/metrics.h"

namespace ocular {
namespace {

struct DocRow {
  std::string merge;
  std::string help;
};

/// The counter rows of the reference section: from its heading to the
/// next top-level heading, every table row with a merge column.
std::map<std::string, DocRow> ReadReference(std::string* error) {
  std::ifstream in(std::string(OCULAR_SOURCE_DIR) + "/docs/OPERATIONS.md");
  if (!in) {
    *error = "cannot read docs/OPERATIONS.md";
    return {};
  }
  const std::regex row(R"(^\| `([a-z0-9_]+)` \| (sum|max) \| (.+) \|$)");
  std::map<std::string, DocRow> rows;
  bool inside = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      inside = line == "## The `stats` reference";
      continue;
    }
    std::smatch m;
    if (!inside || !std::regex_match(line, m, row)) continue;
    if (!rows.emplace(m[1], DocRow{m[2], m[3]}).second) {
      *error += "key listed twice: " + m[1].str() + "\n";
    }
  }
  return rows;
}

template <typename Table>
void ExpectDocumented(const char* table, std::map<std::string, DocRow>* rows) {
  for (const MetricRow& row : Table::kRows) {
    SCOPED_TRACE(std::string(table) + " row " + row.key);
    const auto it = rows->find(row.key);
    if (it == rows->end()) {
      ADD_FAILURE() << "the stats reference leaves out " << row.key;
      continue;
    }
    EXPECT_EQ(it->second.merge,
              row.merge == MetricMerge::kMax ? "max" : "sum");
    EXPECT_EQ(it->second.help, row.help);
    rows->erase(it);
  }
}

TEST(MetricDocsTest, ReferenceListsEveryTableRowAndNothingElse) {
  std::string error;
  std::map<std::string, DocRow> rows = ReadReference(&error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_FALSE(rows.empty()) << "no counter row found: the section or "
                                "the row pattern broke";
  ExpectDocumented<ConnMetrics>("ConnMetrics", &rows);
  ExpectDocumented<DaemonMetrics>("DaemonMetrics", &rows);
  ExpectDocumented<FleetMetrics>("FleetMetrics", &rows);
  for (const auto& [key, row] : rows) {
    ADD_FAILURE() << "the stats reference names " << key
                  << ", which no metric table declares";
  }
}

}  // namespace
}  // namespace ocular
