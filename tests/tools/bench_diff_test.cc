#include "tools/bench_diff_lib.h"

#include <gtest/gtest.h>

#include <string>

namespace pghive::tools {
namespace {

constexpr const char* kSweepJson = R"({
  "benchmark": "pghive_parallel_sweep",
  "scale": 4,
  "nodes": 100,
  "edges": 200,
  "hardware_threads": 8,
  "stages": [
    {"stage": "vectorize", "results": [
      {"threads": 1, "ms": 100.0, "speedup": 1.0},
      {"threads": 2, "ms": 55.0, "speedup": 1.818}
    ]},
    {"stage": "group", "results": [
      {"threads": 1, "ms": 40.0, "speedup": 1.0}
    ]}
  ]
})";

TEST(ParseBenchJsonTest, SweepFormat) {
  auto parsed = ParseBenchJson(kSweepJson);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& entries = *parsed;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "vectorize/threads=1");
  EXPECT_DOUBLE_EQ(entries[0].speedup, 1.0);
  EXPECT_EQ(entries[1].name, "vectorize/threads=2");
  EXPECT_DOUBLE_EQ(entries[1].speedup, 1.818);
  EXPECT_EQ(entries[2].name, "group/threads=1");
  EXPECT_DOUBLE_EQ(entries[2].speedup, 1.0);
}

TEST(ParseBenchJsonTest, GoogleBenchmarkFileIsRefused) {
  auto parsed = ParseBenchJson(
      R"({"benchmarks": [{"name": "BM_X", "real_time": 1e6}]})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("'stages'"), std::string::npos);
}

TEST(ParseBenchJsonTest, ResultWithoutSpeedupIsRefused) {
  auto parsed = ParseBenchJson(
      R"({"stages": [{"stage": "group",)"
      R"( "results": [{"threads": 1, "ms": 4}]}]})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kParseError);
}

TEST(ParseBenchJsonTest, MalformedInputFailsWithParseError) {
  auto truncated = ParseBenchJson("{\"stages\": [");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), util::StatusCode::kParseError);
  EXPECT_FALSE(truncated.status().message().empty());

  auto unknown = ParseBenchJson("{\"other\": 1}");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(unknown.status().message().find("unrecognized"),
            std::string::npos);
}

TEST(DiffEntriesTest, MatchesByNameAndSkipsUnpaired) {
  std::vector<BenchEntry> baseline = {{"a", 10.0}, {"gone", 5.0},
                                      {"b", 50.0}};
  std::vector<BenchEntry> current = {{"b", 40.0}, {"a", 11.0},
                                     {"new", 7.0}};
  auto rows = DiffEntries(baseline, current);
  ASSERT_EQ(rows.size(), 2u);  // "gone" and "new" are not comparable.
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_DOUBLE_EQ(rows[0].speedup_drop_pct, -10.0);
  EXPECT_EQ(rows[1].name, "b");
  EXPECT_DOUBLE_EQ(rows[1].speedup_drop_pct, 20.0);
}

TEST(IsRegressionTest, SingleRowPredicate) {
  EXPECT_TRUE(IsRegression({"x", 2.0, 1.6, 20.0}, 10.0));
  EXPECT_FALSE(IsRegression({"x", 2.0, 1.9, 5.0}, 10.0));
  EXPECT_FALSE(IsRegression({"x", 0.0, 1.9, 0.0}, 10.0));
}

TEST(AnyRegressionTest, ThresholdIsStrict) {
  std::vector<DiffRow> rows = {{"x", 2.0, 1.8, 10.0}};
  EXPECT_FALSE(AnyRegression(rows, 10.0));  // Exactly at threshold: pass.
  rows[0].cur_speedup = 1.798;
  rows[0].speedup_drop_pct = 10.1;
  EXPECT_TRUE(AnyRegression(rows, 10.0));   // Past threshold: fail.
  EXPECT_FALSE(AnyRegression(rows, 25.0));  // Looser gate: pass.
}

TEST(AnyRegressionTest, ImprovementAndZeroBaselineNeverRegress) {
  std::vector<DiffRow> rows = {
      {"faster", 2.0, 3.0, -50.0},
      {"zero-base", 0.0, 3.0, 0.0},
  };
  EXPECT_FALSE(AnyRegression(rows, 10.0));
}

TEST(AnyRegressionTest, SyntheticTenPercentInjection) {
  // The acceptance scenario: a >10% speedup drop injected into one stage of
  // an otherwise identical sweep must trip the gate.
  auto baseline = ParseBenchJson(kSweepJson);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::string regressed_json = kSweepJson;
  size_t pos = regressed_json.find("\"speedup\": 1.818");
  ASSERT_NE(pos, std::string::npos);
  regressed_json.replace(pos, 16, "\"speedup\": 1.600");  // vectorize: -12%.
  auto current = ParseBenchJson(regressed_json);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  auto rows = DiffEntries(*baseline, *current);
  EXPECT_TRUE(AnyRegression(rows, 10.0));
  EXPECT_FALSE(AnyRegression(DiffEntries(*baseline, *baseline), 10.0));
}

TEST(DiffEntriesTest, CarriesSpeedupRatiosWhenBothSidesHaveThem) {
  std::vector<BenchEntry> baseline = {{"s/threads=2", 2.0}, {"plain", 0.0}};
  std::vector<BenchEntry> current = {{"s/threads=2", 1.5}, {"plain", 0.0}};
  auto rows = DiffEntries(baseline, current);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].base_speedup, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].cur_speedup, 1.5);
  EXPECT_DOUBLE_EQ(rows[0].speedup_drop_pct, 25.0);  // 2.0x -> 1.5x.
  EXPECT_DOUBLE_EQ(rows[1].base_speedup, 0.0);       // No ratio data.
}

TEST(IsRegressionTest, SpeedupRatioMode) {
  DiffRow dropped{"x", 2.0, 1.5, 25.0};
  EXPECT_TRUE(IsRegression(dropped, 20.0));
  EXPECT_FALSE(IsRegression(dropped, 25.0));  // Strict.

  DiffRow improved{"x", 2.0, 2.5, -25.0};
  EXPECT_FALSE(IsRegression(improved, 10.0));

  // Entries without ratio data (a side whose speedup is not > 0) never
  // regress.
  DiffRow no_ratio{"x"};
  EXPECT_FALSE(IsRegression(no_ratio, 10.0));
}

TEST(RegressedNamesTest, CollectsFlaggedRowsInOrder) {
  std::vector<DiffRow> rows = {
      {"a", 2.0, 1.0, 50.0},
      {"b", 2.0, 1.98, 1.0},
      {"c", 2.0, 1.4, 30.0},
  };
  auto names = RegressedNames(rows, 10.0);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "c");
}

TEST(ConsecutiveRegressionsTest, FirstTripWarnsSecondTripFails) {
  // Run N: "group" trips for the first time -> no failures, only a warning.
  std::vector<std::string> prior;
  auto failures = ConsecutiveRegressions({"group/threads=4"}, prior);
  EXPECT_TRUE(failures.empty());

  // Run N+1: "group" trips again -> fails; a newly tripped stage does not.
  prior = {"group/threads=4"};
  failures =
      ConsecutiveRegressions({"vectorize/threads=2", "group/threads=4"}, prior);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], "group/threads=4");

  // Run N+2: the stage recovered -> nothing fails even though it is still
  // in the prior list.
  EXPECT_TRUE(ConsecutiveRegressions({}, prior).empty());
}

TEST(MarkdownTableTest, SpeedupModeShowsRatiosAndWarnThenFailStatus) {
  std::vector<DiffRow> rows = {
      {"group/threads=4", 3.0, 2.0, 33.3},
      {"vectorize/threads=4", 3.5, 2.4, 31.4},
      {"embed/threads=4", 3.0, 2.9, 3.3},
  };
  std::vector<std::string> prior = {"group/threads=4"};
  std::string table = MarkdownTable(rows, 20.0, &prior);
  EXPECT_NE(table.find("baseline speedup"), std::string::npos);
  EXPECT_NE(table.find("| group/threads=4 | 3.00x | 2.00x | +33.3% |"),
            std::string::npos);
  EXPECT_NE(table.find("2nd consecutive"), std::string::npos);  // group.
  EXPECT_NE(table.find("warn (first trip)"), std::string::npos);  // vectorize.
  EXPECT_NE(table.find("✅ ok"), std::string::npos);  // embed.
}

TEST(MarkdownTableTest, FlagsRegressionsPastThreshold) {
  std::vector<DiffRow> rows = {
      {"group/threads=2", 2.0, 1.6, 20.0},
      {"vectorize/threads=2", 2.0, 2.05, -2.5},
  };
  std::string table = MarkdownTable(rows, 10.0);
  EXPECT_NE(table.find("| group/threads=2 | 2.00x | 1.60x | +20.0% |"),
            std::string::npos);
  EXPECT_NE(table.find("regression"), std::string::npos);
  EXPECT_NE(table.find("ok"), std::string::npos);
}

TEST(MarkdownTableTest, EmptyDiffRendersPlaceholder) {
  std::string table = MarkdownTable({}, 10.0);
  EXPECT_NE(table.find("no comparable entries"), std::string::npos);
}

}  // namespace
}  // namespace pghive::tools
