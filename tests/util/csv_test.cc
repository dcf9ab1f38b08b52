#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/file_io.h"

namespace pghive::util {
namespace {

TEST(CsvTest, SplitsPlainLine) {
  auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvTest, HandlesQuotedCommas) {
  auto fields = SplitCsvLine("\"a,b\",c");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
}

TEST(CsvTest, HandlesEscapedQuotes) {
  auto fields = SplitCsvLine("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvTest, EmptyFields) {
  auto fields = SplitCsvLine(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvTest, StripsCarriageReturn) {
  auto fields = SplitCsvLine("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "pghive_csv_test.csv")
          .string();
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"x", "1"}, {"with,comma", "2"}};
  ASSERT_TRUE(
      AtomicWriteFile(path, "name,value\nx,1\n\"with,comma\",2\n").ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().header, table.header);
  EXPECT_EQ(loaded.value().rows, table.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsvFile("/nonexistent/path.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace pghive::util
