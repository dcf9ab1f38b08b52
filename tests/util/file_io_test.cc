// util/file_io: the one atomic file write (checkpoints of `pghive discover`
// and of pghived sessions), the one appender of their append-only files
// (ingest log, changefeed) and its in-place cut-back, and the whole-file
// read behind every restore.

#include "util/file_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace pghive::util {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory unique to `name`.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "file_io_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(FileIoTest, AtomicWriteReplacesTheFileAndLeavesNoTemp) {
  const std::string path = FreshDir("replace") + "/state";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, std::string("second\0bytes", 12)).ok());
  auto read = ReadWholeFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, std::string("second\0bytes", 12));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FileIoTest, FailedRenameLeavesNoTempFile) {
  // The target is an existing directory: the temp file is written, but
  // rename(2) cannot replace a directory with a file.
  const std::string path = FreshDir("rename") + "/target";
  fs::create_directory(path);
  Status status = AtomicWriteFile(path, "bytes");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot rename"), std::string::npos)
      << status.message();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(fs::is_directory(path));
}

TEST(FileIoTest, FailedWriteLeavesTheTargetUntouched) {
  const std::string dir = FreshDir("write");
  const std::string path = dir + "/missing_dir/state";
  Status status = AtomicWriteFile(path, "bytes");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FileIoTest, ReadingAMissingFileIsNotFound) {
  auto read = ReadWholeFile(FreshDir("missing") + "/no_such_file");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(FileIoTest, ReadingADirectoryIsAnIoErrorNamingIt) {
  // A directory opens but read(2) fails (EISDIR): an error, never an abort
  // or an empty file.
  const std::string dir = FreshDir("directory");
  auto read = ReadWholeFile(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("cannot read " + dir),
            std::string::npos)
      << read.status().message();
}

TEST(FileIoTest, AppendedRecordsAreInTheFileBeforeTheWriterCloses) {
  // Each Append flushes, so a reader (or a process kill) sees every record
  // the writer accepted while the writer is still open.
  const std::string path = FreshDir("append") + "/feed";
  ASSERT_TRUE(AtomicWriteFile(path, "old|").ok());
  AppendOnlyFile appender(path);
  ASSERT_TRUE(appender.Append("one|").ok());
  ASSERT_TRUE(appender.Append(std::string("two\0", 4)).ok());
  auto read = ReadWholeFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, std::string("old|one|two\0", 12));

  AppendOnlyFile fresh(path, /*truncate=*/true);
  ASSERT_TRUE(fresh.Open().ok());
  EXPECT_EQ(fs::file_size(path), 0u);
  ASSERT_TRUE(fresh.Append("new").ok());
  EXPECT_EQ(*ReadWholeFile(path), "new");
}

TEST(FileIoTest, NoFileIsCreatedBeforeTheFirstRecord) {
  const std::string path = FreshDir("lazy") + "/log";
  AppendOnlyFile appender(path);
  EXPECT_FALSE(fs::exists(path));
  ASSERT_TRUE(appender.Append("record").ok());
  EXPECT_TRUE(fs::exists(path));
}

TEST(FileIoTest, AppendFailuresNameThePath) {
  const std::string missing = FreshDir("append_fail") + "/no_dir/feed";
  AppendOnlyFile unopenable(missing);
  Status status = unopenable.Append("record");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot open " + missing),
            std::string::npos)
      << status.message();

  // A full device takes the open and refuses the flushed write; every later
  // Append fails too. Opening it with trunc leaves the device as it is.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  AppendOnlyFile full("/dev/full", /*truncate=*/true);
  ASSERT_TRUE(full.Open().ok());
  status = full.Append("record");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cannot append to /dev/full"),
            std::string::npos)
      << status.message();
  EXPECT_FALSE(full.Append("again").ok());
  EXPECT_TRUE(fs::is_character_file("/dev/full"));
}

TEST(FileIoTest, TruncateCutsInPlaceAndNamesAFailure) {
  const std::string dir = FreshDir("truncate");
  const std::string path = dir + "/log";
  AppendOnlyFile appender(path);
  ASSERT_TRUE(appender.Append("keep|drop").ok());
  ASSERT_TRUE(TruncateFile(path, 5).ok());
  // The open appender keeps appending at the new end.
  ASSERT_TRUE(appender.Append("next").ok());
  EXPECT_EQ(*ReadWholeFile(path), "keep|next");

  Status status = TruncateFile(dir + "/no_such_file", 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot truncate " + dir + "/no_such_file"),
            std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace pghive::util
