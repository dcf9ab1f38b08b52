// util/file_io: the one atomic file write (checkpoints of `pghive discover`
// and of pghived sessions, and the cut-back of their append-only files) and
// the whole-file read behind every restore.

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

}  // namespace
}  // namespace pghive::util
