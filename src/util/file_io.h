#ifndef PGHIVE_UTIL_FILE_IO_H_
#define PGHIVE_UTIL_FILE_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pghive::util {

/// Writes `bytes` to `path` atomically: a sibling `path.tmp`, then rename,
/// so a crash mid-write never leaves a torn file under the real name. On
/// any failure the temp file is removed and `path` is left as it was.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Reads all of `path`: NotFound when it cannot be opened (normally, it
/// does not exist yet), IoError naming the path when a read fails (a
/// directory opens but cannot be read).
StatusOr<std::string> ReadWholeFile(const std::string& path);

/// Cuts `path` back to its first `size` bytes in place, with one truncate
/// call, so a process kill leaves either length.
Status TruncateFile(const std::string& path, uint64_t size);

/// The writer of the append-only files (ingest log, changefeed). Each
/// Append is one write and one flush, both checked, so an accepted record
/// survives a process kill, not a power loss: nothing calls fsync. The file
/// opens at the first Open or Append; with `truncate` the open empties it
/// (std::ios::trunc, which leaves a device such as /dev/full as it is).
class AppendOnlyFile {
 public:
  explicit AppendOnlyFile(std::string path, bool truncate = false);

  /// Opens the file unless it is open. IoError naming the path on failure,
  /// here and in Append; after a failed Append every later one fails too.
  Status Open();
  Status Append(std::string_view record);

 private:
  std::string path_;
  std::ios::openmode mode_;
  std::ofstream out_;
};

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_FILE_IO_H_
