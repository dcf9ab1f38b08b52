#ifndef PGHIVE_UTIL_FILE_IO_H_
#define PGHIVE_UTIL_FILE_IO_H_

#include <string>

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

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_FILE_IO_H_
