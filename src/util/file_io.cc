#include "util/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace pghive::util {

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();  // Flushes, so a failed flush is reported here too.
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("cannot write " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string bytes;
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  if (!size_error) bytes.reserve(size);
  // istream::read turns a failed read(2) (EISDIR for a directory, EIO) into
  // badbit; the filebuf's own exception would escape an istreambuf_iterator.
  errno = 0;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    const int error = errno;
    std::string message = "cannot read " + path;
    if (error != 0) message += ": " + std::string(std::strerror(error));
    return Status::IoError(message);
  }
  return bytes;
}

}  // namespace pghive::util
