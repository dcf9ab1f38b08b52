#include "util/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

namespace pghive::util {

namespace {

/// "cannot WHAT PATH", with errno's reason when the failed call set one.
/// Takes errno as an argument, read before anything else can clobber it.
Status IoFailure(const char* what, const std::string& path, int error) {
  std::string message = std::string("cannot ") + what + " " + path;
  if (error != 0) message += ": " + std::string(std::strerror(error));
  return Status::IoError(message);
}

}  // namespace

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
  if (in.bad()) return IoFailure("read", path, errno);
  return bytes;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  std::error_code error;
  std::filesystem::resize_file(path, size, error);
  if (error) return IoFailure("truncate", path, error.value());
  return Status::Ok();
}

AppendOnlyFile::AppendOnlyFile(std::string path, bool truncate)
    : path_(std::move(path)),
      mode_(std::ios::binary | (truncate ? std::ios::trunc : std::ios::app)) {}

Status AppendOnlyFile::Open() {
  if (out_.is_open()) return Status::Ok();
  errno = 0;
  out_.open(path_, mode_);
  if (!out_) return IoFailure("open", path_, errno);
  return Status::Ok();
}

Status AppendOnlyFile::Append(std::string_view record) {
  Status opened = Open();
  if (!opened.ok()) return opened;
  errno = 0;
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) return IoFailure("append to", path_, errno);
  return Status::Ok();
}

}  // namespace pghive::util
