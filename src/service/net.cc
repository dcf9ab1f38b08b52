#include "service/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace pghive::service {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

util::StatusOr<int> ListenTcp(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    util::Status status = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    util::Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  return fd;
}

util::StatusOr<uint16_t> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

util::StatusOr<int> ConnectTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    util::Status status = Errno("connect 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return status;
  }
  // A request with a body goes out as two writes (line, then body). With
  // Nagle on, the body waits for the server to ACK the line, and the
  // server's delayed ACK stalls every such request by ~40 ms.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

SocketStream& SocketStream::operator=(SocketStream&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void SocketStream::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SocketStream::ShutdownAfterReply(size_t max_discard) {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_WR);
  buffer_.clear();
  size_t discarded = 0;
  while (discarded <= max_discard) {
    auto filled = Fill();
    if (!filled.ok()) break;
    discarded += *filled;
    buffer_.clear();
  }
}

util::StatusOr<size_t> SocketStream::Fill() {
  // A closed or moved-from stream must surface the same NotFound the
  // ReadLine/ReadExact entry guards promise, not an EBADF IoError from
  // recv(-1, ...) — callers branch on NotFound to mean "peer went away".
  if (fd_ < 0) return util::Status::NotFound("connection closed");
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return static_cast<size_t>(n);
    }
    if (n == 0) return util::Status::NotFound("connection closed");
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

util::StatusOr<std::string> SocketStream::ReadLine(size_t max_bytes) {
  if (fd_ < 0) return util::Status::NotFound("connection closed");
  // Each pass scans only the bytes the last Fill added.
  for (size_t scanned = 0;;) {
    const size_t nl = buffer_.find('\n', scanned);
    if (std::min(nl, buffer_.size()) > max_bytes) {
      return util::Status::OutOfRange("line longer than " +
                                      std::to_string(max_bytes) + " bytes");
    }
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    scanned = buffer_.size();
    auto filled = Fill();
    if (!filled.ok()) {
      // Bytes without a final newline count as a (last) line.
      if (filled.status().code() == util::StatusCode::kNotFound &&
          !buffer_.empty()) {
        std::string line = std::move(buffer_);
        buffer_.clear();
        return line;
      }
      return filled.status();
    }
  }
}

util::Status SocketStream::ReadExact(size_t n, std::string* out) {
  if (fd_ < 0) return util::Status::NotFound("connection closed");
  while (buffer_.size() < n) {
    auto filled = Fill();
    if (!filled.ok()) return filled.status();
  }
  *out = buffer_.substr(0, n);
  buffer_.erase(0, n);
  return util::Status::Ok();
}

util::Status SocketStream::WriteAll(std::string_view data) {
  if (fd_ < 0) return util::Status::IoError("write on a closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

}  // namespace pghive::service
