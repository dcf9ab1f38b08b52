#ifndef PGHIVE_SERVICE_NET_H_
#define PGHIVE_SERVICE_NET_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pghive::service {

/// Minimal POSIX TCP helpers for pghived. Loopback-only by design: the
/// daemon is a local sidecar, not an internet-facing server.

/// Listens on 127.0.0.1:<port> (port 0 picks an ephemeral port; read it back
/// with BoundPort). Returns the listening fd.
util::StatusOr<int> ListenTcp(uint16_t port, int backlog = 16);

/// The port a listening fd is bound to.
util::StatusOr<uint16_t> BoundPort(int fd);

/// Connects to 127.0.0.1:<port>; returns the connected fd, with TCP_NODELAY
/// set so small request writes go out immediately.
util::StatusOr<int> ConnectTcp(uint16_t port);

/// A buffered line/byte reader-writer over a connected socket. Owns the fd.
/// Single-threaded use per direction; pghived serves one request at a time
/// per connection, so one stream object per connection suffices.
class SocketStream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {}
  ~SocketStream() { Close(); }

  SocketStream(SocketStream&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  SocketStream& operator=(SocketStream&& other) noexcept;
  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  /// Reads up to the next '\n' (stripped, along with a preceding '\r').
  /// A clean EOF before any byte returns NotFound("connection closed") so
  /// servers can tell an orderly disconnect from a real IO error. A line of
  /// more than `max_bytes` bytes before its '\n' is OutOfRange, found as
  /// soon as that many bytes arrive without one; the stream holds at most
  /// one receive chunk past them.
  util::StatusOr<std::string> ReadLine(
      size_t max_bytes = std::numeric_limits<size_t>::max());

  /// Reads exactly `n` bytes into `*out` (replacing its contents).
  util::Status ReadExact(size_t n, std::string* out);

  util::Status WriteAll(std::string_view data);

  void Close();

  /// Ends the connection after a reply to a peer that may still be sending:
  /// shuts down the write side, so the peer reads the reply and then EOF,
  /// and discards input until the peer closes or `max_discard` bytes have
  /// arrived. A close with unread input would reset the connection, and a
  /// reset can drop the reply before the peer reads it. The fd stays open
  /// until Close or the destructor.
  void ShutdownAfterReply(size_t max_discard);

  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }

 private:
  /// Pulls more bytes into buffer_ and returns how many arrived (> 0).
  /// Orderly EOF is NotFound("connection closed"), IO failures IoError —
  /// StatusOr-first like every other fallible surface in the repo.
  util::StatusOr<size_t> Fill();

  int fd_;
  std::string buffer_;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_NET_H_
