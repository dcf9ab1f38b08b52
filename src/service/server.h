#ifndef PGHIVE_SERVICE_SERVER_H_
#define PGHIVE_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::service {

/// The pghived TCP server: accepts loopback connections, reads framed
/// requests, and dispatches them through RequestHandler. IO runs on one
/// thread per connection (connections spend their life blocked in recv);
/// discovery compute runs on the shared ThreadPool via each session's job
/// lane, so a slow tenant saturates neither the accept loop nor other
/// tenants' pipelines.
class PghivedServer {
 public:
  struct Options {
    uint16_t port = 0;         ///< 0 picks an ephemeral port (see port()).
    size_t threads = 0;        ///< Shared pool size; 0 = hardware threads.
    /// The session table (--max-sessions) and daemon-owned durability
    /// (--checkpoint-dir, --checkpoint-every). Start() restores every
    /// snapshot found in the checkpoint directory.
    SessionManager::Options sessions;
  };

  explicit PghivedServer(Options options);
  ~PghivedServer();

  PghivedServer(const PghivedServer&) = delete;
  PghivedServer& operator=(const PghivedServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  util::Status Start();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, nudge open connections to finish
  /// their current request, join all threads, drain every session's queued
  /// jobs. Idempotent; also runs from the destructor.
  void Stop();

  SessionManager& manager() { return manager_; }

 private:
  /// One accepted connection and the thread serving it. The thread sets
  /// `done` under connections_mutex_ as its last use of the mutex, so a
  /// holder of the mutex that sees `done` may join it.
  struct Connection {
    Connection() = default;
    Connection(Connection&&) = delete;  // The thread holds its address.

    int fd = -1;
    bool done = false;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);

  Options options_;
  util::ThreadPool pool_;
  SessionManager manager_;
  RequestHandler handler_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  // Live connections plus finished ones not yet joined. A list, because
  // each serving thread holds a pointer to its own entry.
  std::list<Connection> connections_;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_SERVER_H_
