#include "service/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "service/net.h"

namespace pghive::service {

PghivedServer::PghivedServer(Options options)
    : options_(std::move(options)),
      pool_(options_.threads),
      manager_(&pool_, options_.sessions),
      handler_(&manager_) {}

PghivedServer::~PghivedServer() { Stop(); }

util::Status PghivedServer::Start() {
  // Restore checkpointed sessions before any client can connect, so a
  // restarted daemon serves every surviving tenant from the first request.
  // A corrupt checkpoint fails startup loudly instead of dropping state.
  util::Status restored = manager_.RestoreFromCheckpointDir();
  if (!restored.ok()) return restored;
  auto listen_fd = ListenTcp(options_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = *listen_fd;
  auto port = BoundPort(listen_fd_);
  if (!port.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void PghivedServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;  // EINTR or a transient accept failure.
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // Join the connections that have ended, so a client that keeps
    // reconnecting does not pile up exited threads and their stacks.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections_.erase(it);
    }
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread =
        std::thread([this, &connection] { ServeConnection(&connection); });
  }
}

void PghivedServer::ServeConnection(Connection* connection) {
  SocketStream stream(connection->fd);
  while (!stopping_.load()) {
    auto line = stream.ReadLine(kMaxRequestLineBytes);
    if (!line.ok()) {
      // An over-long request line is answered, and then the connection
      // ends: the rest of the line is still unread. A disconnect or IO
      // error just ends it.
      if (line.status().code() == util::StatusCode::kOutOfRange) {
        Response refused;
        refused.status = line.status();
        if (stream.WriteAll(FormatResponse(refused)).ok()) {
          stream.ShutdownAfterReply(kMaxRequestLineBytes);
        }
      }
      break;
    }
    if (line->empty()) continue;
    Response response;
    auto request = ParseRequestLine(*line);
    if (!request.ok()) {
      response.status = request.status();
    } else {
      auto body_bytes = RequestBodyBytes(*request);
      if (!body_bytes.ok()) {
        response.status = body_bytes.status();
      } else {
        if (*body_bytes > 0) {
          util::Status read = stream.ReadExact(*body_bytes, &request->body);
          if (!read.ok()) break;  // Mid-body disconnect: no way to recover.
        }
        response = handler_.Handle(*request);
      }
    }
    if (!stream.WriteAll(FormatResponse(response)).ok()) break;
  }
  // The last use of the mutex: once `done` is set this thread only closes
  // its fd (owned by `stream`) and exits, so Stop() no longer nudges the fd
  // and the accept loop may join the thread.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection->done = true;
}

void PghivedServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblocks accept() so the accept thread can observe stopping_. The fd
  // closes only after the join: the accept loop reads it until it exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::list<Connection> connections;
  {
    // Nudge connections blocked in recv; they finish the in-flight request
    // (ServeConnection rechecks stopping_ before reading the next one).
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const Connection& connection : connections_) {
      if (!connection.done) ::shutdown(connection.fd, SHUT_RD);
    }
    // Splicing keeps the list nodes, which the serving threads point at.
    connections.splice(connections.end(), connections_);
  }
  for (Connection& connection : connections) connection.thread.join();
  // Queue-draining shutdown: every accepted batch commits before exit.
  manager_.DrainAll();
  // Then one final checkpoint of every live session, so a SIGTERM'd daemon
  // restarts exactly where the drain left it. Best effort: shutdown must
  // complete even when the disk does not cooperate.
  util::Status checkpointed = manager_.CheckpointAll();
  if (!checkpointed.ok()) {
    std::fprintf(stderr, "pghived: shutdown checkpoint failed: %s\n",
                 checkpointed.ToString().c_str());
  }
}

}  // namespace pghive::service
