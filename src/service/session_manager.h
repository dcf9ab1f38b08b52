#ifndef PGHIVE_SERVICE_SESSION_MANAGER_H_
#define PGHIVE_SERVICE_SESSION_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/job_queue.h"
#include "service/session.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::service {

/// Owns the multi-tenant session table of a pghived instance: create /
/// lookup / evict by id. All sessions schedule through one JobQueue onto one
/// shared ThreadPool, so concurrent tenants interleave at job granularity
/// while each tenant's batches stay in submission order.
class SessionManager {
 public:
  struct Options {
    size_t max_sessions = 64;  ///< Eviction backstop for runaway clients.
    /// Directory for daemon-owned durability: every session appends each
    /// payload to <dir>/<id>.log, checkpoints its hive snapshot (the bytes
    /// `pghive discover --checkpoint-to` writes) to <dir>/<id>.pghd and
    /// spills evicted changefeed records to <dir>/<id>.feed. Empty = fully
    /// in-memory sessions.
    std::string checkpoint_dir;
    /// Batches between scheduled checkpoints (Finish always checkpoints).
    uint64_t checkpoint_every = 1;
    /// Per-session in-memory changefeed window (tests shrink it to force
    /// the segment-file path).
    size_t feed_backlog = 256;
  };

  /// `pool` may be null (inline jobs — the serial path) and must outlive
  /// the manager.
  SessionManager(util::ThreadPool* pool, Options options)
      : options_(options), pool_(pool), queue_(pool) {}
  explicit SessionManager(util::ThreadPool* pool)
      : SessionManager(pool, Options()) {}

  ~SessionManager() { DrainAll(); }

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session with a fresh id ("s1", "s2", ...). Fails if the
  /// option flags don't parse/validate or the session table is full.
  util::StatusOr<std::shared_ptr<Session>> CreateSession(
      const std::map<std::string, std::string>& option_flags);

  /// NotFound if absent (or already closed).
  util::StatusOr<std::shared_ptr<Session>> Lookup(const std::string& id) const;

  /// Removes the session, waits for its queued jobs to finish, and deletes
  /// its checkpoint, ingest-log and feed-segment files — an explicit close
  /// means the client is done with the session's history.
  util::Status Close(const std::string& id);

  /// Waits for every session's queued jobs (graceful-shutdown path).
  void DrainAll();

  /// Restores every <id>.pghd snapshot found in checkpoint_dir (creating
  /// the directory if absent) under its original id, replaying each
  /// session's ingest log, so a restarted daemon serves get-schema and
  /// subscribe-changefeed on its own. Fresh ids continue past every id seen
  /// on disk. Fails loudly on the first unreadable or corrupt snapshot or
  /// log — silently dropping a tenant's state is worse than refusing to
  /// start. No-op without a checkpoint_dir.
  util::Status RestoreFromCheckpointDir();

  /// Checkpoints every live session (the SIGTERM drain path). Returns the
  /// first failure but attempts all. No-op without a checkpoint_dir.
  util::Status CheckpointAll();

  size_t num_sessions() const;
  JobQueue& queue() { return queue_; }

 private:
  /// The durability config for one session id under checkpoint_dir (empty
  /// config when durability is off).
  SessionDurability DurabilityFor(const std::string& id) const;

  const Options options_;
  util::ThreadPool* pool_;
  JobQueue queue_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t next_id_ = 1;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_SESSION_MANAGER_H_
