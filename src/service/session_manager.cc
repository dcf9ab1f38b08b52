#include "service/session_manager.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "util/file_io.h"

namespace pghive::service {

namespace {

/// Parses the numeric part of a session filename "s<k>.pghd" / "s<k>.log" /
/// "s<k>.feed" into *id; false for anything else (including foreign files
/// in the dir).
bool ParseCheckpointId(const std::string& stem, const std::string& extension,
                       uint64_t* id) {
  if (extension != ".pghd" && extension != ".log" && extension != ".feed") {
    return false;
  }
  if (stem.size() < 2 || stem[0] != 's') return false;
  uint64_t value = 0;
  for (size_t i = 1; i < stem.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(stem[i]))) return false;
    value = value * 10 + static_cast<uint64_t>(stem[i] - '0');
  }
  *id = value;
  return true;
}

}  // namespace

SessionDurability SessionManager::DurabilityFor(const std::string& id) const {
  SessionDurability durability;
  durability.feed_backlog = options_.feed_backlog;
  if (options_.checkpoint_dir.empty()) return durability;
  durability.state_path = options_.checkpoint_dir + "/" + id + ".pghd";
  durability.log_path = options_.checkpoint_dir + "/" + id + ".log";
  durability.feed_path = options_.checkpoint_dir + "/" + id + ".feed";
  durability.checkpoint_every = options_.checkpoint_every;
  return durability;
}

util::StatusOr<std::shared_ptr<Session>> SessionManager::CreateSession(
    const std::map<std::string, std::string>& option_flags) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= options_.max_sessions) {
    return util::Status::FailedPrecondition(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        "); close a session first");
  }
  std::string id = "s" + std::to_string(next_id_++);
  auto session =
      Session::Create(id, option_flags, pool_, &queue_, DurabilityFor(id));
  if (!session.ok()) return session.status();
  sessions_[id] = *session;
  return *session;
}

util::Status SessionManager::RestoreFromCheckpointDir() {
  if (options_.checkpoint_dir.empty()) return util::Status::Ok();
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create checkpoint dir " +
                                 options_.checkpoint_dir + ": " +
                                 ec.message());
  }
  // Collect first, then restore in numeric id order so restored state is
  // independent of directory iteration order.
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  uint64_t max_id = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.checkpoint_dir, ec)) {
    uint64_t id = 0;
    if (!ParseCheckpointId(entry.path().stem().string(),
                           entry.path().extension().string(), &id)) {
      continue;
    }
    // Logs and feed segments without a snapshot still reserve the id: a
    // session that ingested but died before its first checkpoint must not
    // have its files inherited by an unrelated new session.
    max_id = std::max(max_id, id);
    if (entry.path().extension() == ".pghd") {
      snapshots.emplace_back(id, entry.path().string());
    }
  }
  if (ec) {
    return util::Status::IoError("cannot list checkpoint dir " +
                                 options_.checkpoint_dir + ": " +
                                 ec.message());
  }
  std::sort(snapshots.begin(), snapshots.end());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [numeric_id, path] : snapshots) {
    auto bytes = util::ReadWholeFile(path);
    if (!bytes.ok()) {
      return util::Status::IoError("cannot read checkpoint " + path);
    }
    std::string id = "s" + std::to_string(numeric_id);
    auto session = Session::CreateFromState(id, *bytes, pool_, &queue_,
                                            DurabilityFor(id));
    if (!session.ok()) {
      return util::Status(session.status().code(),
                          "checkpoint " + path + ": " +
                              session.status().message());
    }
    sessions_[id] = *session;
  }
  next_id_ = std::max(next_id_, max_id + 1);
  return util::Status::Ok();
}

util::Status SessionManager::CheckpointAll() {
  if (options_.checkpoint_dir.empty()) return util::Status::Ok();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  util::Status first_error = util::Status::Ok();
  for (const std::shared_ptr<Session>& session : sessions) {
    util::Status status = session->WriteCheckpoint();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

util::StatusOr<std::shared_ptr<Session>> SessionManager::Lookup(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("no session '" + id + "'");
  }
  return it->second;
}

util::Status SessionManager::Close(const std::string& id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return util::Status::NotFound("no session '" + id + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Outside the lock: draining can run queued jobs inline.
  session->Drain();
  if (!options_.checkpoint_dir.empty()) {
    SessionDurability durability = DurabilityFor(id);
    std::remove(durability.state_path.c_str());
    std::remove(durability.log_path.c_str());
    std::remove(durability.feed_path.c_str());
  }
  return util::Status::Ok();
}

void SessionManager::DrainAll() { queue_.Drain(); }

size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace pghive::service
