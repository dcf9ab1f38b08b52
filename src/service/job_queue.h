#ifndef PGHIVE_SERVICE_JOB_QUEUE_H_
#define PGHIVE_SERVICE_JOB_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "util/thread_pool.h"

namespace pghive::service {

/// Schedules session jobs onto a shared util::ThreadPool while preserving
/// the PR-5 determinism contract per session: jobs submitted to one lane run
/// strictly in submission order, one at a time, while different lanes run
/// concurrently. A lane is keyed by session id, so one tenant's ingest never
/// reorders and never blocks another tenant's.
///
/// Scheduling: the first job submitted to an idle lane dispatches a "lane
/// runner" onto the pool; the runner drains that lane to empty and exits.
/// Jobs submitted while the runner is active are appended and picked up
/// without a second dispatch, so a lane occupies at most one pool slot.
/// With a null pool every job runs inline on the submitting thread (the
/// serial path, used by single-threaded daemons and tests).
class JobQueue {
 public:
  using Job = std::function<void()>;

  /// `pool` may be null (inline execution) and must outlive the queue.
  explicit JobQueue(util::ThreadPool* pool) : pool_(pool) {}
  ~JobQueue() { Shutdown(); }

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Appends `job` to `lane`. Returns false after Shutdown (job dropped).
  bool Submit(const std::string& lane, Job job);

  /// Blocks until every job in `lane` that was submitted before this call
  /// has finished. Jobs submitted concurrently may or may not be included.
  void DrainLane(const std::string& lane);

  /// Blocks until all lanes are idle and every lane runner has finished
  /// with the queue, so the caller may destroy it on return.
  void Drain();

  /// Drains everything, then rejects further submissions. Idempotent.
  void Shutdown();

  /// Jobs queued or running right now (diagnostics).
  size_t pending() const;

 private:
  struct Lane {
    std::deque<Job> jobs;
    /// A runner is dispatched for this lane. The runner clears it under
    /// mutex_ as its last use of the queue.
    bool running = false;
  };

  /// Runs on a pool worker (or inline): executes `lane`'s jobs in order
  /// until the lane is empty.
  void RunLane(const std::string& lane);

  util::ThreadPool* pool_;
  mutable std::mutex mutex_;
  std::condition_variable idle_;
  std::map<std::string, Lane> lanes_;
  size_t pending_ = 0;
  bool shutdown_ = false;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_JOB_QUEUE_H_
