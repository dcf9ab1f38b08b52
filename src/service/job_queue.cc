#include "service/job_queue.h"

#include <algorithm>
#include <utility>

namespace pghive::service {

bool JobQueue::Submit(const std::string& lane, Job job) {
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return false;
    Lane& l = lanes_[lane];
    l.jobs.push_back(std::move(job));
    ++pending_;
    if (!l.running) {
      l.running = true;
      dispatch = true;
    }
  }
  if (dispatch) {
    if (pool_ != nullptr && pool_->num_threads() > 1) {
      pool_->Submit([this, lane] { RunLane(lane); });
    } else {
      RunLane(lane);
    }
  }
  return true;
}

void JobQueue::RunLane(const std::string& lane) {
  for (;;) {
    Job job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Lane& l = lanes_[lane];
      if (l.jobs.empty()) {
        // The last touch of the queue: Drain() returns only once no lane is
        // running, and the waiter cannot wake before this lock is released.
        l.running = false;
        idle_.notify_all();
        return;
      }
      job = std::move(l.jobs.front());
      l.jobs.pop_front();
    }
    // Jobs are expected not to throw (session jobs latch a Status instead),
    // but a stray exception must not kill the pool worker or wedge the lane
    // bookkeeping.
    try {
      job();
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      if (pending_ == 0) idle_.notify_all();
    }
  }
}

void JobQueue::DrainLane(const std::string& lane) {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] {
    auto it = lanes_.find(lane);
    return it == lanes_.end() || (it->second.jobs.empty() && !it->second.running);
  });
}

void JobQueue::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  // pending_ reaches 0 while the runner that ran the last job still has to
  // re-lock the queue, so wait for every runner to finish too.
  idle_.wait(lock, [&] {
    return pending_ == 0 &&
           std::none_of(lanes_.begin(), lanes_.end(),
                        [](const auto& lane) { return lane.second.running; });
  });
}

void JobQueue::Shutdown() {
  Drain();
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
}

size_t JobQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

}  // namespace pghive::service
