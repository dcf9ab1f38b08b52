#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

namespace pghive::util {

size_t ThreadPool::ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  if (num_threads_ <= 1) return;
  // The calling thread executes chunks too (it helps drain the queue while
  // blocked in ParallelFor), so num_threads total parallelism needs only
  // num_threads - 1 workers.
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Completion state shared by the chunks of one ParallelFor call.
struct ForState {
  std::mutex mutex;
  std::condition_variable done;
  size_t remaining = 0;
  std::vector<std::exception_ptr> errors;
};

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t range = end - begin;
  if (workers_.empty() || range <= grain) {
    fn(begin, end);
    return;
  }

  const size_t num_chunks = (range + grain - 1) / grain;
  auto state = std::make_shared<ForState>();
  state->remaining = num_chunks;
  state->errors.assign(num_chunks, nullptr);
  // fn is captured by reference: this call blocks until every chunk has
  // completed, so the reference outlives all chunk tasks.
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = begin + c * grain;
    const size_t hi = std::min(end, lo + grain);
    Enqueue([state, &fn, c, lo, hi] {
      try {
        fn(lo, hi);
      } catch (...) {
        state->errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (--state->remaining == 0) state->done.notify_all();
    });
  }

  // Help drain the queue while waiting. The popped task may belong to an
  // unrelated parallel section (or be a whole submitted job lane); either
  // way it never blocks on this chunk set, so progress is guaranteed.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->remaining == 0) break;
    }
    if (!RunOneTask()) {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->done.wait(lock, [&state] { return state->remaining == 0; });
      break;
    }
  }

  for (size_t c = 0; c < num_chunks; ++c) {
    if (state->errors[c]) std::rethrow_exception(state->errors[c]);
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (pool == nullptr) {
    if (end > begin) fn(begin, end);
    return;
  }
  pool->ParallelFor(begin, end, grain, fn);
}

}  // namespace pghive::util
