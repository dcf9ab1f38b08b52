#ifndef PGHIVE_UTIL_THREAD_POOL_H_
#define PGHIVE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pghive::util {

/// A fixed-size worker pool that every hot pipeline path drains into.
///
/// Determinism contract: ParallelFor splits [begin, end) into chunks whose
/// boundaries depend only on (begin, end, grain) — never on the worker count
/// or on scheduling — so any body that writes only locations derived from
/// its indices produces bit-identical output at every pool size. Stochastic
/// bodies must pre-split their RNG seeds per index or per chunk.
///
/// Nesting contract: a thread blocked in ParallelFor helps drain the shared
/// queue while it waits, so tasks may themselves call ParallelFor or Submit
/// on the same pool without deadlocking (nested parallel sections flatten
/// into the one queue).
class ThreadPool {
 public:
  /// num_threads == 0 sizes the pool to the hardware concurrency;
  /// num_threads == 1 spawns no workers and runs everything inline on the
  /// calling thread (exactly the serial pipeline).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The resolved parallelism (>= 1; 1 means fully inline).
  size_t num_threads() const { return num_threads_; }

  /// Schedules fn on the pool and returns its future. Exceptions thrown by
  /// fn surface on future.get(). With a 1-thread pool, fn runs inline.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return future;
    }
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs fn(chunk_begin, chunk_end) over every grain-sized chunk of
  /// [begin, end) and blocks until all chunks finished. The calling thread
  /// executes chunks too. If several chunks throw, the exception of the
  /// lowest-index chunk is rethrown (deterministic regardless of timing).
  /// grain == 0 is treated as grain == 1; an empty range is a no-op.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Resolves a user-facing thread knob: 0 -> hardware concurrency
  /// (at least 1), anything else verbatim.
  static size_t ResolveThreads(size_t requested);

 private:
  void Enqueue(std::function<void()> task);
  /// Pops and runs one queued task; returns false if the queue was empty.
  bool RunOneTask();
  void WorkerLoop();

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Pool-optional ParallelFor: a null pool (or a 1-thread pool) runs the
/// whole range inline, which is the serial path every caller falls back to.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_THREAD_POOL_H_
