// JobQueue unit tests: per-lane FIFO ordering (the determinism contract),
// cross-lane concurrency on a shared pool, drain semantics, and shutdown
// rejection. Lane-ordering assertions run under both the inline (null pool)
// and pooled paths.

#include "service/job_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace pghive::service {
namespace {

TEST(JobQueueTest, NullPoolRunsJobsInlineInOrder) {
  JobQueue queue(nullptr);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.Submit("lane", [&order, i] { order.push_back(i); }));
  }
  // Inline path: jobs already ran on the submitting thread.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(JobQueueTest, LaneJobsRunInSubmissionOrderOnPool) {
  util::ThreadPool pool(4);
  JobQueue queue(&pool);
  std::mutex mutex;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.Submit("s1", [&, i] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    }));
  }
  queue.DrainLane("s1");
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(JobQueueTest, LanesInterleaveButNeverReorderInternally) {
  util::ThreadPool pool(4);
  JobQueue queue(&pool);
  std::mutex mutex;
  std::vector<std::pair<std::string, int>> events;
  for (int i = 0; i < 50; ++i) {
    for (const std::string lane : {"a", "b", "c"}) {
      ASSERT_TRUE(queue.Submit(lane, [&, lane, i] {
        std::lock_guard<std::mutex> lock(mutex);
        events.emplace_back(lane, i);
      }));
    }
  }
  queue.Drain();
  EXPECT_EQ(events.size(), 150u);
  // Per-lane order is strict regardless of global interleaving.
  std::map<std::string, int> last;
  for (const auto& [lane, seq] : events) {
    auto it = last.find(lane);
    if (it != last.end()) {
      EXPECT_LT(it->second, seq) << "lane " << lane;
    }
    last[lane] = seq;
  }
}

TEST(JobQueueTest, OneLaneNeverHoldsMoreThanOnePoolSlot) {
  util::ThreadPool pool(4);
  JobQueue queue(&pool);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(queue.Submit("only", [&] {
      int now = ++active;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      --active;
    }));
  }
  queue.Drain();
  EXPECT_EQ(max_active.load(), 1);
}

TEST(JobQueueTest, DrainWaitsForAllLanes) {
  util::ThreadPool pool(2);
  JobQueue queue(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(queue.Submit("l" + std::to_string(i % 4), [&] { ++done; }));
  }
  queue.Drain();
  EXPECT_EQ(done.load(), 20);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(JobQueueTest, ShutdownRejectsFurtherSubmissions) {
  util::ThreadPool pool(2);
  JobQueue queue(&pool);
  std::atomic<int> ran{0};
  ASSERT_TRUE(queue.Submit("lane", [&] { ++ran; }));
  queue.Shutdown();
  EXPECT_EQ(ran.load(), 1);  // Shutdown drains first.
  EXPECT_FALSE(queue.Submit("lane", [&] { ++ran; }));
  EXPECT_EQ(ran.load(), 1);  // Rejected job never ran.
  queue.Shutdown();          // Idempotent.
}

// Drain() is the teardown barrier (~JobQueue, ~SessionManager): once it
// returns, no lane runner may touch the queue again. A runner re-locks the
// queue after its last job has been counted done, so Drain must also wait
// for the runners; if it did not, a sanitizer build would report the
// destroyed queue's reuse here as a heap-use-after-free.
TEST(JobQueueTest, DestroyingPooledQueueRightAfterDrainIsSafe) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 300; ++round) {
    auto queue = std::make_unique<JobQueue>(&pool);
    std::atomic<int> ran{0};
    for (int lane = 0; lane < 8; ++lane) {
      ASSERT_TRUE(queue->Submit("l" + std::to_string(lane), [&] { ++ran; }));
    }
    queue->Drain();
    EXPECT_EQ(ran.load(), 8);
    queue.reset();
  }
}

TEST(JobQueueTest, JobExceptionDoesNotWedgeTheLane) {
  util::ThreadPool pool(2);
  JobQueue queue(&pool);
  std::atomic<int> ran{0};
  ASSERT_TRUE(queue.Submit("lane", [] { throw std::runtime_error("boom"); }));
  ASSERT_TRUE(queue.Submit("lane", [&] { ++ran; }));
  queue.Drain();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace pghive::service
