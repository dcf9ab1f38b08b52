#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace pghive::util {
namespace {

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7u);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  auto future = pool.Submit([caller] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 42;
  });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(4);
  auto future = pool.Submit([] { return std::string("done"); });
  EXPECT_EQ(future.get(), "done");
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(4);
  auto future = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForGrainLargerThanRangeIsOneInlineChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(3, 10, 100, [&](size_t lo, size_t hi) {
    chunks.emplace_back(lo, hi);  // Single chunk: no synchronization needed.
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 3u);
  EXPECT_EQ(chunks[0].second, 10u);
}

TEST(ThreadPoolTest, ParallelForZeroGrainTreatedAsOne) {
  ThreadPool pool(2);
  std::vector<int> out(10, 0);
  pool.ParallelFor(0, out.size(), 0, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = static_cast<int>(i);
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelOutputMatchesSerial) {
  constexpr size_t kN = 50000;
  auto fill = [](ThreadPool* pool, std::vector<uint64_t>* out) {
    out->assign(kN, 0);
    ParallelFor(pool, 0, kN, 128, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) (*out)[i] = i * i + 1;
    });
  };
  std::vector<uint64_t> serial;
  fill(nullptr, &serial);
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<uint64_t> parallel;
    fill(&pool, &parallel);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestChunkException) {
  ThreadPool pool(4);
  // Every chunk throws its own chunk id; the contract is that the
  // lowest-index chunk's exception wins regardless of completion order.
  std::string what;
  try {
    pool.ParallelFor(0, 64, 4, [&](size_t lo, size_t) {
      throw std::runtime_error(std::to_string(lo));
    });
    FAIL() << "expected ParallelFor to throw";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "0");
}

TEST(ThreadPoolTest, ParallelForSingleFailingChunkStillFinishesOthers) {
  ThreadPool pool(4);
  constexpr size_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  EXPECT_THROW(
      pool.ParallelFor(0, kN, 16,
                       [&](size_t lo, size_t hi) {
                         for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                         if (lo == 1024) throw std::logic_error("one bad chunk");
                       }),
      std::logic_error);
  // All chunks ran to completion despite the failure.
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForInsideSubmitDoesNotDeadlock) {
  ThreadPool pool(2);
  // Mirrors the pghived shape: a submitted job lane fans out a ParallelFor
  // on the same pool while the caller runs one too.
  std::vector<int> a(10000, 0), b(10000, 0);
  auto track = [&pool](std::vector<int>* out) {
    pool.ParallelFor(0, out->size(), 64, [out](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) (*out)[i] = static_cast<int>(i % 7);
    });
  };
  auto fa = pool.Submit([&] { track(&a); });
  track(&b);
  fa.get();
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, NestedParallelForInsideParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::vector<int>> rows(16);
  pool.ParallelFor(0, rows.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      rows[r].assign(512, 0);
      pool.ParallelFor(0, rows[r].size(), 32, [&rows, r](size_t il, size_t ih) {
        for (size_t i = il; i < ih; ++i) rows[r][i] = static_cast<int>(r + i);
      });
    }
  });
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      ASSERT_EQ(rows[r][i], static_cast<int>(r + i));
    }
  }
}

TEST(ThreadPoolTest, ManyConcurrentSubmits) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([t] { return t * 3; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 3LL * kTasks * (kTasks - 1) / 2);
}

}  // namespace
}  // namespace pghive::util
