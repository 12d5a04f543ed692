/// \file thread_pool_test.cc
/// \brief ThreadPool::ParallelFor tests. Labelled "concurrency" — run
/// them under -DAUTOCOMP_SANITIZE=thread to validate the synchronization.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace autocomp {
namespace {

TEST(ThreadPoolTest, WorkerCountDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&visits](int64_t i) { visits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller.
  pool.ParallelFor(1, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.ParallelFor(16, [&seen](int64_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  // Outer iterations run on pool workers; the nested call must not
  // deadlock waiting for workers that are already occupied.
  pool.ParallelFor(8, [&pool, &total](int64_t) {
    pool.ParallelFor(8, [&total](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForUsesMultipleWorkers) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "single-core host: fan-out cannot be observed";
  }
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable entered;
  std::set<std::thread::id> threads;
  bool gave_up = false;
  pool.ParallelFor(256, [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    entered.notify_all();
    // Rendezvous: hold every call until a second thread has entered, so
    // the first worker to wake cannot drain all chunks before its peers
    // are scheduled. The timeout (taken once) bounds a pool that really
    // runs serially; the assertion below then fails.
    if (!gave_up && !entered.wait_for(lock, std::chrono::seconds(1), [&] {
          return threads.size() >= 2;
        })) {
      gave_up = true;
    }
  });
  EXPECT_GE(threads.size(), 2u);
}

TEST(ThreadPoolTest, ParallelForAccumulatesIntoSlots) {
  // The per-index-slot pattern the pipeline uses: concurrent writers,
  // disjoint indices, no synchronization needed beyond the join.
  ThreadPool pool(4);
  constexpr int64_t kN = 4096;
  std::vector<int64_t> slots(kN, -1);
  pool.ParallelFor(kN, [&slots](int64_t i) { slots[i] = i * i; });
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(slots[i], i * i);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallers) {
  // Two external threads driving the same pool at once.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  std::thread a([&] {
    pool.ParallelFor(1000, [&total](int64_t) { total.fetch_add(1); });
  });
  std::thread b([&] {
    pool.ParallelFor(1000, [&total](int64_t) { total.fetch_add(1); });
  });
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2000);
}

TEST(ThreadPoolTest, DestroyWithQueuedRunnersIsHarmless) {
  // With fewer indices than workers, one runner can finish every chunk
  // while its siblings are still queued. ParallelFor then returns, the
  // body goes out of scope, and the destructor drains the stragglers:
  // they must claim no chunk and never touch the dead body (ASan and
  // TSan check this).
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> calls{0};
    {
      ThreadPool pool(4);
      {
        const std::function<void(int64_t)> body = [&calls](int64_t) {
          calls.fetch_add(1);
        };
        pool.ParallelFor(2, body);
      }
      EXPECT_EQ(calls.load(), 2);
    }
    EXPECT_EQ(calls.load(), 2);
  }
}

}  // namespace
}  // namespace autocomp
