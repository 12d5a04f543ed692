#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace autocomp {

namespace {

/// The pool (if any) whose worker loop runs on this thread; a
/// ParallelFor from one of its own workers runs inline.
thread_local ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int workers) {
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain before exiting: a runner still queued when its ParallelFor
      // returned finds no chunk left and returns at once.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  if (n == 1 || worker_count() <= 1 || tls_pool == this) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared with the runners, which may outlive this call: a runner still
  // queued after the last chunk finished claims nothing and never
  // touches `body`.
  struct State {
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> chunks_done{0};
    std::mutex mu;
    std::condition_variable done_cv;
  };

  const int64_t chunks =
      std::min<int64_t>(n, static_cast<int64_t>(worker_count()) * 8);
  const int64_t per_chunk = (n + chunks - 1) / chunks;
  auto state = std::make_shared<State>();
  const int64_t runners =
      std::min<int64_t>(static_cast<int64_t>(worker_count()), chunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t r = 0; r < runners; ++r) {
      queue_.push_back([state, chunks, per_chunk, n, &body] {
        while (true) {
          const int64_t c =
              state->next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c >= chunks) return;
          const int64_t begin = c * per_chunk;
          const int64_t end = std::min(n, begin + per_chunk);
          for (int64_t i = begin; i < end; ++i) body(i);
          if (state->chunks_done.fetch_add(1, std::memory_order_acq_rel) +
                  1 ==
              chunks) {
            std::lock_guard<std::mutex> done_lock(state->mu);
            state->done_cv.notify_all();
          }
        }
      });
    }
  }
  for (int64_t r = 0; r < runners; ++r) wake_cv_.notify_one();

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] {
    return state->chunks_done.load(std::memory_order_acquire) == chunks;
  });
}

}  // namespace autocomp
