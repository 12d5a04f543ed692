/// \file thread_pool.h
/// \brief Fixed-size worker pool for shard advancement in
/// sim::FleetSimulation.
///
/// The fleet replay is the repo's one parallelism level: lanes are hashed
/// onto K shards, and every epoch advances the shards concurrently
/// through ParallelFor. Determinism (NFR2) is the caller's job and holds
/// by construction there: each index owns disjoint state and the
/// coordinator merges in index order, so results are bit-identical at any
/// worker count or interleaving. The OODA pipeline runs each cycle
/// sequentially and never touches a pool.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autocomp {

/// \brief Fixed-size pool whose only entry point is a blocking
/// ParallelFor.
///
/// ParallelFor runs inline on the caller when fan-out cannot help: a
/// single index, a pool of at most one worker, or a call from one of the
/// pool's own workers (which also makes nesting deadlock-free).
/// Concurrent calls from several external threads are allowed.
class ThreadPool {
 public:
  /// Starts `workers` threads; 0 (or less) picks
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Invokes `body(i)` exactly once for every i in [0, n) and blocks
  /// until all calls returned. The range is cut into `workers × 8`
  /// contiguous chunks (at most n) that the workers claim from one shared
  /// counter, so a worker stuck on a slow chunk simply claims fewer.
  /// `body` must be safe to run concurrently with itself for distinct
  /// indices.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

 private:
  void WorkerLoop();

  /// Guards `queue_` and `stop_`.
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace autocomp
