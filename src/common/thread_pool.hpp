// Fixed-size worker pool for data-parallel candidate scoring and the
// executors' kernel partitions.
//
// The pool is deliberately minimal: `parallel_for` partitions an index
// range over the workers via an atomic cursor, so work items of uneven
// cost (NTK on cells of very different size) balance dynamically.
// Determinism is the caller's job — work items must not share mutable
// state, and any randomness must be derived from the item index or a
// content hash, never from a shared sequential stream (see
// search/eval_engine.hpp for the seeding discipline).
//
// Spin-then-park: an idle worker, and a caller waiting for the last
// items of its parallel_for, first spin (with a CPU pause hint) on an
// atomic for at most kSpinWindow, and only then block on a condition
// variable. A batch-1 inference dispatches several parallel ops in a
// row with only microseconds between them; spinning through those gaps
// saves two futex wake-ups per op (the gemmlowp worker-pool idiom).
// The condition-variable wait stays the source of truth, so the spin is
// purely a fast path. Pools with more lanes than the host has hardware
// threads never spin: a spinning lane would occupy the core the
// working lane needs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace micronas {

class ThreadPool {
 public:
  /// `threads` worker threads; 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Longest a waiting lane spins before it blocks. Long enough to
  /// cover the gaps between consecutive ops of one executor walk, short
  /// enough that a pool idle between requests parks almost at once.
  static constexpr std::chrono::microseconds kSpinWindow{100};

  /// Configured concurrency. The pool spawns size()-1 workers; the
  /// thread calling parallel_for is the size()-th lane, so a pool of N
  /// never runs more than N work items at once.
  int size() const { return concurrency_; }

  /// Run `fn(i)` for every i in [0, n), distributing indices over the
  /// workers. Blocks until all items complete. The first exception
  /// thrown by any item is rethrown in the caller (remaining items are
  /// still drained so the pool stays usable). With n == 0 returns
  /// immediately; with one worker the items run in index order.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  int concurrency_ = 1;
  bool spin_ = false;  // every lane has its own hardware thread
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::queue<std::function<void()>> tasks_;  // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
  // Lock-free mirrors of tasks_.size() and stop_ for spinning workers;
  // written only under mutex_, next to the values they mirror.
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;  // last: the threads use every member above
};

}  // namespace micronas
