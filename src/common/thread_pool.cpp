#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>

namespace micronas {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll `ready` with a pause between polls until it holds or
/// ThreadPool::kSpinWindow has passed; returns its last value. The
/// clock is read once per batch of polls, not per poll.
template <typename Ready>
bool spin_until(const Ready& ready) {
  constexpr int kPollsPerClockRead = 64;
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  do {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return ready();
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const unsigned hc = std::thread::hardware_concurrency();
  if (threads <= 0) threads = hc == 0 ? 1 : static_cast<int>(hc);
  concurrency_ = threads;
  spin_ = hc != 0 && static_cast<unsigned>(threads) <= hc;
  // The caller of parallel_for supplies one lane, so spawn one fewer
  // worker than the configured concurrency.
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    stopping_.store(true, std::memory_order_relaxed);
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  const auto has_work = [this] {
    return queued_.load(std::memory_order_relaxed) != 0 ||
           stopping_.load(std::memory_order_relaxed);
  };
  for (;;) {
    const bool woke = spin_ && spin_until(has_work);
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Another lane took the task this one saw: spin again rather than
      // park, the next dispatch is likely microseconds away.
      if (woke && !stop_ && tasks_.empty()) continue;
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline serial path: exact index order, no scheduling overhead.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared per-call state: a work cursor plus completion accounting.
  // `done` is atomic so finishing an item is lock-free; the mutex is
  // only taken to record an error or to publish the final wakeup.
  struct CallState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable finished;
  };
  auto state = std::make_shared<CallState>();

  const std::size_t jobs = std::min(workers_.size(), n - 1);
  auto drain = [state, n, &fn] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Take the lock before notifying so the waiter cannot check the
        // predicate and sleep between our increment and the notify.
        std::lock_guard<std::mutex> lock(state->mutex);
        state->finished.notify_all();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // `drain` outlives this scope via the queue; `fn` is only borrowed,
    // which is safe because parallel_for blocks until every index is done.
    for (std::size_t j = 0; j < jobs; ++j) tasks_.push(drain);
    queued_.store(tasks_.size(), std::memory_order_relaxed);
  }
  task_ready_.notify_all();

  // The caller participates too, so a busy pool cannot starve the call.
  drain();

  const auto all_done = [&] { return state->done.load(std::memory_order_acquire) == n; };
  if (spin_) spin_until(all_done);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->finished.wait(lock, all_done);
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace micronas
