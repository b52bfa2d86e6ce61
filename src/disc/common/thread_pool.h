// Dependency-free fixed-size thread pool backing the partition scheduler
// of the DISC miners (core/scheduler.h) and the bench drivers.
//
// Design: one shared FIFO queue under a mutex + condvar. Tasks receive the
// executing worker's index (0 .. threads()-1) so callers can hand each
// worker its own scratch state (counting arrays, second-level partition
// tables) without locking. The scheduler pattern is: sort the work
// largest-first, Submit() everything, Wait().
//
// The queue lock is cold by construction — a task is a whole ⟨λ⟩-partition
// mine, so pops are orders of magnitude rarer than the work they dispatch.
//
// Exception containment: a task that throws does NOT terminate the
// process. The first exception is captured (first_error()), the remaining
// queued tasks are drained unexecuted (counted in "pool.tasks.dropped"),
// and Wait() returns normally — the scheduling caller turns the captured
// failure into a Status and preserves its deterministic merge by treating
// unexecuted tasks exactly like cancelled ones. TakeFirstError() re-arms
// the pool for reuse.
//
// Observability: workers register a "pool-worker-<i>" trace lane, every
// executed task bumps the "pool.tasks" counter inside a "pool/task" span,
// and time a worker spends blocked on an empty queue while tasks are still
// outstanding is recorded in the "pool.queue_wait_us" histogram.
//
// Fail point: "pool.task" fires before each task runs (delay:<ms> stalls
// workers, error/throw makes the task throw — exercising containment).
#ifndef DISC_COMMON_THREAD_POOL_H_
#define DISC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace disc {

/// Fixed-size worker pool. See file comment.
class ThreadPool {
 public:
  /// A unit of work; `worker` is the index of the executing thread.
  using Task = std::function<void(std::size_t worker)>;

  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return workers_.size(); }

  /// Enqueues a task. Tasks start in FIFO order (submit largest-first to
  /// bound tail latency).
  void Submit(Task task);

  /// Blocks until every submitted task has finished or been drained after
  /// a task failure. The pool is reusable afterwards (clear the failure
  /// with TakeFirstError() first).
  void Wait();

  /// True once a task has thrown; sticky until TakeFirstError().
  bool has_error() const;

  /// The first exception a task threw (null if none); clears it, re-arming
  /// the pool to execute tasks again. Call after Wait().
  std::exception_ptr TakeFirstError();

  /// Number of hardware threads; at least 1.
  static std::size_t HardwareThreads();

 private:
  void WorkerLoop(std::size_t worker);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stopping
  std::condition_variable idle_cv_;  // Wait(): queue empty and nothing running
  std::deque<Task> queue_;
  std::size_t in_flight_ = 0;  // popped but not yet finished
  bool stop_ = false;
  std::exception_ptr first_error_;  // guarded by mu_
  std::atomic<bool> has_error_{false};
  std::vector<std::thread> workers_;
};

/// Resolves a MineOptions-style thread request: 0 = hardware concurrency,
/// anything else is taken as-is. Always >= 1.
std::size_t ResolveThreadCount(std::uint32_t requested);

}  // namespace disc

#endif  // DISC_COMMON_THREAD_POOL_H_
