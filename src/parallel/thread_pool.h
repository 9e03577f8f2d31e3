#ifndef T2M_PARALLEL_THREAD_POOL_H
#define T2M_PARALLEL_THREAD_POOL_H

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "src/util/sync.h"

namespace t2m::par {

/// Usable hardware parallelism (never 0).
std::size_t hardware_threads();

/// Fixed-size thread pool with per-worker work-stealing deques: a worker
/// pops its own deque LIFO (cache-warm continuation of its latest spawn) and
/// steals FIFO from a victim when it runs dry, so coarse tasks distribute
/// without a central bottleneck. Submissions from outside the pool
/// round-robin across the deques.
///
/// The pool only ever grows (`ensure_size`); shrinking a live pool would
/// have to interrupt workers mid-task. Consumers usually go through the
/// `for_chunks` / `TaskGroup` helpers and the process-wide `global()`
/// instance rather than owning a pool.
///
/// Tasks submitted directly via submit() must not throw — exception capture
/// is TaskGroup's job (its wrapper funnels the first exception to wait()).
///
/// Lock hierarchy (docs/concurrency.md): a WorkerQueue mutex is a leaf —
/// nothing else is acquired while one is held; sleep_mutex_ is taken only
/// with no queue mutex held; grow_mutex_ serialises growth and shutdown and
/// never nests inside the others.
class ThreadPool {
 public:
  /// Hard cap on workers; keeps the deque table a fixed-size array so
  /// stealing never races vector reallocation.
  static constexpr std::size_t kMaxWorkers = 128;

  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // order: acquire pairs with the release store in ensure_size — a caller
  // that observes worker_count_ == n also observes the n initialised
  // queues_[i] pointers published before it.
  std::size_t size() const { return worker_count_.load(std::memory_order_acquire); }

  /// Enqueues a task. Never blocks.
  void submit(std::function<void()> task);

  /// Runs one pending task on the calling thread, if any (FIFO steal).
  /// TaskGroup::wait() calls this so a blocked caller — including a pool
  /// worker waiting on a nested group — makes progress instead of
  /// deadlocking the pool.
  bool help_one();

  /// Grows the pool to at least `workers` threads (clamped to kMaxWorkers).
  void ensure_size(std::size_t workers);

  /// Process-wide pool, created on first use with hardware_threads()
  /// workers; consumers requesting more parallelism grow it on demand.
  static ThreadPool& global();

 private:
  struct WorkerQueue {
    Mutex mutex;
    std::deque<std::function<void()>> tasks GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t index);
  bool pop_own(std::size_t index, std::function<void()>& out);
  bool steal(std::size_t thief, std::function<void()>& out);

  std::unique_ptr<WorkerQueue> queues_[kMaxWorkers];
  std::atomic<std::size_t> worker_count_{0};
  /// Tasks enqueued and not yet popped. Workers sleep only when this is 0;
  /// submit() bumps it before pushing and rendezvouses on sleep_mutex_, so a
  /// worker can never sleep through a submission.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> submit_cursor_{0};
  std::atomic<bool> stopping_{false};
  Mutex sleep_mutex_;
  CondVar sleep_cv_;
  Mutex grow_mutex_;
  std::vector<Thread> threads_ GUARDED_BY(grow_mutex_);
};

/// Fork-join scope over a pool: run() submits counted tasks, wait() blocks
/// until all of them finished, helping the pool run pending tasks meanwhile
/// (nested groups therefore cannot deadlock even on a one-worker pool). The
/// first exception a task throws is captured and rethrown from wait().
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::global()) : pool_(pool) {}
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> fn);
  void wait();
  /// True when no task is pending — for callers that interleave waiting
  /// with other duties (e.g. the encoder's pipelined splice); pair
  /// with help_one() and finish with wait() for exception delivery.
  // order: acquire pairs with the acq_rel fetch_sub in the task wrapper, so
  // done() == true implies the finished tasks' writes (results, walls) are
  // visible to this thread even before the wait() rendezvous.
  bool done() const { return pending_.load(std::memory_order_acquire) == 0; }

 private:
  ThreadPool& pool_;
  std::atomic<std::size_t> pending_{0};
  Mutex mutex_;
  CondVar cv_;
  std::exception_ptr error_ GUARDED_BY(mutex_);  ///< first task exception
};

/// Splits [0, n) into `chunks` contiguous ranges and runs
/// fn(chunk, begin, end) for each. Results keyed by chunk index are
/// deterministic regardless of which worker ran which chunk — the merge
/// order every parallel consumer in this codebase relies on. threads <= 1
/// (or a single chunk) runs inline with no pool involvement.
void for_chunks(std::size_t threads, std::size_t n, std::size_t chunks,
                const std::function<void(std::size_t chunk, std::size_t begin,
                                         std::size_t end)>& fn);

}  // namespace t2m::par

#endif  // T2M_PARALLEL_THREAD_POOL_H
