#ifndef CCD_RUNTIME_THREAD_POOL_H_
#define CCD_RUNTIME_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/sync.h"

namespace ccd {
namespace runtime {

/// Fixed-size thread pool over a FIFO work queue — the execution layer of
/// the experiment-suite runner (api::Suite). Tasks are opaque thunks; determinism is the *caller's*
/// contract: a task must write only to state it owns (e.g. its own slot of
/// a pre-sized result vector), so results are identical whatever order the
/// workers pick tasks in.
///
/// Tasks must not throw — wrap the body and capture the exception into a
/// per-task slot (api::Suite stores an std::exception_ptr per cell and
/// rethrows the first one, in task order, after Wait()).
class ThreadPool {
 public:
  /// Spawns `threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int threads);

  /// Drains nothing: pending tasks are abandoned only if the pool dies
  /// before Wait(); call Wait() first for orderly shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing (queue empty
  /// and no task in flight).
  void Wait();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Default worker count: hardware_concurrency, with a floor of 1 for
  /// platforms that report 0.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  Mutex mutex_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ CCD_GUARDED_BY(mutex_);
  /// Tasks popped but not yet finished.
  std::size_t in_flight_ CCD_GUARDED_BY(mutex_) = 0;
  bool stop_ CCD_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(0) .. fn(threads-1)` on `threads` *dedicated* threads that
/// all start together: every thread parks on a start barrier until the
/// last one is up, so the calls genuinely contend instead of running in
/// spawn order — the launcher behind the serving benchmarks and the
/// router stress tests. Joins all threads before returning; the first
/// exception (in thread-index order) is rethrown on the calling thread.
/// Unlike ThreadPool each index owns a real thread for its whole
/// lifetime, which is the point when measuring or stressing lock
/// contention.
void RunThreads(int threads, const std::function<void(int)>& fn);

}  // namespace runtime
}  // namespace ccd

#endif  // CCD_RUNTIME_THREAD_POOL_H_
