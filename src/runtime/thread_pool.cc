#include "runtime/thread_pool.h"

#include <exception>
#include <utility>

#include "runtime/sim.h"

namespace ccd {
namespace runtime {

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  // sim::StartThread is std::thread's constructor outside a simulation;
  // inside one, workers are adopted as schedulable tasks so pool-based
  // code runs unmodified under the deterministic scheduler.
  for (int i = 0; i < threads; ++i) {
    workers_.push_back(sim::StartThread([this] { WorkerLoop(); }));
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& w : workers_) sim::JoinThread(w);
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mutex_);
  while (!queue_.empty() || in_flight_ != 0) all_done_.Wait(mutex_);
}

int ThreadPool::DefaultThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!stop_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void RunThreads(int threads, const std::function<void(int)>& fn) {
  if (threads < 1) threads = 1;
  Mutex mutex;
  CondVar barrier;
  int ready = 0;
  bool go = false;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.push_back(sim::StartThread([&, t] {
      {
        MutexLock lock(&mutex);
        ++ready;
        barrier.NotifyAll();
        while (!go) barrier.Wait(mutex);
      }
      try {
        fn(t);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    }));
  }
  {
    MutexLock lock(&mutex);
    while (ready != threads) barrier.Wait(mutex);
    go = true;
    barrier.NotifyAll();
  }
  for (std::thread& worker : workers) sim::JoinThread(worker);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace runtime
}  // namespace ccd
