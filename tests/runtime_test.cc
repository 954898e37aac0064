// The runtime layer: fixed-size thread pool + work queue semantics that
// api::Suite's determinism contract rests on, plus the capability-annotated
// lock wrappers (runtime/sync.h) every mutex in src/ goes through.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/sync.h"
#include "runtime/thread_pool.h"

namespace ccd {
namespace {

// ------------------------------------------------------- sync primitives

TEST(SyncTest, MutexLockExcludesConcurrentWriters) {
  runtime::Mutex mu;
  int counter CCD_GUARDED_BY(mu) = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < 1000; ++i) {
        runtime::MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  runtime::MutexLock lock(&mu);
  EXPECT_EQ(counter, 4000);
}

TEST(SyncTest, TryLockReportsContention) {
  runtime::Mutex mu;
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, SharedMutexReadersSeeWriterResults) {
  runtime::SharedMutex mu;
  int value CCD_GUARDED_BY(mu) = 0;
  {
    runtime::WriterLock writer(&mu);
    value = 7;
    EXPECT_EQ(writer.mutex(), &mu);
  }
  // Reader locks in two threads may overlap freely; each sees the
  // published value. (The TSan job catches it if ReaderLock were
  // secretly exclusive-and-broken; here we pin the happy path.)
  std::thread reader([&mu, &value] {
    runtime::ReaderLock lock(&mu);
    EXPECT_EQ(value, 7);
  });
  {
    runtime::ReaderLock lock(&mu);
    EXPECT_EQ(value, 7);
  }
  reader.join();
}

TEST(SyncTest, CondVarWakesBlockedWaiter) {
  runtime::Mutex mu;
  runtime::CondVar cv;
  bool ready CCD_GUARDED_BY(mu) = false;
  std::thread waker([&mu, &cv, &ready] {
    runtime::MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    runtime::MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  runtime::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WaitCanBeReusedAcrossBatches) {
  runtime::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 50 * (batch + 1));
  }
}

TEST(ThreadPoolTest, ClampsWorkerCountToAtLeastOne) {
  runtime::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(runtime::ThreadPool::DefaultThreads(), 1);
}

}  // namespace
}  // namespace ccd
