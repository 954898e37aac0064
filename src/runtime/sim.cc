#include "runtime/sim.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

/// Implementation notes.
///
/// One mutex (Impl::mu) guards the entire scheduler. Tasks are real OS
/// threads, but exactly one holds the "running" token at a time; every
/// context switch is a condition-variable handoff under Impl::mu, which
/// also gives TSan the happens-before edges it needs to verify the
/// serialized execution it is watching.
///
/// Raw std::mutex / std::condition_variable are deliberate here (see the
/// justified allowlist entry in tools/lint_determinism.py): the scheduler
/// *implements* the schedule-controlling layer beneath runtime/sync.h, so
/// routing its own synchronization through the wrappers it intercepts
/// would recurse. Nothing in this file reads a clock, an address, or any
/// other ambient nondeterminism into a scheduling decision: the only
/// decision inputs are the seed stream, spawn order, and dense
/// first-touch object ids.
///
/// Teardown of a failed run (deadlock or a task body throwing while
/// holding locks) resumes the surviving tasks one at a time in id order
/// with `aborting` set; each parked task then throws SimAborted out of
/// its blocking call and unwinds. During that unwinding, lock operations
/// reached from destructors degrade to tolerant no-ops (one task runs at
/// a time, so mutual exclusion is moot) — this keeps ThreadPool and
/// MutexLock destructors from terminating the process mid-teardown.

namespace ccd {
namespace runtime {
namespace sim {

namespace {

uint64_t Splitmix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class EventKind : int {
  kSchedule = 1,
  kMutexAcquire,
  kMutexRelease,
  kMutexTryFail,
  kSharedAcquire,
  kSharedRelease,
  kReaderAcquire,
  kReaderRelease,
  kCvWait,
  kCvNotifyOne,
  kCvNotifyAll,
  kSleep,
  kClockJump,
  kChoice,
  kThreadAdopted,
  kTaskDone,
  kYield,
};

enum class TaskState { kReady, kRunning, kBlocked, kSleeping, kDone };
enum class BlockKind { kNone, kMutex, kSharedWriter, kSharedReader, kCondVar, kJoin };

struct Task {
  int id = -1;
  std::string name;
  std::function<void()> body;
  std::thread thread;  // spawned tasks only; adopted threads are owned
                       // by their creator (e.g. ThreadPool::workers_).
  TaskState state = TaskState::kReady;
  BlockKind block = BlockKind::kNone;
  uint32_t wait_object = 0;  // dense id of the object blocked on
  int join_target = -1;
  uint64_t wake_at = 0;  // valid while kSleeping
  bool resume = false;
  std::condition_variable cv;
  std::exception_ptr error;
};

struct MutexState {
  int owner = -1;
  std::vector<int> waiters;
};

struct SharedState {
  int writer = -1;
  std::vector<int> readers;
  std::vector<int> writer_waiters;
  std::vector<int> reader_waiters;
};

struct CvWaiter {
  int task;
  void* mutex;
};

struct CvState {
  std::vector<CvWaiter> waiters;
};

}  // namespace

struct SchedulerImpl {
  std::mutex mu;
  std::condition_variable main_cv;  // Run()/abort-loop coordination

  std::vector<std::unique_ptr<Task>> tasks;
  std::map<std::thread::id, int> adopted;  // OS thread id -> task id

  std::map<const void*, MutexState> mutexes;
  std::map<const void*, SharedState> shared;
  std::map<const void*, CvState> condvars;
  std::map<const void*, uint32_t> object_ids;  // dense, first-touch order
  uint32_t next_object_id = 1;

  uint64_t rng_state = 0;
  uint64_t clock = 0;
  uint64_t steps = 0;
  uint64_t digest = 0xcbf29ce484222325ull;  // FNV offset basis
  // Backstop against livelocked schedules (a retry loop that never makes
  // progress would otherwise hang CI silently). Hitting it is reported
  // like a deadlock, with diagnostics.
  uint64_t max_steps = 20u * 1000u * 1000u;

  int running = -1;
  bool started = false;
  bool finished = false;
  bool deadlock = false;
  bool aborting = false;
  std::string deadlock_diag;
};

struct SimAccess {
  static SchedulerImpl& Get(Scheduler& s) { return *s.impl_; }
};

namespace {

thread_local Scheduler* tls_scheduler = nullptr;
thread_local Task* tls_task = nullptr;

using Impl = SchedulerImpl;
using Lock = std::unique_lock<std::mutex>;

uint64_t NextRand(Impl& impl) {
  impl.rng_state += 0x9e3779b97f4a7c15ull;
  uint64_t z = impl.rng_state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint32_t ObjectId(Impl& impl, const void* object) {
  auto it = impl.object_ids.find(object);
  if (it != impl.object_ids.end()) return it->second;
  uint32_t id = impl.next_object_id++;
  impl.object_ids.emplace(object, id);
  return id;
}

void Record(Impl& impl, EventKind kind, uint32_t object, uint64_t arg) {
  uint64_t h = impl.digest;
  h = Splitmix64(h ^ impl.steps);
  h = Splitmix64(h ^ impl.clock);
  h = Splitmix64(h ^ static_cast<uint64_t>(static_cast<int64_t>(impl.running)));
  h = Splitmix64(h ^ static_cast<uint64_t>(kind));
  h = Splitmix64(h ^ object);
  h = Splitmix64(h ^ arg);
  impl.digest = h;
}

bool AllDoneLocked(const Impl& impl) {
  for (const auto& t : impl.tasks) {
    if (t->state != TaskState::kDone) return false;
  }
  return true;
}

const char* BlockName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kNone: return "nothing";
    case BlockKind::kMutex: return "mutex";
    case BlockKind::kSharedWriter: return "shared-mutex (writer)";
    case BlockKind::kSharedReader: return "shared-mutex (reader)";
    case BlockKind::kCondVar: return "condvar";
    case BlockKind::kJoin: return "thread join";
  }
  return "?";
}

std::string BuildDiagnosticLocked(const Impl& impl, const char* cause) {
  std::ostringstream os;
  os << "sim: " << cause << " at step " << impl.steps << ", clock "
     << impl.clock << "\n";
  for (const auto& t : impl.tasks) {
    os << "  task " << t->id << " (" << t->name << "): ";
    switch (t->state) {
      case TaskState::kDone: os << "done"; break;
      case TaskState::kReady: os << "ready"; break;
      case TaskState::kRunning: os << "running"; break;
      case TaskState::kSleeping: os << "sleeping until " << t->wake_at; break;
      case TaskState::kBlocked:
        os << "blocked on " << BlockName(t->block);
        if (t->block == BlockKind::kJoin) {
          os << " of task " << t->join_target;
        } else {
          os << " #" << t->wait_object;
        }
        break;
    }
    // Held locks, by dense object id (addresses stay out of diagnostics).
    std::vector<std::pair<uint32_t, const char*>> held;
    for (const auto& m : impl.mutexes) {
      if (m.second.owner == t->id) {
        held.emplace_back(impl.object_ids.at(m.first), "mutex");
      }
    }
    for (const auto& s : impl.shared) {
      if (s.second.writer == t->id) {
        held.emplace_back(impl.object_ids.at(s.first), "shared-mutex(w)");
      } else if (std::find(s.second.readers.begin(), s.second.readers.end(),
                           t->id) != s.second.readers.end()) {
        held.emplace_back(impl.object_ids.at(s.first), "shared-mutex(r)");
      }
    }
    std::sort(held.begin(), held.end());
    for (const auto& h : held) os << "; holds " << h.second << " #" << h.first;
    os << "\n";
  }
  return os.str();
}

void DispatchLocked(Impl& impl, int id) {
  Task& t = *impl.tasks[static_cast<size_t>(id)];
  t.state = TaskState::kRunning;
  t.block = BlockKind::kNone;
  impl.running = id;
  impl.steps += 1;
  Record(impl, EventKind::kSchedule, 0, static_cast<uint64_t>(id));
  t.resume = true;
  t.cv.notify_one();
}

int PickNextLocked(Impl& impl) {
  std::vector<int> ready;
  ready.reserve(impl.tasks.size());
  for (const auto& t : impl.tasks) {
    if (t->state == TaskState::kReady ||
        (t->state == TaskState::kSleeping && t->wake_at <= impl.clock)) {
      ready.push_back(t->id);
    }
  }
  if (ready.empty()) {
    // Everyone is blocked or sleeping: jump the virtual clock to the
    // earliest wake-up, if there is one.
    uint64_t min_wake = ~0ull;
    for (const auto& t : impl.tasks) {
      if (t->state == TaskState::kSleeping) {
        min_wake = std::min(min_wake, t->wake_at);
      }
    }
    if (min_wake != ~0ull) {
      impl.clock = min_wake;
      Record(impl, EventKind::kClockJump, 0, min_wake);
      for (const auto& t : impl.tasks) {
        if (t->state == TaskState::kSleeping && t->wake_at <= impl.clock) {
          ready.push_back(t->id);
        }
      }
    }
  }
  if (ready.empty()) return -1;
  impl.clock += 1;
  return ready[static_cast<size_t>(NextRand(impl) %
                                   static_cast<uint64_t>(ready.size()))];
}

/// Picks and wakes the next task; flags a deadlock (and wakes the Run()
/// thread to start teardown) when nobody can make progress.
void ScheduleNextLocked(Impl& impl) {
  impl.running = -1;
  if (impl.aborting || impl.deadlock) {
    impl.main_cv.notify_all();
    return;
  }
  if (impl.steps >= impl.max_steps) {
    impl.deadlock = true;
    impl.deadlock_diag = BuildDiagnosticLocked(
        impl, "step limit exceeded (livelocked schedule?)");
    impl.main_cv.notify_all();
    return;
  }
  int next = PickNextLocked(impl);
  if (next >= 0) {
    DispatchLocked(impl, next);
    return;
  }
  if (AllDoneLocked(impl)) {
    impl.main_cv.notify_all();
    return;
  }
  impl.deadlock = true;
  impl.deadlock_diag = BuildDiagnosticLocked(impl, "deadlock");
  impl.main_cv.notify_all();
}

/// Parks the calling task in `new_state` and hands the token to the
/// scheduler. Returns once this task is dispatched again.
void SwitchOut(Lock& lk, Impl& impl, Task& self, TaskState new_state) {
  self.state = new_state;
  if (impl.aborting) {
    impl.main_cv.notify_all();
  } else {
    ScheduleNextLocked(impl);
  }
  while (!self.resume) self.cv.wait(lk);
  self.resume = false;
}

/// After a resume: true means "bail out of the calling hook quietly"
/// (teardown is running and we are inside a destructor's unwinding);
/// throwing SimAborted is the normal teardown path for live task code.
bool AbortEscape(Impl& impl) {
  if (!impl.aborting) return false;
  if (std::uncaught_exceptions() > 0) return true;
  throw SimAborted();
}

Impl& CurrentImpl() {
  return SimAccess::Get(*tls_scheduler);
}

Task& CurrentTask() { return *tls_task; }

void WakeJoinersLocked(Impl& impl, int finished_id) {
  for (const auto& t : impl.tasks) {
    if (t->state == TaskState::kBlocked && t->block == BlockKind::kJoin &&
        t->join_target == finished_id) {
      t->state = TaskState::kReady;
      t->block = BlockKind::kNone;
    }
  }
}

/// Common runner for spawned and adopted tasks: park until first
/// dispatch, run the body, mark done, hand the token on.
void RunTaskBody(Scheduler* scheduler, Impl& impl, Task* task) {
  Lock lk(impl.mu);
  tls_scheduler = scheduler;
  tls_task = task;
  while (!task->resume) task->cv.wait(lk);
  task->resume = false;
  if (!impl.aborting) {
    lk.unlock();
    std::exception_ptr error;
    try {
      task->body();
    } catch (const SimAborted&) {
      // Normal teardown of a failed run; not this task's error.
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    task->error = error;
  }
  task->state = TaskState::kDone;
  task->body = nullptr;
  Record(impl, EventKind::kTaskDone, 0, static_cast<uint64_t>(task->id));
  WakeJoinersLocked(impl, task->id);
  if (impl.aborting) {
    impl.main_cv.notify_all();
  } else {
    ScheduleNextLocked(impl);
  }
}

/// Teardown after a deadlock or task-body exception: resume survivors
/// one at a time (id order) so each can throw SimAborted and unwind.
void AbortLocked(Impl& impl, Lock& lk) {
  impl.aborting = true;
  uint64_t rounds = 0;
  const uint64_t round_cap =
      1000u * (impl.tasks.size() + 1) * (impl.tasks.size() + 1);
  while (!AllDoneLocked(impl)) {
    Task* pick = nullptr;
    for (const auto& t : impl.tasks) {
      if (t->state == TaskState::kDone || t->state == TaskState::kRunning) {
        continue;
      }
      if (t->state == TaskState::kBlocked && t->block == BlockKind::kJoin) {
        const Task& target = *impl.tasks[static_cast<size_t>(t->join_target)];
        if (target.state != TaskState::kDone) continue;
      }
      pick = t.get();
      break;
    }
    if (pick == nullptr) {
      // Only unfinished joins of unfinished tasks remain — a join cycle,
      // which the seam cannot produce. Joining is impossible now, so
      // surface the wedged teardown loudly rather than hang.
      std::fprintf(stderr, "%s",
                   BuildDiagnosticLocked(impl, "wedged teardown").c_str());
      std::abort();
    }
    if (++rounds > round_cap) {
      std::fprintf(stderr, "%s",
                   BuildDiagnosticLocked(impl, "teardown did not converge")
                       .c_str());
      std::abort();
    }
    pick->state = TaskState::kRunning;
    impl.running = pick->id;
    pick->resume = true;
    pick->cv.notify_one();
    Task* picked = pick;
    impl.main_cv.wait(lk, [picked] {
      return picked->state != TaskState::kRunning;
    });
  }
}

}  // namespace

Scheduler::Scheduler(uint64_t seed) : impl_(new Impl()) {
  impl_->rng_state = Splitmix64(seed ^ 0x5ca1ab1e0ddba11ull);
}

Scheduler::~Scheduler() {
  // Run() joins every spawned thread before returning (normally or by
  // throw); a never-run Scheduler has no threads. Nothing to do.
}

void Scheduler::Spawn(std::string name, std::function<void()> body) {
  Impl& impl = *impl_;
  Lock lk(impl.mu);
  if (impl.started) {
    throw std::logic_error("sim: Spawn after Run (declare tasks up front)");
  }
  auto task = std::unique_ptr<Task>(new Task());
  task->id = static_cast<int>(impl.tasks.size());
  task->name = std::move(name);
  task->body = std::move(body);
  impl.tasks.push_back(std::move(task));
}

void Scheduler::Run() {
  Impl& impl = *impl_;
  std::exception_ptr task_error;
  {
    Lock lk(impl.mu);
    if (impl.started) throw std::logic_error("sim: Run is single-shot");
    impl.started = true;
    if (impl.tasks.empty()) {
      impl.finished = true;
      return;
    }
    const size_t spawned = impl.tasks.size();
    for (size_t i = 0; i < spawned; ++i) {
      Task* task = impl.tasks[i].get();
      task->thread =
          std::thread([this, &impl, task] { RunTaskBody(this, impl, task); });
    }
    ScheduleNextLocked(impl);
    impl.main_cv.wait(lk, [&impl] {
      return AllDoneLocked(impl) || impl.deadlock;
    });
    if (!AllDoneLocked(impl)) AbortLocked(impl, lk);
  }
  for (const auto& t : impl.tasks) {
    if (t->thread.joinable()) t->thread.join();
  }
  {
    Lock lk(impl.mu);
    impl.finished = true;
    for (const auto& t : impl.tasks) {
      if (t->error) {
        task_error = t->error;
        break;
      }
    }
  }
  if (task_error) std::rethrow_exception(task_error);
  if (impl.deadlock) throw SimDeadlockError(impl.deadlock_diag);
}

uint64_t Scheduler::digest() const { return impl_->digest; }
uint64_t Scheduler::steps() const { return impl_->steps; }
uint64_t Scheduler::now() const { return impl_->clock; }

bool SimActive() noexcept { return tls_scheduler != nullptr; }

void SimMutexLock(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return;
  const uint32_t obj = ObjectId(impl, mu);
  // Schedule point before every acquisition, contended or not: who gets
  // the lock next is exactly the decision the sweep explores.
  SwitchOut(lk, impl, self, TaskState::kReady);
  if (AbortEscape(impl)) return;
  MutexState& m = impl.mutexes[mu];
  while (m.owner != -1) {
    if (m.owner == self.id) {
      throw std::logic_error("sim: recursive lock of a runtime::Mutex");
    }
    m.waiters.push_back(self.id);
    self.block = BlockKind::kMutex;
    self.wait_object = obj;
    SwitchOut(lk, impl, self, TaskState::kBlocked);
    if (AbortEscape(impl)) return;
  }
  m.owner = self.id;
  Record(impl, EventKind::kMutexAcquire, obj, 0);
}

bool SimMutexTryLock(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return true;
  const uint32_t obj = ObjectId(impl, mu);
  SwitchOut(lk, impl, self, TaskState::kReady);
  if (AbortEscape(impl)) return true;
  MutexState& m = impl.mutexes[mu];
  if (m.owner != -1) {
    Record(impl, EventKind::kMutexTryFail, obj, 0);
    return false;
  }
  m.owner = self.id;
  Record(impl, EventKind::kMutexAcquire, obj, 0);
  return true;
}

void SimMutexUnlock(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (impl.aborting) {
    auto it = impl.mutexes.find(mu);
    if (it != impl.mutexes.end() && it->second.owner == self.id) {
      it->second.owner = -1;
    }
    return;
  }
  auto it = impl.mutexes.find(mu);
  if (it == impl.mutexes.end() || it->second.owner != self.id) {
    throw std::logic_error("sim: unlock of a runtime::Mutex not held");
  }
  it->second.owner = -1;
  Record(impl, EventKind::kMutexRelease, ObjectId(impl, mu), 0);
  // Wake every waiter to re-contend; the scheduler picks the winner.
  for (int w : it->second.waiters) {
    Task& t = *impl.tasks[static_cast<size_t>(w)];
    t.state = TaskState::kReady;
    t.block = BlockKind::kNone;
  }
  it->second.waiters.clear();
  // No switch-out: a task runs atomically from one acquisition to the
  // next (see the reduction argument in sim.h).
}

void SimSharedLock(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return;
  const uint32_t obj = ObjectId(impl, mu);
  SwitchOut(lk, impl, self, TaskState::kReady);
  if (AbortEscape(impl)) return;
  SharedState& s = impl.shared[mu];
  while (s.writer != -1 || !s.readers.empty()) {
    if (s.writer == self.id) {
      throw std::logic_error("sim: recursive lock of a runtime::SharedMutex");
    }
    s.writer_waiters.push_back(self.id);
    self.block = BlockKind::kSharedWriter;
    self.wait_object = obj;
    SwitchOut(lk, impl, self, TaskState::kBlocked);
    if (AbortEscape(impl)) return;
  }
  s.writer = self.id;
  Record(impl, EventKind::kSharedAcquire, obj, 0);
}

void SimSharedUnlock(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  auto it = impl.shared.find(mu);
  if (impl.aborting) {
    if (it != impl.shared.end() && it->second.writer == self.id) {
      it->second.writer = -1;
    }
    return;
  }
  if (it == impl.shared.end() || it->second.writer != self.id) {
    throw std::logic_error(
        "sim: exclusive unlock of a runtime::SharedMutex not write-held");
  }
  SharedState& s = it->second;
  s.writer = -1;
  Record(impl, EventKind::kSharedRelease, ObjectId(impl, mu), 0);
  for (int w : s.writer_waiters) {
    Task& t = *impl.tasks[static_cast<size_t>(w)];
    t.state = TaskState::kReady;
    t.block = BlockKind::kNone;
  }
  s.writer_waiters.clear();
  for (int w : s.reader_waiters) {
    Task& t = *impl.tasks[static_cast<size_t>(w)];
    t.state = TaskState::kReady;
    t.block = BlockKind::kNone;
  }
  s.reader_waiters.clear();
}

void SimSharedLockShared(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return;
  const uint32_t obj = ObjectId(impl, mu);
  SwitchOut(lk, impl, self, TaskState::kReady);
  if (AbortEscape(impl)) return;
  SharedState& s = impl.shared[mu];
  while (s.writer != -1) {
    s.reader_waiters.push_back(self.id);
    self.block = BlockKind::kSharedReader;
    self.wait_object = obj;
    SwitchOut(lk, impl, self, TaskState::kBlocked);
    if (AbortEscape(impl)) return;
  }
  s.readers.push_back(self.id);
  Record(impl, EventKind::kReaderAcquire, obj, 0);
}

void SimSharedUnlockShared(void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  auto it = impl.shared.find(mu);
  if (impl.aborting) {
    if (it != impl.shared.end()) {
      auto& readers = it->second.readers;
      auto pos = std::find(readers.begin(), readers.end(), self.id);
      if (pos != readers.end()) readers.erase(pos);
    }
    return;
  }
  if (it == impl.shared.end()) {
    throw std::logic_error(
        "sim: shared unlock of a runtime::SharedMutex never locked");
  }
  SharedState& s = it->second;
  auto pos = std::find(s.readers.begin(), s.readers.end(), self.id);
  if (pos == s.readers.end()) {
    throw std::logic_error(
        "sim: shared unlock of a runtime::SharedMutex not read-held");
  }
  s.readers.erase(pos);
  Record(impl, EventKind::kReaderRelease, ObjectId(impl, mu), 0);
  if (s.readers.empty()) {
    for (int w : s.writer_waiters) {
      Task& t = *impl.tasks[static_cast<size_t>(w)];
      t.state = TaskState::kReady;
      t.block = BlockKind::kNone;
    }
    s.writer_waiters.clear();
  }
}

void SimCondVarWait(void* cv, void* mu) {
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return;
  const uint32_t obj = ObjectId(impl, cv);
  auto mit = impl.mutexes.find(mu);
  if (mit == impl.mutexes.end() || mit->second.owner != self.id) {
    throw std::logic_error("sim: CondVar::Wait without holding the mutex");
  }
  // Atomically: release the mutex, park on the condvar.
  mit->second.owner = -1;
  Record(impl, EventKind::kMutexRelease, ObjectId(impl, mu), 0);
  for (int w : mit->second.waiters) {
    Task& t = *impl.tasks[static_cast<size_t>(w)];
    t.state = TaskState::kReady;
    t.block = BlockKind::kNone;
  }
  mit->second.waiters.clear();
  impl.condvars[cv].waiters.push_back(CvWaiter{self.id, mu});
  self.block = BlockKind::kCondVar;
  self.wait_object = obj;
  Record(impl, EventKind::kCvWait, obj, 0);
  SwitchOut(lk, impl, self, TaskState::kBlocked);
  if (AbortEscape(impl)) return;
  // Notified: reacquire the mutex before returning.
  MutexState& m = impl.mutexes[mu];
  while (m.owner != -1) {
    m.waiters.push_back(self.id);
    self.block = BlockKind::kMutex;
    self.wait_object = ObjectId(impl, mu);
    SwitchOut(lk, impl, self, TaskState::kBlocked);
    if (AbortEscape(impl)) return;
  }
  m.owner = self.id;
  Record(impl, EventKind::kMutexAcquire, ObjectId(impl, mu), 0);
}

void SimCondVarNotifyOne(void* cv) {
  Impl& impl = CurrentImpl();
  Lock lk(impl.mu);
  if (impl.aborting) return;
  const uint32_t obj = ObjectId(impl, cv);
  auto it = impl.condvars.find(cv);
  if (it == impl.condvars.end() || it->second.waiters.empty()) {
    Record(impl, EventKind::kCvNotifyOne, obj, 0);
    return;
  }
  // Which waiter wakes is a scheduling decision: draw it.
  auto& waiters = it->second.waiters;
  const size_t idx = static_cast<size_t>(
      NextRand(impl) % static_cast<uint64_t>(waiters.size()));
  const CvWaiter woken = waiters[idx];
  waiters.erase(waiters.begin() + static_cast<std::ptrdiff_t>(idx));
  Task& t = *impl.tasks[static_cast<size_t>(woken.task)];
  t.state = TaskState::kReady;
  t.block = BlockKind::kNone;
  Record(impl, EventKind::kCvNotifyOne, obj,
         static_cast<uint64_t>(woken.task) + 1);
}

void SimCondVarNotifyAll(void* cv) {
  Impl& impl = CurrentImpl();
  Lock lk(impl.mu);
  if (impl.aborting) return;
  const uint32_t obj = ObjectId(impl, cv);
  auto it = impl.condvars.find(cv);
  uint64_t woken = 0;
  if (it != impl.condvars.end()) {
    for (const CvWaiter& w : it->second.waiters) {
      Task& t = *impl.tasks[static_cast<size_t>(w.task)];
      t.state = TaskState::kReady;
      t.block = BlockKind::kNone;
      ++woken;
    }
    it->second.waiters.clear();
  }
  Record(impl, EventKind::kCvNotifyAll, obj, woken);
}

void Yield() {
  if (!SimActive()) return;
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return;
  Record(impl, EventKind::kYield, 0, 0);
  SwitchOut(lk, impl, self, TaskState::kReady);
  if (AbortEscape(impl)) return;
}

void SleepFor(uint64_t ticks) {
  if (!SimActive()) {
    throw std::logic_error("sim: SleepFor outside a simulation task");
  }
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  Lock lk(impl.mu);
  if (AbortEscape(impl)) return;
  self.wake_at = impl.clock + ticks;
  Record(impl, EventKind::kSleep, 0, ticks);
  SwitchOut(lk, impl, self, TaskState::kSleeping);
  if (AbortEscape(impl)) return;
}

uint64_t Now() {
  if (!SimActive()) return 0;
  Impl& impl = CurrentImpl();
  Lock lk(impl.mu);
  return impl.clock;
}

uint64_t Choice(uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("sim: Choice bound must be > 0");
  if (!SimActive()) {
    throw std::logic_error("sim: Choice outside a simulation task");
  }
  Impl& impl = CurrentImpl();
  Lock lk(impl.mu);
  const uint64_t value = NextRand(impl) % bound;
  Record(impl, EventKind::kChoice, 0, value);
  return value;
}

bool Chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  // 53-bit draw → uniform double in [0, 1).
  const uint64_t draw = Choice(1ull << 53);
  return static_cast<double>(draw) <
         probability * static_cast<double>(1ull << 53);
}

std::thread StartThread(std::function<void()> body) {
  if (!SimActive()) return std::thread(std::move(body));
  Scheduler* scheduler = tls_scheduler;
  Impl& impl = CurrentImpl();
  Lock lk(impl.mu);
  auto task = std::unique_ptr<Task>(new Task());
  Task* t = task.get();
  t->id = static_cast<int>(impl.tasks.size());
  t->name = "adopted-" + std::to_string(t->id);
  t->body = std::move(body);
  impl.tasks.push_back(std::move(task));
  Record(impl, EventKind::kThreadAdopted, 0, static_cast<uint64_t>(t->id));
  // The OS thread parks as a kReady task until the scheduler picks it;
  // the creating task keeps the token and continues.
  std::thread os_thread(
      [scheduler, &impl, t] { RunTaskBody(scheduler, impl, t); });
  impl.adopted.emplace(os_thread.get_id(), t->id);
  return os_thread;
}

void JoinThread(std::thread& thread) {
  if (!SimActive()) {
    thread.join();
    return;
  }
  Impl& impl = CurrentImpl();
  Task& self = CurrentTask();
  {
    Lock lk(impl.mu);
    auto it = impl.adopted.find(thread.get_id());
    if (it == impl.adopted.end()) {
      // Not one of ours (created before the sim started): a real join
      // would wedge the scheduler only if that thread needed scheduling,
      // which a pre-sim thread by construction does not.
      lk.unlock();
      thread.join();
      return;
    }
    const int target_id = it->second;
    while (impl.tasks[static_cast<size_t>(target_id)]->state !=
           TaskState::kDone) {
      self.block = BlockKind::kJoin;
      self.join_target = target_id;
      SwitchOut(lk, impl, self, TaskState::kBlocked);
      self.join_target = -1;
      if (impl.aborting &&
          impl.tasks[static_cast<size_t>(target_id)]->state ==
              TaskState::kDone) {
        break;
      }
    }
  }
  // The adopted task has finished; its OS thread exits imminently.
  thread.join();
}

}  // namespace sim
}  // namespace runtime
}  // namespace ccd
