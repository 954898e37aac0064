#ifndef CCD_RUNTIME_SIM_H_
#define CCD_RUNTIME_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/sim_hooks.h"

/// Deterministic simulation scheduler — the in-process Maelstrom/Elle
/// analogue for the serving layer.
///
/// A Scheduler runs N cooperative tasks (real OS threads, exactly one
/// runnable at any instant) and makes every scheduling decision from a
/// seeded splitmix64 stream. The schedule points are the operations on
/// the capability-annotated wrappers in runtime/sync.h: each Lock /
/// TryLock / CondVar::Wait yields to the scheduler before it can
/// complete, so Router, ShardedMonitor and ThreadPool explore a
/// different lock-interleaving per seed while running *unmodified* — the
/// shim (runtime/sim_hooks.h) keeps the exact annotated API, so the
/// -Wthread-safety and determinism-lint gates see the same code the
/// production build runs.
///
/// Determinism contract: for a fixed (seed, task program) the schedule
/// is bit-identical across runs, processes and platforms. No wall clock,
/// no std::hash, no address-dependent decisions — sync objects get dense
/// ids in first-touch order (itself schedule-determined), tasks get ids
/// in spawn order, and the schedule digest hashes only those ids. Two runs
/// with the same seed produce the same digest() or something is broken.
///
/// Atomicity model: a task runs uninterrupted from one schedule point to
/// the next (the standard shared-access reduction — all cross-task state
/// in src/ is lock-guarded, so scheduling only at lock operations reaches
/// the same set of observable interleavings as preempting anywhere).
/// Consequence the test harness relies on: everything a task does after
/// its last lock *acquisition* — including releasing locks, returning,
/// and recording the result into a history — happens atomically, so a
/// recorded history is a true linearization of the run. std::atomic
/// operations are not schedule points.
///
/// Virtual clock: advances one tick per scheduling decision, and jumps
/// forward when every live task is sleeping (SleepFor). There is no
/// relation to wall time; ticks exist so tests can model label delay and
/// stretched fault windows deterministically.
///
/// Threads: tasks declared with Spawn() before Run(). A task that
/// *creates* threads (ThreadPool, RunThreads) has them adopted as new
/// tasks automatically via the StartThread/JoinThread seam in
/// runtime/thread_pool.cc. Real sockets and fork() are not virtualized —
/// the io fault schedules drive those at the byte level instead (see
/// tests/sim_crash_test.cc).
///
/// Failure modes are first-class: if no task can run (lock cycle, lost
/// notify) the scheduler diagnoses the deadlock, aborts the remaining
/// tasks, and Run() throws SimDeadlockError naming who waits on what.
/// A task body that throws wins over the secondary deadlock its death
/// may cause: Run() rethrows the original exception.

namespace ccd {
namespace runtime {
namespace sim {

struct SchedulerImpl;  // defined in sim.cc

/// Thrown by Run() when no task is runnable and none is sleeping.
class SimDeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown *into* parked tasks while the scheduler tears a failed run
/// down; task runners swallow it. User code should not catch it.
class SimAborted : public std::exception {
 public:
  const char* what() const noexcept override { return "sim task aborted"; }
};

class Scheduler {
 public:
  explicit Scheduler(uint64_t seed);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Declares a task. Only valid before Run().
  void Spawn(std::string name, std::function<void()> body);

  /// Runs every task to completion under the seeded schedule. Throws the
  /// first task-body exception (by task id) if any; SimDeadlockError if
  /// the tasks wedge. Single-shot: a Scheduler runs once.
  void Run();

  /// Rolling hash over every schedule event. Equal seeds (and equal task
  /// programs) must produce equal digests — the bit-identical-schedule
  /// acceptance check.
  uint64_t digest() const;

  /// Number of scheduling decisions taken.
  uint64_t steps() const;

  /// Virtual clock after the run.
  uint64_t now() const;

 private:
  friend struct SimAccess;
  std::unique_ptr<SchedulerImpl> impl_;
};

/// --- In-task API (callable only from a task of a running Scheduler,
/// except where noted). ---

/// Pure schedule point: lets any other runnable task be chosen. No-op
/// outside a sim so shared fixtures can call it unconditionally.
void Yield();

/// Virtual-clock sleep: the task is not runnable for `ticks` decisions
/// (or until every other task sleeps and the clock jumps). Models label
/// delay / paused windows. Must be called from a sim task.
void SleepFor(uint64_t ticks);

/// Current virtual clock; 0 outside a sim.
uint64_t Now();

/// Deterministic draw from the scheduler's seeded stream: uniform in
/// [0, bound). bound must be > 0. Must be called from a sim task.
uint64_t Choice(uint64_t bound);

/// Deterministic biased coin. probability <= 0 returns false *without
/// drawing* (so a zero fault plane works outside a sim too);
/// probability >= 1 returns true without drawing.
bool Chance(double probability);

/// Thread seam used by runtime/thread_pool.cc: on a sim task, the new
/// thread is adopted as a schedulable task of the same Scheduler; outside
/// a sim this is exactly std::thread(body). JoinThread cooperatively
/// blocks the calling task until the adopted task finishes (plain join
/// for non-sim threads).
std::thread StartThread(std::function<void()> body);
void JoinThread(std::thread& thread);

}  // namespace sim
}  // namespace runtime
}  // namespace ccd

#endif  // CCD_RUNTIME_SIM_H_
