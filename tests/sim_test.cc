// Deterministic simulation harness (runtime/sim.h + tests/sim_harness.h):
//
//  (a) scheduler primitives — mutual exclusion, condvars, TryLock,
//      ThreadPool/RunThreads adoption, the virtual clock, deadlock
//      diagnosis and task-exception propagation all behave under the
//      seeded cooperative scheduler;
//  (b) determinism — the same seed yields a bit-identical schedule
//      digest and checker verdict, different seeds explore genuinely
//      different interleavings, and one pinned digest guards the
//      schedule encoding itself against silent drift;
//  (c) the target scenarios — reshard-during-predict,
//      drain-with-labels-in-flight, SHIP/LOAD under traffic, a
//      dropped/duplicated-label plane over a small pending buffer,
//      concurrent feeders during reshard, batch pushes mixed with
//      single ones under reshard, STATS reads beside live feeds, and
//      api::Suite's shared row tape read by pool workers — each swept over
//      seeds and validated by the history checker's sequential-spec
//      oracle (STATS by the final drift log, the tape by the frozen
//      generator golden and per-cell Experiment runs);
//  (d) injected-bug self-tests — histories broken in known ways
//      (dropped applied-label record, mis-sharded feed, tampered
//      outcome, spurious crash marker) make the checker fire, proving
//      the oracle can actually fail.
//
// Sweep width: 5 seeds per scenario by default (tier-1); set
// CCD_SIM_SEEDS=1000 for the full sweep (the dedicated CI leg). Failing
// seeds print one `CCD_SIM_FAIL scenario=<name> seed=<n>` line each so
// CI can archive them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "io/monitor_service.h"
#include "runtime/sim.h"
#include "runtime/sync.h"
#include "runtime/thread_pool.h"
#include "sim_harness.h"
#include "testing_util.h"

namespace ccd {
namespace {

namespace sim = runtime::sim;
using runtime::CondVar;
using runtime::Mutex;
using runtime::MutexLock;
using test_util::DelayedPush;
using test_util::FaultPlane;
using test_util::FeedRetry;
using test_util::HistoryChecker;
using test_util::KeyedInstance;
using test_util::KeysForSlot;
using test_util::MakeDelaySchedule;
using test_util::MakeKeyedSchedule;
using test_util::MakeServing;
using test_util::PredictRetry;
using test_util::RecordingMonitor;
using test_util::RetryWhileShipped;
using test_util::RunDelayedProducer;
using test_util::SimCheckResult;
using test_util::SimHistory;
using test_util::SimOp;
using test_util::SimOpKind;
using test_util::SimServingConfig;

// ------------------------------------------------ scheduler primitives

TEST(SimSchedulerTest, MutualExclusionHoldsAcrossYields) {
  sim::Scheduler sched(1);
  Mutex mu;
  int counter = 0;
  bool inside = false;  // Plain bools: sim-atomic between schedule points.
  for (int t = 0; t < 4; ++t) {
    sched.Spawn("worker-" + std::to_string(t), [&] {
      for (int i = 0; i < 25; ++i) {
        MutexLock lock(&mu);
        EXPECT_FALSE(inside);  // Nobody else inside the critical section.
        inside = true;
        ++counter;
        sim::Yield();  // Invite a context switch mid-critical-section.
        inside = false;
      }
    });
  }
  sched.Run();
  EXPECT_EQ(counter, 100);
  EXPECT_GT(sched.steps(), 100u);
}

TEST(SimSchedulerTest, CondVarProducerConsumer) {
  sim::Scheduler sched(2);
  Mutex mu;
  CondVar cv;
  std::vector<int> queue;
  bool done = false;
  int consumed = 0;
  sched.Spawn("producer", [&] {
    for (int i = 0; i < 50; ++i) {
      {
        MutexLock lock(&mu);
        queue.push_back(i);
      }
      cv.NotifyOne();
    }
    {
      MutexLock lock(&mu);
      done = true;
    }
    cv.NotifyAll();
  });
  sched.Spawn("consumer", [&] {
    for (;;) {
      MutexLock lock(&mu);
      while (queue.empty() && !done) cv.Wait(mu);
      if (queue.empty()) return;
      queue.erase(queue.begin());
      ++consumed;
    }
  });
  sched.Run();
  EXPECT_EQ(consumed, 50);
}

TEST(SimSchedulerTest, TryLockObservesContention) {
  sim::Scheduler sched(3);
  Mutex mu;
  bool holder_has_it = false;
  bool saw_contended_failure = false;
  bool saw_uncontended_success = false;
  sched.Spawn("holder", [&] {
    mu.Lock();
    holder_has_it = true;
    for (int i = 0; i < 10; ++i) sim::Yield();
    holder_has_it = false;
    mu.Unlock();
  });
  sched.Spawn("prober", [&] {
    for (int i = 0; i < 40; ++i) {
      if (mu.TryLock()) {
        EXPECT_FALSE(holder_has_it);
        saw_uncontended_success = true;
        mu.Unlock();
      } else {
        EXPECT_TRUE(holder_has_it);
        saw_contended_failure = true;
      }
      sim::Yield();
    }
  });
  sched.Run();
  EXPECT_TRUE(saw_contended_failure);
  EXPECT_TRUE(saw_uncontended_success);
}

TEST(SimSchedulerTest, ThreadPoolWorkersAreAdopted) {
  sim::Scheduler sched(4);
  int ran = 0;
  Mutex mu;
  sched.Spawn("driver", [&] {
    runtime::ThreadPool pool(3);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] {
        MutexLock lock(&mu);
        ++ran;
      });
    }
    pool.Wait();
  });
  sched.Run();
  EXPECT_EQ(ran, 20);
}

// A joined OS thread's id is reused by the next one, so a second pool in
// the same task (api::Suite runs one per Run()) must join its own workers,
// not the finished tasks of the first pool's.
TEST(SimSchedulerTest, PoolsCreatedInTurnJoinTheirOwnWorkers) {
  int ran = 0;
  sim::Scheduler sched(3);
  sched.Spawn("main", [&ran] {
    for (int pass = 0; pass < 3; ++pass) {
      runtime::ThreadPool pool(3);
      Mutex mu;
      for (int i = 0; i < 4; ++i) {
        pool.Submit([&mu, &ran] {
          MutexLock lock(&mu);
          ++ran;
        });
      }
      pool.Wait();
    }
  });
  sched.Run();
  EXPECT_EQ(ran, 12);
}

TEST(SimSchedulerTest, RunThreadsBarrierWorksUnderSim) {
  sim::Scheduler sched(5);
  std::vector<int> order;
  Mutex mu;
  sched.Spawn("driver", [&] {
    runtime::RunThreads(4, [&](int t) {
      MutexLock lock(&mu);
      order.push_back(t);
    });
  });
  sched.Run();
  EXPECT_EQ(order.size(), 4u);
}

TEST(SimSchedulerTest, VirtualClockAdvancesAndSleepersWake) {
  sim::Scheduler sched(6);
  uint64_t woke_short = 0;
  uint64_t woke_long = 0;
  sched.Spawn("short-sleeper", [&] {
    sim::SleepFor(10);
    woke_short = sim::Now();
  });
  sched.Spawn("long-sleeper", [&] {
    sim::SleepFor(500);
    woke_long = sim::Now();
  });
  sched.Run();
  EXPECT_GE(woke_short, 10u);
  EXPECT_GE(woke_long, 500u);
  EXPECT_LT(woke_short, woke_long);  // Virtual time orders the wakeups.
  EXPECT_GE(sched.now(), 500u);      // The clock jumped, no wall time spent.
}

TEST(SimSchedulerTest, DeadlockIsDiagnosedByName) {
  sim::Scheduler sched(7);
  Mutex first;
  Mutex second;
  bool holds_first = false;
  bool holds_second = false;
  // Flag-coordinated lock inversion: both tasks take their first lock
  // before either tries the other's, whatever the seed.
  sched.Spawn("alpha", [&] {
    MutexLock lock(&first);
    holds_first = true;
    while (!holds_second) sim::Yield();
    MutexLock inner(&second);
  });
  sched.Spawn("beta", [&] {
    MutexLock lock(&second);
    holds_second = true;
    while (!holds_first) sim::Yield();
    MutexLock inner(&first);
  });
  try {
    sched.Run();
    FAIL() << "deadlock not detected";
  } catch (const sim::SimDeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
}

TEST(SimSchedulerTest, TaskExceptionWinsOverSecondaryDeadlock) {
  sim::Scheduler sched(8);
  Mutex mu;
  CondVar cv;
  bool never = false;
  // The waiter would deadlock once the thrower dies — the original
  // exception must still be what Run() reports.
  sched.Spawn("waiter", [&] {
    MutexLock lock(&mu);
    while (!never) cv.Wait(mu);
  });
  sched.Spawn("thrower", [&] {
    sim::Yield();
    throw std::runtime_error("injected task failure");
  });
  try {
    sched.Run();
    FAIL() << "exception not propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected task failure");
  }
}

TEST(SimSchedulerTest, LockMisuseIsAnError) {
  {
    sim::Scheduler sched(9);
    Mutex mu;
    sched.Spawn("recursive", [&] {
      MutexLock outer(&mu);
      mu.Lock();  // Self-deadlock: the sim reports it instead of hanging.
    });
    EXPECT_THROW(sched.Run(), std::logic_error);
  }
  {
    sim::Scheduler sched(10);
    Mutex mu;
    sched.Spawn("unlocker", [&] { mu.Unlock(); });
    EXPECT_THROW(sched.Run(), std::logic_error);
  }
}

TEST(SimSchedulerTest, ChoiceAndChanceAreSeedDeterministic) {
  auto draw = [](uint64_t seed) {
    std::vector<uint64_t> values;
    sim::Scheduler sched(seed);
    sched.Spawn("drawer", [&] {
      for (int i = 0; i < 16; ++i) values.push_back(sim::Choice(1000));
    });
    sched.Run();
    return values;
  };
  EXPECT_EQ(draw(11), draw(11));
  EXPECT_NE(draw(11), draw(12));
  // Chance outside a simulation: the degenerate planes never draw.
  EXPECT_FALSE(sim::Chance(0.0));
  EXPECT_TRUE(sim::Chance(1.0));
}

// ---------------------------------------------------------- determinism

/// A small contended program whose schedule varies with the seed: two
/// tasks tag a shared log around yields.
std::vector<int> InterleavingOf(uint64_t seed, uint64_t* digest) {
  sim::Scheduler sched(seed);
  Mutex mu;
  std::vector<int> log;
  for (int t = 0; t < 2; ++t) {
    sched.Spawn("tagger-" + std::to_string(t), [&, t] {
      for (int i = 0; i < 8; ++i) {
        {
          MutexLock lock(&mu);
          log.push_back(t);
        }
        sim::Yield();
      }
    });
  }
  sched.Run();
  if (digest != nullptr) *digest = sched.digest();
  return log;
}

TEST(SimDeterminismTest, SameSeedSameScheduleDifferentSeedsExplore) {
  uint64_t digest_a = 0;
  uint64_t digest_b = 0;
  EXPECT_EQ(InterleavingOf(42, &digest_a), InterleavingOf(42, &digest_b));
  EXPECT_EQ(digest_a, digest_b);

  std::set<std::vector<int>> interleavings;
  std::set<uint64_t> digests;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    uint64_t digest = 0;
    interleavings.insert(InterleavingOf(seed, &digest));
    digests.insert(digest);
  }
  // 30 seeds must explore more than one interleaving, and schedules that
  // differ must hash differently.
  EXPECT_GT(interleavings.size(), 1u);
  EXPECT_GE(digests.size(), interleavings.size());
}

TEST(SimDeterminismTest, PinnedDigestGuardsScheduleEncoding) {
  // Change-detector for the schedule encoding itself: if the event
  // stream, the RNG, or the digest chaining changes, this value moves —
  // bump it knowingly, because recorded failing seeds lose their meaning
  // across such a change.
  uint64_t digest = 0;
  InterleavingOf(1234, &digest);
  EXPECT_EQ(digest, 14041876966732498738ull);
}

// ------------------------------------------------------- the scenarios

struct ScenarioOutcome {
  uint64_t digest = 0;
  SimCheckResult check;
};

/// Reshard during predict: producers push keyed traffic (ticket-shard
/// labelling, so reshard-proof) while a controller grows the table and
/// then drains a random shard.
ScenarioOutcome RunReshardScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 3;
  auto monitor = MakeServing(config);
  SimHistory history;
  RecordingMonitor recording(&monitor, &history);

  std::vector<std::vector<DelayedPush>> schedules;
  for (int t = 0; t < 3; ++t) {
    schedules.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 80,
                                          /*seed=*/7 + static_cast<uint64_t>(t),
                                          /*max_delay=*/0));
  }

  sim::Scheduler sched(seed);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("producer-" + std::to_string(t),
                [&recording, &schedules, t] {
                  RunDelayedProducer(recording, schedules[static_cast<size_t>(t)],
                                     /*depth=*/3);
                });
  }
  sched.Spawn("controller", [&recording] {
    sim::SleepFor(40);
    recording.AddShard();
    sim::SleepFor(40);
    recording.DrainShard(static_cast<int>(sim::Choice(4)));
  });
  sched.Run();

  HistoryChecker checker(config);
  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  outcome.check = checker.Check(history, monitor);
  return outcome;
}

/// Drain with labels in flight: verification latency keeps a deep
/// in-flight queue while the controller drains every shard in turn —
/// pending-label buffers must migrate intact.
ScenarioOutcome RunDrainScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 3;
  auto monitor = MakeServing(config);
  SimHistory history;
  RecordingMonitor recording(&monitor, &history);

  std::vector<std::vector<DelayedPush>> schedules;
  for (int t = 0; t < 3; ++t) {
    schedules.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 70,
                                          /*seed=*/21 + static_cast<uint64_t>(t),
                                          /*max_delay=*/4));
  }

  sim::Scheduler sched(seed);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("producer-" + std::to_string(t),
                [&recording, &schedules, t] {
                  RunDelayedProducer(recording, schedules[static_cast<size_t>(t)],
                                     /*depth=*/5);
                });
  }
  sched.Spawn("drainer", [&recording] {
    for (int s = 0; s < 3; ++s) {
      sim::SleepFor(25);
      recording.DrainShard(s);
    }
  });
  sched.Run();

  HistoryChecker checker(config);
  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  outcome.check = checker.Check(history, monitor);
  return outcome;
}

/// SHIP/LOAD under traffic: the controller round-trips shard state
/// through the migration payload with a stretched pause window, so
/// producers provably run into the shipped shard and retry.
ScenarioOutcome RunShipLoadScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 3;
  auto monitor = MakeServing(config);
  SimHistory history;
  RecordingMonitor recording(&monitor, &history);

  std::vector<std::vector<DelayedPush>> schedules;
  for (int t = 0; t < 3; ++t) {
    schedules.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 70,
                                          /*seed=*/33 + static_cast<uint64_t>(t),
                                          /*max_delay=*/0));
  }

  sim::Scheduler sched(seed);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("producer-" + std::to_string(t),
                [&recording, &schedules, t] {
                  RunDelayedProducer(recording, schedules[static_cast<size_t>(t)],
                                     /*depth=*/3);
                });
  }
  sched.Spawn("migrator", [&recording] {
    for (int round = 0; round < 3; ++round) {
      sim::SleepFor(30);
      recording.ShipRestore(static_cast<int>(sim::Choice(3)),
                            /*hold_ticks=*/15);
    }
  });
  sched.Run();

  HistoryChecker checker(config);
  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  outcome.check = checker.Check(history, monitor);
  return outcome;
}

/// Label-plane faults over a small pending buffer: labels are dropped and
/// duplicated from the seed stream while the in-flight depth exceeds the
/// pending capacity, so eviction, exactly-once application and
/// unmatched-label accounting all get exercised — and must match the
/// sequential spec fed the same fault pattern.
ScenarioOutcome RunFaultPlaneScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 3;
  config.pending_capacity = 8;
  auto monitor = MakeServing(config);
  SimHistory history;
  FaultPlane faults;
  faults.drop_label = 0.2;
  faults.dup_label = 0.2;
  RecordingMonitor recording(&monitor, &history, faults);

  std::vector<std::vector<DelayedPush>> schedules;
  for (int t = 0; t < 3; ++t) {
    schedules.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 70,
                                          /*seed=*/55 + static_cast<uint64_t>(t),
                                          /*max_delay=*/0));
  }

  sim::Scheduler sched(seed);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("producer-" + std::to_string(t),
                [&recording, &schedules, t] {
                  // Depth 10 > capacity 8: the oldest tickets evict, so
                  // some labels legitimately return false.
                  RunDelayedProducer(recording, schedules[static_cast<size_t>(t)],
                                     /*depth=*/10);
                });
  }
  sched.Run();

  HistoryChecker checker(config);
  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  outcome.check = checker.Check(history, monitor);
  return outcome;
}

/// Feeds during reshard: concurrent locked feeders run against delayed
/// predict/label producers while the controller grows the table and
/// drains a shard — feeds that contend on one shard's lock must apply in
/// the order the history records, across the grown table and the drained
/// engine's successor.
ScenarioOutcome RunFeedsDuringReshardScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 3;
  auto monitor = MakeServing(config);
  SimHistory history;
  RecordingMonitor recording(&monitor, &history);

  std::vector<std::vector<KeyedInstance>> feeds;
  std::vector<std::vector<DelayedPush>> predicts;
  for (int t = 0; t < 3; ++t) {
    feeds.push_back(MakeKeyedSchedule(KeysForSlot(t, 3, 6), 70,
                                      /*seed=*/61 + static_cast<uint64_t>(t)));
    predicts.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 40,
                                         /*seed=*/67 + static_cast<uint64_t>(t),
                                         /*max_delay=*/2));
  }

  sim::Scheduler sched(seed);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("feeder-" + std::to_string(t), [&recording, &feeds, t] {
      size_t n = 0;
      for (const KeyedInstance& push : feeds[static_cast<size_t>(t)]) {
        FeedRetry(recording, push.key, push.instance);
        if (++n % 8 == 0) sim::SleepFor(1 + sim::Choice(3));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    sched.Spawn("producer-" + std::to_string(t),
                [&recording, &predicts, t] {
                  RunDelayedProducer(recording, predicts[static_cast<size_t>(t)],
                                     /*depth=*/3);
                });
  }
  sched.Spawn("controller", [&recording] {
    sim::SleepFor(30);
    recording.AddShard();
    sim::SleepFor(40);
    recording.DrainShard(static_cast<int>(sim::Choice(4)));
  });
  sched.Run();

  HistoryChecker checker(config);
  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  outcome.check = checker.Check(history, monitor);
  return outcome;
}

/// Batch and single pushes under reshard, drain, SHIP/LOAD and dropped
/// labels. One producer drives every push — FeedBatch, PredictBatch and
/// LabelBatch interleaved with per-instance Predict, Feed and Label —
/// because RecordingMonitor's batch records are only sound without a
/// concurrent pusher (see its FeedBatch comment). The controller's ops
/// take the table exclusively, so they land between whole pushes; a push
/// that meets the shipped shard throws, applied nothing, and is retried.
ScenarioOutcome RunBatchMixScenario(uint64_t seed) {
  using Monitor = api::ShardedMonitor;
  SimServingConfig config;
  config.shards = 3;
  config.pending_capacity = 16;
  auto monitor = MakeServing(config);
  SimHistory history;
  FaultPlane faults;
  faults.drop_label = 0.15;
  RecordingMonitor recording(&monitor, &history, faults);

  const std::vector<KeyedInstance> schedule = MakeKeyedSchedule(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 240, /*seed=*/91);

  sim::Scheduler sched(seed);
  sched.Spawn("producer", [&recording, &schedule] {
    std::deque<std::pair<Monitor::Prediction, int>> in_flight;
    // Labels the `count` oldest tickets, as one batch or one by one.
    auto label_oldest = [&](size_t count) {
      std::vector<Monitor::ShardLabel> labels;
      for (; count > 0; --count) {
        const auto& [ticket, label] = in_flight.front();
        labels.push_back({ticket.shard, ticket.id, label});
        in_flight.pop_front();
      }
      if (sim::Choice(2) == 0) {
        recording.LabelBatch(labels);
      } else {
        for (const Monitor::ShardLabel& l : labels) {
          recording.Label(l.shard, l.id, l.label);
        }
      }
    };
    std::vector<Monitor::Prediction> tickets;
    for (size_t begin = 0; begin < schedule.size();) {
      const size_t end =
          std::min(begin + 1 + sim::Choice(6), schedule.size());
      std::vector<Monitor::KeyedInstance> chunk;
      for (size_t i = begin; i < end; ++i) {
        chunk.push_back({schedule[i].key, schedule[i].instance});
      }
      switch (sim::Choice(4)) {
        case 0:
          RetryWhileShipped([&] { recording.FeedBatch(chunk); });
          break;
        case 1:
          RetryWhileShipped([&] { recording.PredictBatch(chunk, &tickets); });
          for (size_t j = 0; j < chunk.size(); ++j) {
            in_flight.emplace_back(tickets[j], chunk[j].instance.label);
          }
          break;
        case 2:
          for (const Monitor::KeyedInstance& e : chunk) {
            in_flight.emplace_back(
                PredictRetry(recording, e.key, e.instance.features,
                             e.instance.weight),
                e.instance.label);
          }
          break;
        default:
          for (const Monitor::KeyedInstance& e : chunk) {
            FeedRetry(recording, e.key, e.instance);
          }
          break;
      }
      if (in_flight.size() > 6) label_oldest(in_flight.size() - 6);
      sim::SleepFor(sim::Choice(3));
      begin = end;
    }
    label_oldest(in_flight.size());
  });
  sched.Spawn("controller", [&recording] {
    sim::SleepFor(20);
    recording.AddShard();
    sim::SleepFor(20);
    recording.ShipRestore(static_cast<int>(sim::Choice(4)),
                          /*hold_ticks=*/12);
    sim::SleepFor(20);
    recording.DrainShard(static_cast<int>(sim::Choice(4)));
  });
  sched.Run();

  HistoryChecker checker(config);
  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  outcome.check = checker.Check(history, monitor);
  return outcome;
}

/// The value of `field=` in a STATS reply; fails the check when absent.
uint64_t StatsField(const std::string& reply, const std::string& field,
                    SimCheckResult* check) {
  const size_t at = reply.find(" " + field + "=");
  if (at == std::string::npos) {
    check->ok = false;
    check->error = "STATS reply without " + field + ": " + reply;
    return 0;
  }
  return std::stoull(reply.substr(at + field.size() + 2));
}

/// STATS under live feeds: one shard on a drifting stream, a Feed producer
/// and an operator reading STATS through io::MonitorService. Every reply
/// must come from one cut of the shard: its `drifts` is exactly the number
/// of alarms in the final drift log raised before its `position`.
ScenarioOutcome RunStatsCutScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 1;
  auto monitor = MakeServing(config);
  io::MonitorService service(&monitor);
  const std::vector<KeyedInstance> feeds =
      MakeKeyedSchedule({0, 1, 2}, 1200, /*seed=*/101);

  std::vector<std::string> replies;
  sim::Scheduler sched(seed);
  sched.Spawn("feeder", [&monitor, &feeds] {
    size_t n = 0;
    for (const KeyedInstance& push : feeds) {
      monitor.Feed(push.key, push.instance);
      if (++n % 4 == 0) sim::SleepFor(sim::Choice(2));
    }
  });
  sched.Spawn("operator", [&service, &replies] {
    for (int i = 0; i < 300; ++i) {
      replies.push_back(service.Handle("STATS"));
      sim::SleepFor(sim::Choice(3));
    }
  });
  sched.Run();

  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  const std::vector<ShardAlarm> log = monitor.DriftLog();
  if (log.empty()) {
    outcome.check = {false, "the stream raised no drift alarm"};
    return outcome;
  }
  for (size_t i = 0; i < replies.size() && outcome.check.ok; ++i) {
    const uint64_t position =
        StatsField(replies[i], "position", &outcome.check);
    const uint64_t drifts = StatsField(replies[i], "drifts", &outcome.check);
    uint64_t before = 0;
    for (const ShardAlarm& a : log) before += a.alarm.position < position;
    if (outcome.check.ok && drifts != before) {
      outcome.check = {false, "STATS reply " + std::to_string(i) + " '" +
                                  replies[i] + "' counts " +
                                  std::to_string(drifts) + " drifts, " +
                                  std::to_string(before) +
                                  " alarms lie below its position"};
    }
  }
  return outcome;
}

/// The grid of the row-tape scenario: RBF5 (20 features) and Hyperplane10
/// (40 features), a DDM and a baseline cell each, naive-bayes, a short
/// protocol. kTapeGridCap fits RBF5's rows and not Hyperplane10's, so one
/// row replays a shared tape and the other falls back to per-cell
/// generation.
api::Suite TapeGrid() {
  PrequentialConfig cfg;
  cfg.max_instances = 600;
  cfg.metric_window = 200;
  cfg.eval_interval = 50;
  cfg.warmup = 100;
  cfg.timing = false;
  api::Suite suite;
  suite.Streams({"RBF5", "Hyperplane10"})
      .Detector("DDM")
      .NoDetector()
      .Classifier("naive-bayes")
      .Scale(0.001)
      .Seed(5)
      .Prequential(cfg)
      .Threads(3);
  return suite;
}
const size_t kTapeGridCap = 600 * api::detail::RowTape::RowBytes(20);

/// The frozen oracle of TapeGrid(): every cell through Experiment::Run()
/// on its own generator, computed once per process.
const api::SuiteResult& TapeGridOracle() {
  static const api::SuiteResult* oracle = [] {
    api::Suite suite = TapeGrid();
    suite.Runner(test_util::RunExperimentCell);
    return new api::SuiteResult(suite.Run());
  }();
  return *oracle;
}

/// Row tape under the scheduler: three readers on pool workers replay one
/// tape of a golden realization (the seed picks the stream and the chunk
/// size) whose cap is exactly its size. Each reader must hash the frozen
/// generator's rows, retained bytes must never exceed the cap, and the
/// last reader's release must free them. Then TapeGrid() runs on three
/// workers through api::detail::RunSuite and must equal its per-cell
/// oracle, the over-cap row included.
ScenarioOutcome RunRowTapeScenario(uint64_t seed) {
  static const std::vector<test_util::GoldenStream> streams =
      test_util::GoldenStreams();
  static const std::vector<std::string> golden =
      test_util::GoldenLines(test_util::GeneratorGoldenPath());
  const size_t which = static_cast<size_t>(seed % streams.size());
  const test_util::GoldenStream& g = streams[which];
  constexpr size_t kChunkChoices[] = {50, 128, 333, 1024};
  const size_t chunk_rows = kChunkChoices[(seed / streams.size()) % 4];
  const size_t cap = test_util::kGoldenStreamRows *
                     api::detail::RowTape::RowBytes(g.spec.num_features);
  const api::SuiteCell cell =
      test_util::GoldenStreamCell(g, test_util::kGoldenStreamRows);
  const api::SuiteResult& oracle = TapeGridOracle();

  constexpr int kReaders = 3;
  std::vector<std::string> lines(kReaders);
  std::vector<size_t> peak(kReaders, 0);
  size_t retained_after = 1;
  api::SuiteResult grid;
  sim::Scheduler sched(seed);
  sched.Spawn("grid", [&] {
    api::detail::RowTape tape(kReaders, cap, chunk_rows);
    {
      runtime::ThreadPool pool(kReaders);
      for (int r = 0; r < kReaders; ++r) {
        pool.Submit([&, r] {
          test_util::RowHash hash;
          if (tape.Open(cell)) {
            for (size_t c = 0; c < tape.chunks(); ++c) {
              for (const Instance& row : tape.Chunk(c)) hash.Add(row);
              peak[static_cast<size_t>(r)] = std::max(
                  peak[static_cast<size_t>(r)], tape.retained_bytes());
            }
            lines[static_cast<size_t>(r)] =
                test_util::GoldenStreamLine(g, hash);
          }
          tape.Release();
        });
      }
      pool.Wait();
    }
    retained_after = tape.retained_bytes();
    grid = api::detail::RunSuite(TapeGrid(), kTapeGridCap);
  });
  sched.Run();

  ScenarioOutcome outcome;
  outcome.digest = sched.digest();
  for (int r = 0; r < kReaders && outcome.check.ok; ++r) {
    const size_t i = static_cast<size_t>(r);
    if (lines[i] != golden[which]) {
      outcome.check = {false, "reader " + std::to_string(r) + " read '" +
                                  lines[i] + "', the golden is '" +
                                  golden[which] + "'"};
    } else if (peak[i] > cap) {
      outcome.check = {false, "reader " + std::to_string(r) + " saw " +
                                  std::to_string(peak[i]) +
                                  " retained bytes over a cap of " +
                                  std::to_string(cap)};
    }
  }
  if (outcome.check.ok && retained_after != 0) {
    outcome.check = {false, std::to_string(retained_after) +
                                " bytes retained after the last release"};
  }
  if (outcome.check.ok && grid.cells.size() != oracle.cells.size()) {
    outcome.check = {false, "grid has " + std::to_string(grid.cells.size()) +
                                " cells"};
  }
  for (size_t i = 0; i < grid.cells.size() && outcome.check.ok; ++i) {
    const std::string diff = test_util::DescribeResultDiff(
        grid.cells[i].result, oracle.cells[i].result);
    if (!diff.empty()) {
      outcome.check = {false, "grid cell " + std::to_string(i) + " (" +
                                  grid.cells[i].cell.stream_label + "/" +
                                  grid.cells[i].cell.detector_label +
                                  ") differs from Experiment::Run in " + diff};
    }
  }
  return outcome;
}

// ------------------------------------------------------------- sweeps

/// Seeds per scenario: 5 in tier-1, CCD_SIM_SEEDS (e.g. 1000) in the
/// dedicated CI leg.
int SweepSeeds() {
  const char* env = std::getenv("CCD_SIM_SEEDS");
  if (env == nullptr) return 5;
  const int n = std::atoi(env);
  return n < 1 ? 1 : n;
}

using ScenarioFn = ScenarioOutcome (*)(uint64_t);

void Sweep(const char* name, ScenarioFn scenario) {
  const int seeds = SweepSeeds();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(s);
    const ScenarioOutcome outcome = scenario(seed);
    if (!outcome.check.ok) {
      // One grep-able line per failing seed; the CI sim leg archives them.
      std::cerr << "CCD_SIM_FAIL scenario=" << name << " seed=" << seed
                << " error=" << outcome.check.error << std::endl;
      ADD_FAILURE() << "scenario " << name << " seed " << seed << ": "
                    << outcome.check.error;
    }
  }
}

TEST(SimSweepTest, ReshardDuringPredict) { Sweep("reshard", RunReshardScenario); }

TEST(SimSweepTest, DrainWithLabelsInFlight) { Sweep("drain", RunDrainScenario); }

TEST(SimSweepTest, ShipLoadUnderTraffic) {
  Sweep("ship_load", RunShipLoadScenario);
}

TEST(SimSweepTest, DroppedAndDuplicatedLabels) {
  Sweep("fault_plane", RunFaultPlaneScenario);
}

TEST(SimSweepTest, FeedsDuringReshard) {
  Sweep("feeds_reshard", RunFeedsDuringReshardScenario);
}

TEST(SimSweepTest, BatchAndSinglePushesUnderReshard) {
  Sweep("batch_mix", RunBatchMixScenario);
}

TEST(SimSweepTest, StatsReadsOneCutPerShard) {
  Sweep("stats_cut", RunStatsCutScenario);
}

TEST(SimSweepTest, RowTapeReadersUnderTheScheduler) {
  Sweep("row_tape", RunRowTapeScenario);
}

// Acceptance: same seed → bit-identical schedule digest *and* checker
// verdict, through the full stack (monitor, faults, checker).
TEST(SimDeterminismTest, ScenarioRunsAreBitIdentical) {
  const ScenarioOutcome a = RunFaultPlaneScenario(77);
  const ScenarioOutcome b = RunFaultPlaneScenario(77);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.check.ok, b.check.ok);
  EXPECT_EQ(a.check.error, b.check.error);
}

// ----------------------------------------- injected-bug self-tests

/// Records a clean single-threaded run the self-tests then break. The
/// wrapper works outside a simulation (zero fault plane never draws).
void RecordCleanRun(api::ShardedMonitor& monitor, SimHistory& history) {
  RecordingMonitor recording(&monitor, &history);
  const auto schedule = MakeKeyedSchedule(KeysForSlot(0, 2, 4), 60, /*seed=*/3);
  std::vector<std::pair<api::ShardedMonitor::Prediction, int>> in_flight;
  for (const auto& push : schedule) {
    in_flight.emplace_back(recording.Predict(push.key, push.instance.features,
                                             push.instance.weight),
                           push.instance.label);
    if (in_flight.size() >= 3) {
      recording.Label(in_flight.front().first.shard,
                      in_flight.front().first.id, in_flight.front().second);
      in_flight.erase(in_flight.begin());
    }
  }
  for (const auto& entry : in_flight) {
    recording.Label(entry.first.shard, entry.first.id, entry.second);
  }
}

class SimCheckerSelfTest : public ::testing::Test {
 protected:
  SimCheckerSelfTest() : monitor_(MakeServing(MakeConfig())) {
    config_ = MakeConfig();
    RecordCleanRun(monitor_, history_);
  }

  static SimServingConfig MakeConfig() {
    SimServingConfig config;
    config.shards = 2;
    return config;
  }

  SimCheckResult Check(const SimHistory& history) {
    HistoryChecker checker(config_);
    return checker.Check(history, monitor_);
  }

  SimServingConfig config_;
  api::ShardedMonitor monitor_;
  SimHistory history_;
};

TEST_F(SimCheckerSelfTest, CleanHistoryPasses) {
  const SimCheckResult result = Check(history_);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_F(SimCheckerSelfTest, DroppedAppliedLabelRecordFires) {
  SimHistory broken = history_;
  for (size_t i = broken.ops.size(); i-- > 0;) {
    if (broken.ops[i].kind == SimOpKind::kLabel && broken.ops[i].applied) {
      broken.ops.erase(broken.ops.begin() + static_cast<long>(i));
      break;
    }
  }
  ASSERT_LT(broken.ops.size(), history_.ops.size());
  const SimCheckResult result = Check(broken);
  EXPECT_FALSE(result.ok);
}

TEST_F(SimCheckerSelfTest, MisShardedOpFires) {
  SimHistory broken = history_;
  for (SimOp& op : broken.ops) {
    if (op.kind == SimOpKind::kPredict) {
      op.shard ^= 1;  // The other of the two shards.
      break;
    }
  }
  const SimCheckResult result = Check(broken);
  EXPECT_FALSE(result.ok);
}

TEST_F(SimCheckerSelfTest, TamperedPredictionOutcomeFires) {
  SimHistory broken = history_;
  for (SimOp& op : broken.ops) {
    if (op.kind == SimOpKind::kPredict) {
      op.predicted = (op.predicted + 1) % 3;
      break;
    }
  }
  const SimCheckResult result = Check(broken);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("predicted label"), std::string::npos)
      << result.error;
}

TEST_F(SimCheckerSelfTest, SpuriousCrashMarkerFires) {
  // A crash record without a real crash: the checker rolls the whole
  // history back (no persist), the live monitor visibly did not.
  SimHistory broken = history_;
  SimOp crash;
  crash.kind = SimOpKind::kCrashRestart;
  broken.ops.push_back(crash);
  const SimCheckResult result = Check(broken);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("final"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace ccd
