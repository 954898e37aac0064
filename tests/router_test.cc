// Concurrent serving router (runtime/router.h + api/sharded_monitor.h) —
// the harness proving the serving layer's load-bearing claims:
//
//  (a) differential — a hash-routed ShardedMonitor with K shards fed
//      single-threaded is bit-identical, per shard, to K independent
//      bare MonitorEngines fed the same key-partitioned substreams;
//  (b) multi-threaded stress — producer threads pushing interleaved
//      Predict/Label land per-shard results bit-identical to the
//      single-threaded replay of the same per-key sequences (plus a
//      contended variant that hammers shared shards for TSan);
//  (c) resharding — DrainShard mid-stream moves the complete shard state
//      (pending-label buffer included) through the state-image codec and
//      the run continues exactly as if nothing moved; a drain that cannot
//      encode leaves the shard serving; AddShard re-routes keys over the
//      grown table.
//
// Also covers the Router's hash/slot contracts, push validation (a push
// that throws applied nothing), the EngineSnapshot merge helpers and the
// shard-tagged callback fan-in. This suite is part of the TSan CI gate.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "eval/engine.h"
#include "runtime/router.h"
#include "runtime/sync.h"
#include "sim_harness.h"
#include "testing_util.h"

namespace ccd {
namespace {

using runtime::Router;
using test_util::ExpectSnapshotEq;
using test_util::KeyedInstance;
using test_util::KeysForSlot;
using test_util::MakeKeyedSchedule;
using test_util::MakeRbfDriftStream;
using test_util::RunProducers;
using test_util::ShortConfig;

/// The serving schema of MakeRbfDriftStream / MakeKeyedSchedule.
StreamSchema ServingSchema() { return StreamSchema(6, 3, "serving"); }

/// A sharded monitor on cheap components — lock behavior, not learning, is
/// under test here.
api::ShardedMonitorBuilder ServingBuilder(int shards, uint64_t seed = 100) {
  return api::ShardedMonitorBuilder()
      .Schema(ServingSchema())
      .Classifier("naive-bayes")
      .Detector("DDM")
      .Seed(seed)
      .Protocol(ShortConfig())
      .Shards(shards);
}

// ------------------------------------------------------- Router contracts

TEST(RouterTest, HashKeyIsPinnedAndStable) {
  // The placement contract is pure integer arithmetic; these pinned values
  // guarantee it never drifts across platforms, compilers or refactors —
  // external balancers compute shard ownership from the same numbers.
  EXPECT_EQ(Router::HashKey(0), 16294208416658607535ull);
  EXPECT_EQ(Router::HashKey(1), 10451216379200822465ull);
  EXPECT_EQ(Router::HashKey(42), 13679457532755275413ull);
  EXPECT_EQ(Router::HashKey(123456789), 2466975172287755897ull);
  EXPECT_EQ(Router::KeySlot(0, 8), 7);
  EXPECT_EQ(Router::KeySlot(1, 8), 1);
  EXPECT_EQ(Router::KeySlot(42, 8), 5);
  // One slot swallows everything; sequential keys spread over many.
  std::vector<int> hits(8, 0);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(Router::KeySlot(k, 1), 0);
    ++hits[static_cast<size_t>(Router::KeySlot(k, 8))];
  }
  for (int h : hits) EXPECT_GT(h, 0);
  EXPECT_THROW(Router::KeySlot(7, 0), std::invalid_argument);
}

TEST(RouterTest, RoutesUnderSharedTableLock) {
  Router router(4);
  EXPECT_EQ(router.slots(), 4);
  runtime::ReaderLock table(&router.TableMutex());
  EXPECT_EQ(router.RouteKey(42), Router::KeySlot(42, 4));
  EXPECT_THROW(router.RequireSlot(4), std::out_of_range);
  EXPECT_THROW(router.RequireSlot(-1), std::out_of_range);
  EXPECT_NO_THROW(router.RequireSlot(3));
}

/// The runtime half of the AddSlot lock-identity contract, exercised with
/// the thread-safety analysis off: under clang the same call does not even
/// compile (tests/negative_compile/add_slot_without_table_lock.cc proves
/// it), so this body must opt out of the analysis to exist at all.
void ExpectForeignLockRejected(Router& router) CCD_NO_THREAD_SAFETY_ANALYSIS {
  Router other(1);
  runtime::WriterLock foreign(&other.TableMutex());
  EXPECT_THROW(router.AddSlot(foreign), std::logic_error);
}

TEST(RouterTest, AddSlotGrowsTableUnderExclusiveLockOnly) {
  Router router(2);
  {
    runtime::WriterLock table(&router.TableMutex());
    EXPECT_EQ(router.AddSlot(table), 2);
  }
  EXPECT_EQ(router.slots(), 3);
  {
    runtime::ReaderLock table(&router.TableMutex());
    EXPECT_NO_THROW(router.RequireSlot(2));
  }
  // A *different* router's exclusive lock is not good enough.
  ExpectForeignLockRejected(router);
}

// --------------------------------------------------------- merge helpers

TEST(MergeSnapshotsTest, SumsCountersAndOrdersLogs) {
  EngineSnapshot a;
  a.position = 10;
  a.pending = 2;
  a.evicted = 1;
  a.metric_samples = 3;
  a.next_id = 5;
  a.last_detector_state = DetectorState::kWarning;
  a.class_counts = {4, 6};
  a.drift_log = {DriftAlarm{7, {0}}};
  a.pmauc_series = {{7, 0.5}};
  a.sum_pmauc = 1.5;
  EngineSnapshot b;
  b.position = 20;
  b.unmatched_labels = 4;
  b.metric_samples = 1;
  b.next_id = 9;
  b.last_detector_state = DetectorState::kDrift;
  b.class_counts = {1, 2};
  b.drift_log = {DriftAlarm{3, {}}, DriftAlarm{7, {1}}};
  b.pmauc_series = {{3, 0.25}};
  b.sum_pmauc = 0.5;

  const EngineSnapshot m = MergeSnapshots({a, b});
  EXPECT_EQ(m.position, 30u);
  EXPECT_EQ(m.pending, 2u);
  EXPECT_EQ(m.evicted, 1u);
  EXPECT_EQ(m.unmatched_labels, 4u);
  EXPECT_EQ(m.metric_samples, 4u);
  EXPECT_EQ(m.next_id, 9u);
  EXPECT_EQ(m.last_detector_state, DetectorState::kDrift);
  EXPECT_EQ(m.class_counts, (std::vector<uint64_t>{5, 8}));
  // Ascending position, shard order on ties (a's alarm at 7 before b's).
  ASSERT_EQ(m.drift_log.size(), 3u);
  EXPECT_EQ(m.drift_log[0], (DriftAlarm{3, {}}));
  EXPECT_EQ(m.drift_log[1], (DriftAlarm{7, {0}}));
  EXPECT_EQ(m.drift_log[2], (DriftAlarm{7, {1}}));
  EXPECT_EQ(m.pmauc_series,
            (std::vector<std::pair<uint64_t, double>>{{3, 0.25}, {7, 0.5}}));
  EXPECT_EQ(m.sum_pmauc, 2.0);

  const std::vector<ShardAlarm> alarms = MergeShardAlarms({a, b});
  ASSERT_EQ(alarms.size(), 3u);
  EXPECT_EQ(alarms[0], (ShardAlarm{1, DriftAlarm{3, {}}}));
  EXPECT_EQ(alarms[1], (ShardAlarm{0, DriftAlarm{7, {0}}}));
  EXPECT_EQ(alarms[2], (ShardAlarm{1, DriftAlarm{7, {1}}}));

  const PrequentialResult r = MergedResult({a, b});
  EXPECT_EQ(r.instances, 30u);
  EXPECT_EQ(r.drifts, 3u);
  EXPECT_EQ(r.drift_positions, (std::vector<uint64_t>{3, 7, 7}));
  EXPECT_EQ(r.mean_pmauc, 0.5);  // (1.5 + 0.5) / 4 samples.

  // Shards disagreeing on class arity are a caller bug, not a zero-fill.
  EngineSnapshot c;
  c.class_counts = {1, 2, 3};
  EXPECT_THROW(MergeSnapshots({a, c}), std::invalid_argument);
  // Degenerate inputs.
  EXPECT_EQ(MergeSnapshots({}).position, 0u);
  EXPECT_EQ(MergedResult({}).instances, 0u);
}

TEST(MergeSnapshotsTest, SingleShardMergeMatchesEngineResult) {
  auto stream = MakeRbfDriftStream(900, 21);
  test_util::FrozenClassifier clf(stream->schema());
  MonitorEngine engine(stream->schema(), &clf, nullptr, ShortConfig());
  for (const Instance& instance : Take(stream.get(), 1500)) {
    engine.Feed(instance);
  }
  test_util::ExpectBitIdentical(engine.Result(),
                                MergedResult({engine.Snapshot()}));
}

// ------------------------------------------------- (a) differential test

// A hash-routed ShardedMonitor fed single-threaded is bit-identical, per
// shard, to K independent engines fed the key-partitioned substreams —
// the router adds routing, not arithmetic. The baseline uses the
// documented contracts: shard i's components are seeded Seed() + i, and
// keys partition by Router::KeySlot(key, K).
// The oracle itself lives in tests/sim_harness.h now: HistoryChecker
// replays the recorded linearization against per-shard bare
// MonitorEngines (test_util::OwnedEngine) seeded Seed() + i and compares
// every outcome plus the final per-shard snapshots and the merged
// aggregate — the same checker the simulation sweeps (sim_test,
// sim_crash_test) run over seeded interleavings with reshard/drain/
// SHIP/crash faults. Here it gets the degenerate history: single-threaded,
// fault-free, Feed-only.
TEST(ShardedDifferentialTest, HashRoutedEqualsIndependentEnginesPerShard) {
  test_util::SimServingConfig config;
  config.shards = 4;
  config.seed = 100;
  auto monitor = test_util::MakeServing(config);
  EXPECT_EQ(monitor.shards(), config.shards);

  test_util::SimHistory history;
  test_util::RecordingMonitor recording(&monitor, &history);
  auto stream = MakeRbfDriftStream(1500, 11);
  const std::vector<Instance> data = Take(stream.get(), 3000);
  for (size_t i = 0; i < data.size(); ++i) {
    recording.Feed(/*key=*/i, data[i]);
  }

  EXPECT_EQ(monitor.position(), 3000u);
  EXPECT_EQ(monitor.Result().instances, 3000u);
  test_util::HistoryChecker checker(config);
  const test_util::SimCheckResult verdict = checker.Check(history, monitor);
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

// ------------------------------------------------ (b) multi-thread stress

/// Pushes one producer's schedule through the monitor: Predict/Label
/// interleaved with a 3-deep verification-latency queue, drained at the
/// end. Deterministic per shard, whatever the cross-shard interleaving.
void PushSchedule(api::ShardedMonitor& monitor,
                  const std::vector<KeyedInstance>& schedule) {
  std::deque<std::pair<api::ShardedMonitor::Prediction, int>> in_flight;
  for (const KeyedInstance& push : schedule) {
    in_flight.emplace_back(
        monitor.Predict(push.key, push.instance.features,
                        push.instance.weight),
        push.instance.label);
    if (in_flight.size() > 3) {
      const auto& [prediction, label] = in_flight.front();
      ASSERT_TRUE(monitor.Label(prediction.shard, prediction.id, label));
      in_flight.pop_front();
    }
  }
  while (!in_flight.empty()) {
    const auto& [prediction, label] = in_flight.front();
    ASSERT_TRUE(monitor.Label(prediction.shard, prediction.id, label));
    in_flight.pop_front();
  }
}

// The acceptance stress: 4 producer threads × 4 shards, each thread
// owning the keys of exactly one shard, so the per-shard push sequences
// are deterministic while the threads genuinely interleave. Per-shard
// counts, metric windows and drift logs must be bit-identical to a
// single-threaded replay of the same per-key sequences.
TEST(RouterStressTest, DisjointKeyProducersMatchSingleThreadedRun) {
  constexpr int kShards = 4;
  constexpr int kProducers = 4;
  constexpr size_t kPushes = 1500;

  std::vector<std::vector<KeyedInstance>> schedules;
  for (int t = 0; t < kProducers; ++t) {
    schedules.push_back(MakeKeyedSchedule(KeysForSlot(t, kShards, 8), kPushes,
                                          /*seed=*/7 + t));
  }

  auto concurrent = ServingBuilder(kShards).Build();
  RunProducers(kProducers, [&](int t) {
    PushSchedule(concurrent, schedules[static_cast<size_t>(t)]);
  });

  auto sequential = ServingBuilder(kShards).Build();
  for (const auto& schedule : schedules) {
    PushSchedule(sequential, schedule);
  }

  EXPECT_EQ(concurrent.position(), kProducers * kPushes);
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSnapshotEq(sequential.ShardSnapshot(s), concurrent.ShardSnapshot(s));
  }
  test_util::ExpectBitIdentical(sequential.Result(), concurrent.Result());
}

// The contended variant: more producers than shards and overlapping key
// sets, so threads hammer the *same* slot mutexes. Per-shard order is
// nondeterministic here; the invariant is accounting — every push lands
// exactly once and the striped locks never lose or double-count one.
// (This is the test that makes the TSan job bite.)
TEST(RouterStressTest, ContendedShardsKeepAggregateCounts) {
  constexpr int kShards = 2;
  constexpr int kProducers = 4;
  constexpr size_t kPushes = 1000;

  auto monitor = ServingBuilder(kShards).Build();
  std::vector<std::vector<KeyedInstance>> schedules;
  for (int t = 0; t < kProducers; ++t) {
    // Same key pool for everyone: maximal contention.
    schedules.push_back(MakeKeyedSchedule({0, 1, 2, 3, 4, 5}, kPushes,
                                          /*seed=*/50 + t));
  }
  std::vector<uint64_t> expected_class_counts(3, 0);
  for (const auto& schedule : schedules) {
    for (const KeyedInstance& push : schedule) {
      ++expected_class_counts[static_cast<size_t>(push.instance.label)];
    }
  }

  RunProducers(kProducers, [&](int t) {
    for (const KeyedInstance& push : schedules[static_cast<size_t>(t)]) {
      monitor.Feed(push.key, push.instance);
    }
  });

  EXPECT_EQ(monitor.position(), kProducers * kPushes);
  EXPECT_EQ(monitor.pending(), 0u);
  EXPECT_EQ(monitor.Snapshot().class_counts, expected_class_counts);
}

// --------------------------------------------------- (c) resharding tests

// DrainShard mid-stream: the drained shard's complete state — pending-
// label buffer included — moves onto the replacement engine, and
// everything afterwards (late labels, metric windows, drift logs, further
// pushes) is bit-identical to a run that never drained.
TEST(ReshardTest, DrainShardMidStreamIsBitIdenticalToNeverDraining) {
  constexpr int kShards = 3;
  const std::vector<KeyedInstance> schedule =
      MakeKeyedSchedule({0, 1, 2, 3, 4, 5, 6, 7}, 2400, /*seed=*/13);

  auto collect = [&](bool drain) {
    auto monitor = ServingBuilder(kShards).Build();
    // First half, plus two predictions left in flight across the drain.
    for (size_t i = 0; i < 1200; ++i) {
      monitor.Feed(schedule[i].key, schedule[i].instance);
    }
    auto p1 = monitor.Predict(schedule[1200].key,
                              schedule[1200].instance.features);
    auto p2 = monitor.Predict(schedule[1201].key,
                              schedule[1201].instance.features);
    if (drain) monitor.DrainShard(1);
    // The parked predictions stay servable on the new owner.
    EXPECT_TRUE(monitor.Label(p1.shard, p1.id, schedule[1200].instance.label));
    EXPECT_TRUE(monitor.Label(p2.shard, p2.id, schedule[1201].instance.label));
    if (drain) monitor.DrainShard(0);
    for (size_t i = 1202; i < schedule.size(); ++i) {
      monitor.Feed(schedule[i].key, schedule[i].instance);
    }
    std::vector<EngineSnapshot> snapshots;
    for (int s = 0; s < kShards; ++s) {
      snapshots.push_back(monitor.ShardSnapshot(s));
    }
    return snapshots;
  };

  const std::vector<EngineSnapshot> undrained = collect(false);
  const std::vector<EngineSnapshot> drained = collect(true);
  ASSERT_EQ(undrained.size(), drained.size());
  for (size_t s = 0; s < undrained.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSnapshotEq(undrained[s], drained[s]);
  }
}

/// A detector without SaveState(): legal for plain monitoring, but its
/// state cannot leave the engine. Registered in this binary only, so a
/// fleet can be built on it through the registry.
class NoSaveStateDetector : public DriftDetector {
 public:
  void Observe(const Instance&, int, const std::vector<double>&) override {}
  DetectorState state() const override { return DetectorState::kStable; }
  void Reset() override {}
  std::string name() const override { return "no-save-state"; }
};

CCD_REGISTER_DETECTOR("no-save-state", "test detector without SaveState()",
                      api::kNoCaps,
                      [](const StreamSchema&, uint64_t, const api::ParamMap&) {
                        return std::make_unique<NoSaveStateDetector>();
                      });

// DrainShard promises that a failed drain leaves the shard serving: the
// live shard is encoded before anything is touched, so a component
// without SaveState() makes the drain throw, naming the component, and
// the shard keeps its position and keeps applying pushes.
TEST(ReshardTest, FailedDrainLeavesTheShardServing) {
  auto monitor = api::ShardedMonitorBuilder()
                     .Schema(ServingSchema())
                     .Classifier("naive-bayes")
                     .Detector("no-save-state")
                     .Seed(100)
                     .Protocol(ShortConfig())
                     .Shards(2)
                     .Build();
  const std::vector<KeyedInstance> schedule =
      MakeKeyedSchedule({0, 1, 2, 3, 4, 5}, 400, /*seed=*/31);
  for (const KeyedInstance& push : schedule) {
    monitor.Feed(push.key, push.instance);
  }
  const uint64_t before = monitor.ShardSnapshot(1).position;
  ASSERT_GT(before, 0u);

  try {
    monitor.DrainShard(1);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("no-save-state"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(monitor.ShardSnapshot(1).position, before);
  const uint64_t key = KeysForSlot(/*slot=*/1, /*slots=*/2, 1)[0];
  monitor.Feed(key, schedule[0].instance);
  EXPECT_EQ(monitor.ShardSnapshot(1).position, before + 1);
}

TEST(ReshardTest, AddShardGrowsTableAndReroutesKeys) {
  auto monitor = ServingBuilder(2).Build();
  const std::vector<KeyedInstance> schedule =
      MakeKeyedSchedule({0, 1, 2, 3, 4, 5, 6, 7}, 600, /*seed=*/23);
  for (const KeyedInstance& push : schedule) {
    monitor.Feed(push.key, push.instance);
  }
  EXPECT_EQ(monitor.AddShard(), 2);
  EXPECT_EQ(monitor.shards(), 3);
  // Histories stayed put; the new shard starts empty.
  EXPECT_EQ(monitor.position(), 600u);
  EXPECT_EQ(monitor.ShardSnapshot(2).position, 0u);
  // Keyed routing now hashes over the grown table.
  for (uint64_t key = 0; key < 32; ++key) {
    auto p = monitor.Predict(key, schedule[0].instance.features);
    EXPECT_EQ(p.shard, Router::KeySlot(key, 3));
    EXPECT_TRUE(monitor.Label(p.shard, p.id, schedule[0].instance.label));
  }
  // Some of those keys actually landed on the new shard (pinned: of keys
  // 0..31, several hash to slot 2 in a 3-wide table).
  EXPECT_GT(monitor.ShardSnapshot(2).position, 0u);
}

// ------------------------------------------------------ push validation

// A push validates every element before applying any: a batch that
// throws applied nothing, so a retry applies each element exactly once.
// The shipped shard sits in the middle of the batch, so a push that
// applied shard by shard would already have changed shard 0 when it
// reached shard 1.
TEST(PushValidationTest, BatchThatThrowsAppliesNothing) {
  constexpr int kShards = 3;
  auto monitor = ServingBuilder(kShards).Build();
  const std::vector<KeyedInstance> warm =
      MakeKeyedSchedule({0, 1, 2, 3, 4, 5, 6, 7}, 300, /*seed=*/41);
  for (const KeyedInstance& push : warm) {
    monitor.Feed(push.key, push.instance);
  }
  std::vector<api::ShardedMonitor::KeyedInstance> batch;
  for (int s = 0; s < kShards; ++s) {
    batch.push_back({KeysForSlot(s, kShards, 1)[0],
                     warm[static_cast<size_t>(s)].instance});
  }
  auto shard_states = [&] {
    std::vector<std::pair<uint64_t, uint64_t>> states;
    for (int s = 0; s < kShards; ++s) {
      const EngineSnapshot snapshot = monitor.ShardSnapshot(s);
      states.emplace_back(snapshot.position, snapshot.pending);
    }
    return states;
  };

  const api::ShardedMonitor::Prediction live = monitor.Predict(
      KeysForSlot(1, kShards, 1)[0], warm[1].instance.features);
  ASSERT_EQ(live.shard, 1);
  const std::string shipped = monitor.ShipShard(1);
  const auto before = shard_states();
  EXPECT_THROW(monitor.FeedBatch(batch), std::logic_error);
  EXPECT_EQ(shard_states(), before);
  std::vector<api::ShardedMonitor::Prediction> predictions;
  EXPECT_THROW(monitor.PredictBatch(batch, &predictions), std::logic_error);
  EXPECT_EQ(shard_states(), before);
  // A bogus ticket shard rejects the whole label batch the same way.
  const std::vector<api::ShardedMonitor::ShardLabel> labels = {
      {0, 1, 0}, {kShards, 1, 0}, {2, 1, 0}};
  EXPECT_THROW(monitor.LabelBatch(labels), std::out_of_range);
  EXPECT_EQ(monitor.unmatched_labels(), 0u);
  EXPECT_EQ(shard_states(), before);
  // A shipped shard refuses intake but still accepts labels (the restore
  // below discards this one along with the rest of the window).
  EXPECT_TRUE(monitor.Label(1, live.id, warm[1].instance.label));

  // After the restore, the retries apply every element exactly once.
  monitor.RestoreShard(1, shipped);
  monitor.FeedBatch(batch);
  monitor.PredictBatch(batch, &predictions);
  const auto after = shard_states();
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const size_t i = static_cast<size_t>(s);
    EXPECT_EQ(after[i].first, before[i].first + 1);
    EXPECT_EQ(after[i].second, before[i].second + 1);
    EXPECT_EQ(predictions[i].shard, s);
  }
}

// Admission runs in the route-and-validate pass, so one bad row anywhere
// in a batch refuses the whole batch: no shard's state moves, not even
// the shards whose rows were good and come first.
TEST(PushValidationTest, BatchWithOneInadmissibleRowAppliesNothing) {
  constexpr int kShards = 3;
  auto monitor = ServingBuilder(kShards).Build();
  const std::vector<KeyedInstance> warm =
      MakeKeyedSchedule({0, 1, 2, 3, 4, 5, 6, 7}, 300, /*seed=*/47);
  for (const KeyedInstance& push : warm) {
    monitor.Feed(push.key, push.instance);
  }
  std::vector<api::ShardedMonitor::KeyedInstance> batch;
  for (int s = 0; s < kShards; ++s) {
    batch.push_back({KeysForSlot(s, kShards, 1)[0],
                     warm[static_cast<size_t>(s)].instance});
  }
  const api::ShardedMonitor::Prediction live = monitor.Predict(
      batch[1].key, batch[1].instance.features);
  auto images = [&] {
    std::vector<std::string> out;
    for (int s = 0; s < kShards; ++s) out.push_back(monitor.SerializeShard(s));
    return out;
  };
  const std::vector<std::string> before = images();
  auto expect_refused = [&](RejectReason reason,
                            const std::function<void()>& push) {
    test_util::ExpectRefused(reason, push);
    EXPECT_EQ(images(), before) << static_cast<int>(reason);
  };

  std::vector<api::ShardedMonitor::KeyedInstance> bad = batch;
  bad.back().instance.features[0] = std::numeric_limits<double>::quiet_NaN();
  expect_refused(RejectReason::kFeature, [&] { monitor.FeedBatch(bad); });
  bad = batch;
  bad.back().instance.features.push_back(0.5);
  std::vector<api::ShardedMonitor::Prediction> predictions;
  expect_refused(RejectReason::kWidth,
                 [&] { monitor.PredictBatch(bad, &predictions); });
  bad = batch;
  bad.back().instance.weight = 0.0;
  expect_refused(RejectReason::kWeight, [&] { monitor.FeedBatch(bad); });
  bad = batch;
  bad.back().instance.label = ServingSchema().num_classes;
  expect_refused(RejectReason::kLabel, [&] { monitor.FeedBatch(bad); });
  const std::vector<api::ShardedMonitor::ShardLabel> labels = {
      {live.shard, live.id, 0}, {0, 1, -1}};
  expect_refused(RejectReason::kLabel, [&] { monitor.LabelBatch(labels); });
  expect_refused(RejectReason::kLabel,
                 [&] { monitor.Label(live.shard, live.id, -1); });
  EXPECT_EQ(monitor.unmatched_labels(), 0u);

  // The good rows apply once the bad one is gone.
  monitor.FeedBatch(batch);
  EXPECT_TRUE(monitor.Label(live.shard, live.id, 0));
  EXPECT_NE(images(), before);
}

// A push from inside a callback is refused before it takes a lock: the
// callback runs under its shard's lock, in the middle of the outer push.
TEST(PushValidationTest, PushFromCallbackThrows) {
  api::ShardedMonitor* self = nullptr;
  const std::vector<KeyedInstance> schedule =
      MakeKeyedSchedule({0, 1, 2, 3}, 1200, /*seed=*/43);
  int refused = 0;
  auto monitor = ServingBuilder(2)
                     .OnMetrics([&](int shard, const MetricsSnapshot&) {
                       // The other shard's key: no self-deadlock to hide
                       // behind if the push were let through.
                       const uint64_t key = KeysForSlot(1 - shard, 2, 1)[0];
                       try {
                         self->Feed(key, schedule[0].instance);
                       } catch (const std::logic_error&) {
                         ++refused;
                       }
                     })
                     .Build();
  self = &monitor;
  for (const KeyedInstance& push : schedule) {
    monitor.Feed(push.key, push.instance);
  }
  EXPECT_GT(refused, 0);
  EXPECT_EQ(monitor.position(), schedule.size());
}

TEST(PushValidationTest, BogusShardIndicesThrowOutOfRange) {
  auto monitor = ServingBuilder(2).Build();
  EXPECT_THROW(monitor.Label(5, 1, 0), std::out_of_range);
  EXPECT_THROW(monitor.Label(-1, 1, 0), std::out_of_range);
  EXPECT_THROW(monitor.DrainShard(2), std::out_of_range);
  EXPECT_THROW(monitor.ShardSnapshot(-1), std::out_of_range);
  EXPECT_EQ(monitor.unmatched_labels(), 0u);
}

// Shard-tagged drift fan-in: every alarm a shard engine raises arrives at
// the aggregate callback tagged with that shard's id, and the aggregate
// DriftLog() is exactly the fan-in history.
TEST(ShardedCallbackTest, DriftAlarmsFanInWithShardIds) {
  runtime::Mutex mutex;
  std::vector<ShardAlarm> seen;
  auto monitor = api::ShardedMonitorBuilder()
                     .Schema(ServingSchema())
                     .Classifier("naive-bayes")
                     .Detector("DDM")
                     .Seed(100)
                     .Protocol(ShortConfig())
                     .Shards(3)
                     .OnDrift([&](int shard, const DriftAlarm& alarm,
                                  const MetricsSnapshot&) {
                       runtime::MutexLock lock(&mutex);
                       seen.push_back(ShardAlarm{shard, alarm});
                     })
                     .Build();

  // A sudden concept switch on every key's substream: DDM sees the error
  // rate jump on each shard.
  const std::vector<KeyedInstance> schedule =
      MakeKeyedSchedule({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 6000,
                        /*seed=*/31);
  for (const KeyedInstance& push : schedule) {
    monitor.Feed(push.key, push.instance);
  }

  const std::vector<ShardAlarm> log = monitor.DriftLog();
  ASSERT_FALSE(log.empty());  // The drift actually fired somewhere.
  // Fan-in history == aggregate log (same alarms; fan-in order is the
  // firing order, the log is position-sorted — compare as multisets via
  // per-shard sequences).
  for (int s = 0; s < 3; ++s) {
    std::vector<DriftAlarm> from_callbacks;
    for (const ShardAlarm& a : seen) {
      if (a.shard == s) from_callbacks.push_back(a.alarm);
    }
    EXPECT_EQ(from_callbacks, monitor.ShardSnapshot(s).drift_log)
        << "shard " << s;
  }
}

// ------------------------------------------------------ builder contracts

TEST(ShardedMonitorBuilderTest, ValidatesConfiguration) {
  EXPECT_THROW(api::ShardedMonitorBuilder().Build(), api::ApiError);
  EXPECT_THROW(
      api::ShardedMonitorBuilder().Schema(0, 3).Build(), api::ApiError);
  EXPECT_THROW(
      api::ShardedMonitorBuilder().Schema(4, 1).Build(), api::ApiError);
  EXPECT_THROW(
      api::ShardedMonitorBuilder().Schema(6, 3).Shards(0).Build(),
      api::ApiError);
  EXPECT_THROW(
      api::ShardedMonitorBuilder().Schema(6, 3).Shards(-2).Build(),
      api::ApiError);
  EXPECT_THROW(api::ShardedMonitorBuilder()
                   .Schema(6, 3)
                   .Classifier("no-such-classifier")
                   .Build(),
               api::ApiError);
  EXPECT_THROW(api::ShardedMonitorBuilder()
                   .Schema(6, 3)
                   .Detector("no-such-detector")
                   .Build(),
               api::ApiError);
  PrequentialConfig bad = ShortConfig();
  bad.eval_interval = 0;
  EXPECT_THROW(
      api::ShardedMonitorBuilder().Schema(6, 3).Protocol(bad).Build(),
      api::ApiError);
  bad = ShortConfig();
  bad.metric_window = 0;
  EXPECT_THROW(
      api::ShardedMonitorBuilder().Schema(6, 3).Protocol(bad).Build(),
      api::ApiError);
  // The single-stream facade validates through the same builder.
  EXPECT_THROW(api::MonitorBuilder().Build(), api::ApiError);
  EXPECT_THROW(api::MonitorBuilder()
                   .Schema(ServingSchema())
                   .Classifier("no-such-classifier")
                   .Build(),
               api::ApiError);
  EXPECT_THROW(api::MonitorBuilder()
                   .Schema(ServingSchema())
                   .Detector("no-such-detector")
                   .Build(),
               api::ApiError);
}

}  // namespace
}  // namespace ccd
