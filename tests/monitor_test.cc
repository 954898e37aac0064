// MonitorEngine, a one-shard ShardedMonitor and its api::Monitor facade —
// the push-based online monitoring surface. The load-bearing claims:
//   (a) pushing a stream through the engine with immediate labels is
//       bit-identical to RunPrequential (offline eval and online serving
//       share one engine),
//   (b) delayed labels applied in arrival order reproduce the same
//       detector state and run result,
//   (c) the bounded pending buffer evicts oldest-first, counts what it
//       drops, and never goes out of bounds,
//   (d) the api::Monitor facade is bit-identical to a bare engine on
//       identically seeded components.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "classifiers/naive_bayes.h"
#include "detectors/ddm.h"
#include "detectors/fhddm.h"
#include "eval/engine.h"
#include "eval/prequential.h"
#include "generators/registry.h"
#include "io/wire.h"
#include "stream/stream.h"
#include "testing_util.h"
#include "utils/rng.h"

namespace ccd {
namespace {

using test_util::ExpectBitIdentical;
using test_util::ExpectRefused;
using test_util::ExpectSnapshotEq;
using test_util::FrozenClassifier;
using test_util::ShortConfig;
using test_util::WarningRegionDetector;

/// Scripted detector with drifted-classes payloads, for testing that the
/// engine surfaces local-drift information instead of dropping it.
class ScriptedLocalDetector : public DriftDetector {
 public:
  void Observe(const Instance&, int, const std::vector<double>&) override {
    ++observed_;
    fired_ = observed_ == 400 || observed_ == 900;
  }
  DetectorState state() const override {
    return fired_ ? DetectorState::kDrift : DetectorState::kStable;
  }
  void Reset() override { fired_ = false; }
  std::string name() const override { return "scripted-local"; }
  std::vector<int> drifted_classes() const override {
    return fired_ ? std::vector<int>{1, 2} : std::vector<int>{};
  }

 private:
  uint64_t observed_ = 0;
  bool fired_ = false;
};

// ------------------------------------------------ (a) engine equivalence

// Push-with-immediate-labels (engine Feed) == offline RunPrequential,
// bit for bit, across a seeded (stream x detector) grid.
TEST(MonitorEngineTest, FeedIsBitIdenticalToRunPrequential) {
  const std::vector<std::string> streams = {"RBF5", "Aggrawal5"};
  const std::vector<std::string> detectors = {"DDM", "FHDDM", "PerfSim"};
  for (const std::string& stream_name : streams) {
    for (const std::string& detector_name : detectors) {
      SCOPED_TRACE(stream_name + " / " + detector_name);
      const StreamSpec* spec = FindStreamSpec(stream_name);
      ASSERT_NE(spec, nullptr);
      BuildOptions options;
      options.scale = 0.001;
      options.seed = 42;

      PrequentialConfig cfg = ShortConfig();

      // Offline: the pull-based adapter.
      BuiltStream offline = BuildStream(*spec, options);
      auto offline_clf = api::MakeClassifier("cs-ptree", offline.stream->schema(),
                                             options.seed);
      auto offline_det = api::MakeDetector(detector_name,
                                           offline.stream->schema(),
                                           options.seed);
      PrequentialResult pulled = RunPrequential(
          offline.stream.get(), offline_clf.get(), offline_det.get(), cfg);

      // Online: the same realization pushed through the engine.
      BuiltStream online = BuildStream(*spec, options);
      auto online_clf = api::MakeClassifier("cs-ptree", online.stream->schema(),
                                            options.seed);
      auto online_det = api::MakeDetector(detector_name,
                                          online.stream->schema(),
                                          options.seed);
      MonitorEngine engine(online.stream->schema(), online_clf.get(),
                           online_det.get(), cfg);
      for (uint64_t i = 0; i < cfg.max_instances; ++i) {
        engine.Feed(online.stream->Next());
      }
      ExpectBitIdentical(pulled, engine.Result());
    }
  }
}

/// Result() is derived from the run state alone: its counts agree with the
/// engine's accessors, and drift_positions mirrors drift_events.
void ExpectResultMatchesRunState(const MonitorEngine& engine) {
  const PrequentialResult r = engine.Result();
  EXPECT_EQ(r.instances, engine.position());
  EXPECT_EQ(r.drifts, engine.drifts());
  EXPECT_EQ(r.drift_events.size(), r.drifts);
  ASSERT_EQ(r.drift_positions.size(), r.drifts);
  for (size_t i = 0; i < r.drift_positions.size(); ++i) {
    EXPECT_EQ(r.drift_positions[i], r.drift_events[i].position);
  }
}

// Predict()+Label() back to back is the same step as Feed(), and so is
// Feed() continued on an engine restored from a mid-stream Snapshot().
TEST(MonitorEngineTest, SplitPredictLabelMatchesFeed) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  PrequentialConfig cfg = ShortConfig();

  BuiltStream a = BuildStream(*spec, options);
  std::vector<Instance> data = Take(a.stream.get(), cfg.max_instances);

  GaussianNaiveBayes clf_feed(a.stream->schema());
  Fhddm det_feed;
  MonitorEngine feed_engine(a.stream->schema(), &clf_feed, &det_feed, cfg);
  for (const Instance& inst : data) feed_engine.Feed(inst);

  GaussianNaiveBayes clf_split(a.stream->schema());
  Fhddm det_split;
  MonitorEngine split_engine(a.stream->schema(), &clf_split, &det_split, cfg);
  for (const Instance& inst : data) {
    MonitorEngine::Ticket t = split_engine.Predict(inst.features, inst.weight);
    EXPECT_EQ(split_engine.Label(t.id, inst.label), LabelOutcome::kApplied);
  }
  ExpectBitIdentical(feed_engine.Result(), split_engine.Result());
  EXPECT_EQ(split_engine.pending(), 0u);
  EXPECT_EQ(split_engine.evicted(), 0u);

  // The restored engine drives the first engine's components onward, so
  // it continues exactly where the snapshot was taken.
  GaussianNaiveBayes clf_restore(a.stream->schema());
  Fhddm det_restore;
  MonitorEngine first_half(a.stream->schema(), &clf_restore, &det_restore,
                           cfg);
  const size_t half = data.size() / 2;
  for (size_t i = 0; i < half; ++i) first_half.Feed(data[i]);
  ExpectResultMatchesRunState(first_half);
  MonitorEngine restored(a.stream->schema(), &clf_restore, &det_restore, cfg);
  restored.Restore(first_half.Snapshot());
  ExpectResultMatchesRunState(restored);
  for (size_t i = half; i < data.size(); ++i) restored.Feed(data[i]);
  ExpectBitIdentical(feed_engine.Result(), restored.Result());

  EXPECT_GT(feed_engine.drifts(), 0u);
  ExpectResultMatchesRunState(feed_engine);
  ExpectResultMatchesRunState(split_engine);
  ExpectResultMatchesRunState(restored);
}

// ------------------------------------------- (b) delayed-label semantics

// With a stateless classifier, delaying every label by k predictions (in
// arrival order) reproduces the exact detector state and result of the
// immediate-label run: the decoupled path itself introduces no drift in
// behavior — any difference under a *learning* classifier is purely model
// staleness, not engine state corruption.
TEST(MonitorEngineTest, DelayedLabelsInArrivalOrderMatchImmediate) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  PrequentialConfig cfg = ShortConfig();

  BuiltStream built = BuildStream(*spec, options);
  std::vector<Instance> data = Take(built.stream.get(), cfg.max_instances);

  for (size_t delay : {0u, 1u, 7u, 64u}) {
    SCOPED_TRACE("delay=" + std::to_string(delay));
    FrozenClassifier clf_now(built.stream->schema());
    Ddm det_now;
    MonitorEngine now(built.stream->schema(), &clf_now, &det_now, cfg);
    for (const Instance& inst : data) now.Feed(inst);

    FrozenClassifier clf_late(built.stream->schema());
    Ddm det_late;
    MonitorEngine late(built.stream->schema(), &clf_late, &det_late, cfg,
                       EngineHooks{}, /*pending_capacity=*/delay + 1);
    std::deque<std::pair<uint64_t, int>> queue;  // (id, true label)
    for (const Instance& inst : data) {
      MonitorEngine::Ticket t = late.Predict(inst.features, inst.weight);
      queue.emplace_back(t.id, inst.label);
      if (queue.size() > delay) {
        EXPECT_EQ(late.Label(queue.front().first, queue.front().second),
                  LabelOutcome::kApplied);
        queue.pop_front();
      }
    }
    while (!queue.empty()) {  // Drain the tail.
      EXPECT_EQ(late.Label(queue.front().first, queue.front().second),
                LabelOutcome::kApplied);
      queue.pop_front();
    }
    ExpectBitIdentical(now.Result(), late.Result());
    EXPECT_EQ(late.last_detector_state(), now.last_detector_state());
    EXPECT_EQ(late.evicted(), 0u);
  }
}

// Out-of-order labels: every prediction still completes exactly once and
// the run accounts for every instance.
TEST(MonitorEngineTest, OutOfOrderLabelsAllComplete) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  PrequentialConfig cfg = ShortConfig();
  cfg.max_instances = 600;

  BuiltStream built = BuildStream(*spec, options);
  std::vector<Instance> data = Take(built.stream.get(), cfg.max_instances);
  GaussianNaiveBayes clf(built.stream->schema());
  MonitorEngine engine(built.stream->schema(), &clf, nullptr, cfg);

  // Predict in batches of 4, label each batch in reverse.
  std::vector<std::pair<uint64_t, int>> batch;
  for (const Instance& inst : data) {
    MonitorEngine::Ticket t = engine.Predict(inst.features, inst.weight);
    batch.emplace_back(t.id, inst.label);
    if (batch.size() == 4) {
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        EXPECT_EQ(engine.Label(it->first, it->second), LabelOutcome::kApplied);
      }
      batch.clear();
    }
  }
  PrequentialResult r = engine.Result();
  EXPECT_EQ(r.instances, 600u);
  EXPECT_EQ(engine.pending(), 0u);
  uint64_t total = 0;
  for (uint64_t c : r.class_counts) total += c;
  EXPECT_EQ(total, 600u);
}

// --------------------------------------------- (c) bounded pending buffer

TEST(MonitorEngineTest, EvictionIsCountedOldestFirstAndNeverOOBs) {
  StreamSchema schema(4, 3, "synthetic");
  FrozenClassifier clf(schema);
  PrequentialConfig cfg = ShortConfig();
  MonitorEngine engine(schema, &clf, nullptr, cfg, EngineHooks{},
                       /*pending_capacity=*/8);

  std::vector<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    MonitorEngine::Ticket t =
        engine.Predict({static_cast<double>(i), 0.0, 0.0, 0.0});
    ids.push_back(t.id);
    EXPECT_LE(engine.pending(), 8u);
  }
  // 100 predictions into a buffer of 8: 92 evicted, oldest first.
  EXPECT_EQ(engine.evicted(), 92u);
  EXPECT_EQ(engine.pending(), 8u);

  // Labels for evicted ids are unknown (never applied, counted) ...
  EXPECT_EQ(engine.Label(ids[0], 1), LabelOutcome::kUnknown);
  EXPECT_EQ(engine.Label(ids[91], 1), LabelOutcome::kUnknown);
  // ... as are ids never issued.
  EXPECT_EQ(engine.Label(999999, 1), LabelOutcome::kUnknown);
  EXPECT_EQ(engine.unmatched_labels(), 3u);
  EXPECT_EQ(engine.position(), 0u);  // Nothing completed.

  // The 8 survivors all complete.
  for (size_t i = 92; i < 100; ++i) {
    EXPECT_EQ(engine.Label(ids[i], static_cast<int>(i % 3)),
              LabelOutcome::kApplied);
  }
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.position(), 8u);
  // Double-labelling a completed prediction is unknown, not a crash.
  EXPECT_EQ(engine.Label(ids[99], 1), LabelOutcome::kUnknown);
}

TEST(MonitorEngineTest, CapacityIsClampedToOne) {
  StreamSchema schema(2, 2, "synthetic");
  FrozenClassifier clf(schema);
  MonitorEngine engine(schema, &clf, nullptr, ShortConfig(), EngineHooks{},
                       /*pending_capacity=*/0);
  engine.Predict({0.0, 0.0});
  engine.Predict({1.0, 0.0});
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(engine.evicted(), 1u);
}

// ------------------------------------------------- (d) batch push surface

// FeedBatch in chunks (including an empty one) is the per-instance Feed
// sequence, bit for bit — the batch entry changes call granularity only.
TEST(MonitorEngineTest, FeedBatchIsBitIdenticalToFeed) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  PrequentialConfig cfg = ShortConfig();

  BuiltStream built = BuildStream(*spec, options);
  std::vector<Instance> data = Take(built.stream.get(), cfg.max_instances);

  GaussianNaiveBayes clf_one(built.stream->schema());
  Ddm det_one;
  MonitorEngine one(built.stream->schema(), &clf_one, &det_one, cfg);
  for (const Instance& inst : data) one.Feed(inst);

  GaussianNaiveBayes clf_batch(built.stream->schema());
  Ddm det_batch;
  MonitorEngine batched(built.stream->schema(), &clf_batch, &det_batch, cfg);
  size_t i = 0;
  for (size_t chunk : {1u, 7u, 0u, 64u, 256u}) {
    const size_t end = std::min(data.size(), i + chunk);
    batched.FeedBatch({data.begin() + static_cast<long>(i),
                       data.begin() + static_cast<long>(end)});
    i = end;
  }
  batched.FeedBatch({data.begin() + static_cast<long>(i), data.end()});
  ExpectBitIdentical(one.Result(), batched.Result());
}

// PredictBatch + LabelBatch is the split Predict/Label cycle, bit for
// bit, ticket ids and outcomes included.
TEST(MonitorEngineTest, BatchServingCycleMatchesSplit) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  PrequentialConfig cfg = ShortConfig();

  BuiltStream built = BuildStream(*spec, options);
  std::vector<Instance> data = Take(built.stream.get(), cfg.max_instances);

  constexpr size_t kChunk = 37;  // Deliberately not a divisor of the run.

  // Per-instance reference with the SAME phasing as the batch API: all
  // predicts of a chunk land before its labels (Label trains the
  // classifier, so phasing is semantically load-bearing, not cosmetic).
  GaussianNaiveBayes clf_split(built.stream->schema());
  Fhddm det_split;
  MonitorEngine split(built.stream->schema(), &clf_split, &det_split, cfg);
  std::vector<uint64_t> split_ids;
  for (size_t at = 0; at < data.size(); at += kChunk) {
    const size_t end = std::min(data.size(), at + kChunk);
    for (size_t j = at; j < end; ++j) {
      split_ids.push_back(split.Predict(data[j].features, data[j].weight).id);
    }
    for (size_t j = at; j < end; ++j) {
      ASSERT_EQ(split.Label(split_ids[j], data[j].label),
                LabelOutcome::kApplied);
    }
  }

  GaussianNaiveBayes clf_batch(built.stream->schema());
  Fhddm det_batch;
  MonitorEngine batched(built.stream->schema(), &clf_batch, &det_batch, cfg);
  std::vector<MonitorEngine::Ticket> tickets;
  std::vector<LabelRequest> labels;
  std::vector<LabelOutcome> outcomes;
  size_t seen = 0;
  for (size_t at = 0; at < data.size(); at += kChunk) {
    const size_t end = std::min(data.size(), at + kChunk);
    const std::vector<Instance> chunk(data.begin() + static_cast<long>(at),
                                      data.begin() + static_cast<long>(end));
    batched.PredictBatch(chunk, &tickets);
    ASSERT_EQ(tickets.size(), chunk.size());
    labels.resize(chunk.size());
    for (size_t j = 0; j < chunk.size(); ++j) {
      EXPECT_EQ(tickets[j].id, split_ids[seen + j]);
      labels[j].id = tickets[j].id;
      labels[j].label = chunk[j].label;
    }
    batched.LabelBatch(labels, &outcomes);
    ASSERT_EQ(outcomes.size(), chunk.size());
    for (LabelOutcome outcome : outcomes) {
      EXPECT_EQ(outcome, LabelOutcome::kApplied);
    }
    seen = end;
  }
  ExpectBitIdentical(split.Result(), batched.Result());
  EXPECT_EQ(batched.pending(), 0u);
  EXPECT_EQ(batched.evicted(), 0u);
}

// Eviction and unmatched-label accounting under LabelBatch with
// out-of-order and duplicate ids must match the per-instance Label path
// exactly: same counters, same per-request outcomes, same result.
TEST(MonitorEngineTest, LabelBatchAccountingMatchesPerInstance) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  PrequentialConfig cfg = ShortConfig();
  cfg.max_instances = 200;

  BuiltStream built = BuildStream(*spec, options);
  std::vector<Instance> data = Take(built.stream.get(), cfg.max_instances);

  // Twin engines with a tight ring: predictions overflow it, so some of
  // the labels below address evicted predictions.
  GaussianNaiveBayes clf_one(built.stream->schema());
  MonitorEngine one(built.stream->schema(), &clf_one, nullptr, cfg,
                    EngineHooks{}, /*pending_capacity=*/8);
  GaussianNaiveBayes clf_batch(built.stream->schema());
  MonitorEngine batched(built.stream->schema(), &clf_batch, nullptr, cfg,
                        EngineHooks{}, /*pending_capacity=*/8);

  std::vector<uint64_t> ids_one, ids_batch;
  std::vector<MonitorEngine::Ticket> tickets;
  constexpr size_t kChunk = 12;  // > capacity: every chunk evicts.
  for (size_t at = 0; at < data.size(); at += kChunk) {
    const size_t end = std::min(data.size(), at + kChunk);
    const std::vector<Instance> chunk(data.begin() + static_cast<long>(at),
                                      data.begin() + static_cast<long>(end));
    for (const Instance& inst : chunk) {
      ids_one.push_back(one.Predict(inst.features, inst.weight).id);
    }
    batched.PredictBatch(chunk, &tickets);
    for (const MonitorEngine::Ticket& t : tickets) ids_batch.push_back(t.id);

    // Label the chunk in reverse (out of order), then re-send the last
    // two ids (duplicates -> already completed) and one never-issued id.
    std::vector<LabelRequest> requests;
    for (size_t j = end; j-- > at;) {
      requests.push_back({ids_batch[j], chunk[j - at].label});
    }
    requests.push_back({ids_batch[end - 1], chunk[end - 1 - at].label});
    requests.push_back({ids_batch[at], chunk[0].label});
    requests.push_back({999999999u, 0});

    std::vector<LabelOutcome> one_outcomes;
    for (const LabelRequest& req : requests) {
      // Same ticket ids on both engines: reuse the batch-built requests.
      one_outcomes.push_back(one.Label(req.id, req.label));
    }
    std::vector<LabelOutcome> batch_outcomes;
    batched.LabelBatch(requests, &batch_outcomes);
    ASSERT_EQ(batch_outcomes, one_outcomes);

    ASSERT_EQ(batched.pending(), one.pending());
    ASSERT_EQ(batched.evicted(), one.evicted());
    ASSERT_EQ(batched.unmatched_labels(), one.unmatched_labels());
  }
  EXPECT_EQ(ids_one, ids_batch);
  EXPECT_GT(batched.evicted(), 0u);
  EXPECT_GT(batched.unmatched_labels(), 0u);
  ExpectBitIdentical(one.Result(), batched.Result());
}

// -------------------------------------------------- events and snapshots

TEST(MonitorEngineTest, DriftEventsCarryDriftedClasses) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  ScriptedLocalDetector det;
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;

  std::vector<DriftAlarm> seen;
  std::vector<MetricsSnapshot> metric_events;
  EngineHooks hooks;
  hooks.on_drift = [&](const DriftAlarm& a, const MetricsSnapshot& m) {
    seen.push_back(a);
    EXPECT_EQ(m.position, a.position);
    EXPECT_GT(m.window_size, 0u);
  };
  hooks.on_metrics = [&](const MetricsSnapshot& m) {
    metric_events.push_back(m);
  };
  MonitorEngine engine(schema, &clf, &det, cfg, std::move(hooks));

  for (int i = 0; i < 1500; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  PrequentialResult r = engine.Result();
  // The detector fires on its 400th and 900th Observe() call; the engine
  // feeds it warmup data too, so those land at stream positions 399/899.
  ASSERT_EQ(r.drift_events.size(), 2u);
  EXPECT_EQ(r.drift_events[0].position, 399u);
  EXPECT_EQ(r.drift_events[1].position, 899u);
  EXPECT_EQ(r.drift_events[0].drifted_classes, (std::vector<int>{1, 2}));
  EXPECT_EQ(r.drift_positions,
            (std::vector<uint64_t>{399u, 899u}));
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(r.drift_events, seen);

  // on_metrics fired exactly at the sampled positions of the series.
  ASSERT_EQ(metric_events.size(), r.pmauc_series.size());
  for (size_t i = 0; i < metric_events.size(); ++i) {
    EXPECT_EQ(metric_events[i].position, r.pmauc_series[i].first);
    EXPECT_EQ(metric_events[i].pmauc, r.pmauc_series[i].second);
  }
}

// ---------------------------------------------------- hook reentrancy

// Regression for the callback-reentrancy hole: hooks fire mid-step (the
// triggering instance is only half applied), so a hook calling back into
// the engine's mutating surface used to silently interleave two
// prequential steps. The engine now rejects it loudly; read-only
// accessors stay legal from hooks.
TEST(MonitorEngineTest, HooksMustNotReenterTheMutatingSurface) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;

  int rejected = 0;
  int snapshots_from_hook = 0;
  EngineHooks hooks;
  MonitorEngine* self = nullptr;
  hooks.on_metrics = [&](const MetricsSnapshot&) {
    // Every mutating entry point throws std::logic_error naming the
    // violation...
    const Instance instance({1.0, 0.0, 0.0}, 1);
    try {
      self->Feed(instance);
      ADD_FAILURE() << "reentrant Feed() was not rejected";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("reentrant"), std::string::npos);
      ++rejected;
    }
    EXPECT_THROW(self->Predict({1.0, 0.0, 0.0}), std::logic_error);
    EXPECT_THROW(self->Label(1, 2), std::logic_error);
    EXPECT_THROW(self->Restore(EngineSnapshot{}), std::logic_error);
    // ... while the read-only surface stays usable for observability.
    (void)self->position();
    (void)self->Result();
    (void)self->Snapshot();
    ++snapshots_from_hook;
  };
  MonitorEngine engine(schema, &clf, nullptr, cfg, std::move(hooks));
  self = &engine;

  for (int i = 0; i < 700; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(rejected, snapshots_from_hook);
  // The guarded hook never corrupted the run: every push is accounted.
  EXPECT_EQ(engine.position(), 700u);
}

// A hook that lets the reentrancy error escape fails the outer push, but
// the guard flag unwinds with it — the engine is not bricked into
// rejecting every later call.
TEST(MonitorEngineTest, HookExceptionUnwindsTheReentrancyGuard) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  ScriptedLocalDetector det;
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;

  bool armed = true;
  EngineHooks hooks;
  MonitorEngine* self = nullptr;
  hooks.on_drift = [&](const DriftAlarm&, const MetricsSnapshot&) {
    if (armed) self->Feed(Instance({0.0, 0.0, 0.0}, 0));  // Throws.
  };
  MonitorEngine engine(schema, &clf, &det, cfg, std::move(hooks));
  self = &engine;

  // The detector fires on its 400th Observe (position 399): that Feed
  // propagates the hook's reentrancy error.
  int i = 0;
  EXPECT_THROW(
      {
        for (; i < 700; ++i) {
          engine.Feed(
              Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
        }
      },
      std::logic_error);
  EXPECT_EQ(i, 399);
  // Disarmed, the engine keeps serving.
  armed = false;
  const uint64_t before = engine.position();
  engine.Feed(Instance({1.0, 0.0, 0.0}, 1));
  EXPECT_EQ(engine.position(), before + 1);
}

TEST(MonitorEngineTest, SnapshotCapturesRunState) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  ScriptedLocalDetector det;
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;
  MonitorEngine engine(schema, &clf, &det, cfg);

  for (int i = 0; i < 700; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  engine.Predict({1.0, 2.0, 3.0});

  EngineSnapshot s = engine.Snapshot();
  EXPECT_EQ(s.position, 700u);
  EXPECT_EQ(s.pending, 1u);
  EXPECT_EQ(s.evicted, 0u);
  ASSERT_EQ(s.drift_log.size(), 1u);
  EXPECT_EQ(s.drift_log[0].position, 399u);
  ASSERT_EQ(s.class_counts.size(), 4u);
  uint64_t total = 0;
  for (uint64_t c : s.class_counts) total += c;
  EXPECT_EQ(total, 700u);
  // 600 measured instances into a 400-wide window.
  EXPECT_EQ(s.window.size(), 400u);
  EXPECT_GT(s.metric_samples, 0u);
}

// Regression for the Snapshot() gaps: evicted/unmatched counters, the
// pending buffer contents and the detector state used to be absent or
// read-only, so a restored engine could not serve its predecessor's
// in-flight predictions. A restored engine's own Snapshot() must now
// reproduce the source snapshot exactly, detector state included.
TEST(EngineSnapshotTest, RestoredEngineSnapshotRoundTripsExactly) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  WarningRegionDetector det;
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;

  MonitorEngine engine(schema, &clf, &det, cfg, EngineHooks{},
                       /*pending_capacity=*/4);
  // 620 completed instances: the detector has seen 620 observations and is
  // inside its second warning region [600, 650) — the latch is armed.
  for (int i = 0; i < 620; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  ASSERT_EQ(engine.last_detector_state(), DetectorState::kWarning);
  // Park predictions past capacity (3 evictions) and throw in unmatched
  // labels, so every counter is non-trivial.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 7; ++i) {
    ids.push_back(engine.Predict({static_cast<double>(i), 0.0, 0.0}).id);
  }
  EXPECT_EQ(engine.Label(999999, 1), LabelOutcome::kUnknown);
  EXPECT_EQ(engine.Label(ids[0], 1), LabelOutcome::kUnknown);  // Evicted.
  EXPECT_EQ(engine.evicted(), 3u);
  EXPECT_EQ(engine.unmatched_labels(), 2u);

  EngineSnapshot s1 = engine.Snapshot();
  EXPECT_EQ(s1.last_detector_state, DetectorState::kWarning);
  EXPECT_EQ(s1.pending_predictions.size(), 4u);

  // The stubs are value types: a copy carries their complete state.
  FrozenClassifier clf2(clf);
  WarningRegionDetector det2(det);
  MonitorEngine restored(schema, &clf2, &det2, cfg, EngineHooks{},
                         /*pending_capacity=*/4);
  restored.Restore(s1);
  ExpectSnapshotEq(s1, restored.Snapshot());
  EXPECT_EQ(restored.last_detector_state(), DetectorState::kWarning);

  // The predecessor's in-flight predictions are servable.
  EXPECT_EQ(restored.Label(ids[4], 2), LabelOutcome::kApplied);
  EXPECT_EQ(restored.position(), 621u);
}

TEST(EngineSnapshotTest, RestoreRejectsInconsistentSnapshots) {
  StreamSchema schema(3, 4, "synthetic");
  FrozenClassifier clf(schema);
  PrequentialConfig cfg = ShortConfig();
  MonitorEngine engine(schema, &clf, nullptr, cfg);
  for (int i = 0; i < 500; ++i) {
    engine.Feed(Instance({static_cast<double>(i % 5), 0.0, 0.0}, i % 4));
  }
  const EngineSnapshot good = engine.Snapshot();
  ASSERT_FALSE(good.window.empty());

  // Window wider than the configured metric window.
  EngineSnapshot bad = good;
  bad.window.resize(static_cast<size_t>(cfg.metric_window) + 1,
                    bad.window.front());
  EXPECT_THROW(engine.Restore(bad), std::invalid_argument);
  // Class-count vector not matching the schema.
  bad = good;
  bad.class_counts.push_back(0);
  EXPECT_THROW(engine.Restore(bad), std::invalid_argument);
  // Pending ids out of order / colliding.
  bad = good;
  bad.pending_predictions.resize(2);
  bad.pending_predictions[0].id = 7;
  bad.pending_predictions[1].id = 7;
  bad.next_id = 10;
  EXPECT_THROW(engine.Restore(bad), std::invalid_argument);
  // More pending predictions than the target engine's capacity: accepting
  // them would permanently break the bounded-buffer contract (Predict()
  // evicts one entry per overflow, so an oversized restore never drains).
  bad = good;
  bad.pending_predictions.resize(3);
  for (size_t i = 0; i < 3; ++i) bad.pending_predictions[i].id = i + 1;
  bad.next_id = 10;
  MonitorEngine tiny(schema, &clf, nullptr, cfg, EngineHooks{},
                     /*pending_capacity=*/2);
  EXPECT_THROW(tiny.Restore(bad), std::invalid_argument);
  // The good snapshot still restores after the failed attempts.
  EXPECT_NO_THROW(engine.Restore(good));
  ExpectSnapshotEq(good, engine.Snapshot());
}

TEST(MonitorEngineTest, NullClassifierIsRejected) {
  StreamSchema schema(2, 2, "synthetic");
  EXPECT_THROW(MonitorEngine(schema, nullptr, nullptr, ShortConfig()),
               std::invalid_argument);
}

// ------------------------------------- one-shard serving and the facade

// A one-shard ShardedMonitor is the single-stream serving surface: mixed
// Feed and Predict/Label pushes give the numbers of the same composition
// run offline through api::Experiment.
TEST(OneShardServingTest, MatchesExperimentEndToEnd) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  BuiltStream built = BuildStream(*spec, options);
  const StreamSchema& schema = built.stream->schema();

  PrequentialConfig cfg = ShortConfig();
  int drift_callbacks = 0;
  auto monitor = api::ShardedMonitorBuilder()
                     .Schema(schema)
                     .Classifier("cs-ptree")
                     .Detector("FHDDM")
                     .Seed(42)
                     .Protocol(cfg)
                     .PendingCapacity(16)
                     .OnDrift([&](int shard, const DriftAlarm&,
                                  const MetricsSnapshot&) {
                       EXPECT_EQ(shard, 0);
                       ++drift_callbacks;
                     })
                     .Build();

  PrequentialResult offline = api::Experiment()
                                  .Stream(*spec)
                                  .Options(options)
                                  .Classifier("cs-ptree")
                                  .Detector("FHDDM")
                                  .Prequential(cfg)
                                  .Run();

  for (uint64_t i = 0; i < cfg.max_instances; ++i) {
    Instance inst = built.stream->Next();
    if (i % 2 == 0) {
      monitor.Feed(/*key=*/0, inst);
    } else {
      const api::ShardedMonitor::Prediction p =
          monitor.Predict(/*key=*/0, inst.features, inst.weight);
      EXPECT_EQ(static_cast<size_t>(schema.num_classes), p.scores.size());
      EXPECT_TRUE(monitor.Label(p.shard, p.id, inst.label));
    }
  }
  ExpectBitIdentical(offline, monitor.Result());
  EXPECT_EQ(drift_callbacks, static_cast<int>(monitor.Result().drifts));
}

// The facade adds no arithmetic: on the paper's configuration (cs-ptree +
// RBM-IM on RBF10), a Predict/delayed-Label loop with dropped labels and a
// pending buffer small enough to evict gives, call for call, the outcomes
// of a bare engine on identically seeded components.
TEST(ApiMonitorTest, FacadeIsBitIdenticalToABareEngine) {
  constexpr size_t kInstances = 20000;
  constexpr size_t kDelay = 32;
  constexpr double kDropShare = 0.02;
  constexpr size_t kCapacity = 128;
  constexpr uint64_t kSeed = 42;
  const StreamSpec& spec = *FindStreamSpec("RBF10");
  BuildOptions options;
  options.seed = kSeed;
  options.scale =
      static_cast<double>(kInstances) / static_cast<double>(spec.full_length);
  BuiltStream built = BuildStream(spec, options);
  const StreamSchema schema = built.stream->schema();
  const std::vector<Instance> data = Take(built.stream.get(), kInstances);
  Rng rng(7);
  std::vector<uint8_t> dropped(kInstances);
  for (uint8_t& d : dropped) d = rng.Bernoulli(kDropShare) ? 1 : 0;

  api::Monitor facade = api::MonitorBuilder()
                            .Schema(schema)
                            .Classifier("cs-ptree")
                            .Detector("RBM-IM")
                            .Seed(kSeed)
                            .PendingCapacity(kCapacity)
                            .Build();
  // The builder's default protocol: the paper's, timing off.
  PrequentialConfig paper;
  paper.metric_window = 1000;
  paper.eval_interval = 250;
  paper.warmup = 500;
  paper.timing = false;
  test_util::OwnedEngine bare(schema, "cs-ptree", "RBM-IM", kSeed, paper,
                              kCapacity);

  std::vector<uint64_t> facade_ids(kInstances), bare_ids(kInstances);
  auto deliver = [&](size_t j) {
    if (dropped[j]) return;
    const bool applied = facade.Label(facade_ids[j], data[j].label);
    EXPECT_EQ(applied, bare.engine.Label(bare_ids[j], data[j].label) ==
                           LabelOutcome::kApplied)
        << "label of instance " << j;
  };
  for (size_t t = 0; t < kInstances; ++t) {
    const api::Monitor::Prediction p =
        facade.Predict(data[t].features, data[t].weight);
    const MonitorEngine::Ticket q =
        bare.engine.Predict(data[t].features, data[t].weight);
    ASSERT_EQ(p.shard, 0);
    ASSERT_EQ(p.id, q.id) << "instance " << t;
    ASSERT_EQ(p.label, q.predicted) << "instance " << t;
    ASSERT_EQ(p.scores, q.scores) << "instance " << t;
    facade_ids[t] = p.id;
    bare_ids[t] = q.id;
    if (t >= kDelay) deliver(t - kDelay);
  }
  for (size_t j = kInstances - kDelay; j < kInstances; ++j) deliver(j);

  const PrequentialResult result = bare.engine.Result();
  ExpectBitIdentical(facade.Result(), result);
  EXPECT_EQ(facade.position(), bare.engine.position());
  EXPECT_EQ(facade.pending(), bare.engine.pending());
  EXPECT_EQ(facade.evicted(), bare.engine.evicted());
  EXPECT_EQ(facade.unmatched_labels(), bare.engine.unmatched_labels());
  // The loop exercised what it is meant to: eviction and RBM-IM alarms.
  EXPECT_GT(bare.engine.evicted(), 0u);
  EXPECT_GT(result.drifts, 0u);
}

// ------------------------------------------------------------- Admission

template <typename Component>
std::string Saved(const Component& component) {
  io::Writer w;
  component.SaveState(w);
  return w.data();
}

// Every kind of bad row is refused before the engine, its classifier or
// its detector changes: the snapshot and both components' SaveState bytes
// stay as they were, and the parked prediction can still be labelled.
TEST(AdmissionTest, EngineRefusesBadRowsBeforeAnyChange) {
  auto stream = test_util::MakeRbfDriftStream(100000, 3);
  test_util::OwnedEngine owned(stream->schema(), "naive-bayes", "RBM-IM", 5,
                               ShortConfig(), 16);
  MonitorEngine& engine = owned.engine;
  for (int i = 0; i < 420; ++i) engine.Feed(stream->Next());
  const Instance good = stream->Next();
  const MonitorEngine::Ticket ticket = engine.Predict(good.features);
  const EngineSnapshot before = engine.Snapshot();
  const std::string classifier_before = Saved(*owned.classifier);
  const std::string detector_before = Saved(*owned.detector);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto with_feature = [&good](size_t i, double v) {
    Instance row = good;
    row.features[i] = v;
    return row;
  };
  auto with_weight = [&good](double w) {
    Instance row = good;
    row.weight = w;
    return row;
  };
  Instance wide = good;
  wide.features.push_back(0.5);
  Instance narrow = good;
  narrow.features.pop_back();
  for (const Instance& row : {wide, narrow}) {
    ExpectRefused(RejectReason::kWidth, [&] { engine.Feed(row); });
    ExpectRefused(RejectReason::kWidth, [&] { engine.Predict(row.features); });
  }
  for (const Instance& row :
       {with_feature(0, nan), with_feature(2, inf), with_feature(5, -inf)}) {
    ExpectRefused(RejectReason::kFeature, [&] { engine.Feed(row); });
    ExpectRefused(RejectReason::kFeature,
                  [&] { engine.Predict(row.features); });
  }
  for (double w : {0.0, -1.0, nan, inf}) {
    ExpectRefused(RejectReason::kWeight,
                  [&] { engine.Feed(with_weight(w)); });
    ExpectRefused(RejectReason::kWeight,
                  [&] { engine.Predict(good.features, w); });
  }
  for (int label : {-1, 3}) {
    Instance row = good;
    row.label = label;
    ExpectRefused(RejectReason::kLabel, [&] { engine.Feed(row); });
    ExpectRefused(RejectReason::kLabel,
                  [&] { engine.Label(ticket.id, label); });
  }

  ExpectSnapshotEq(engine.Snapshot(), before);
  EXPECT_EQ(Saved(*owned.classifier), classifier_before);
  EXPECT_EQ(Saved(*owned.detector), detector_before);
  EXPECT_EQ(engine.Label(ticket.id, good.label), LabelOutcome::kApplied);
}

// Regressions for the two rows admission exists for. Fed straight to the
// components, a NaN feature enters RBM-IM's min-max bounds and every
// reconstruction error after it, and a wide row reaches naive-bayes, which
// reads the schema's width of it and drops the rest without a word. At the
// engine both are refused, so a run with the bad row pushed mid-stream is
// bit-identical to one that never saw it, drift alarms included.
TEST(AdmissionTest, RefusedRowsLeaveTheRunAsIfNeverPushed) {
  const StreamSpec* spec = FindStreamSpec("RBF10");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.002;  // 4000 instances, two drifts RBM-IM alarms on.
  options.seed = 37;
  auto make_stream = [&] { return BuildStream(*spec, options).stream; };
  const StreamSchema schema = make_stream()->schema();
  const PrequentialConfig config = ShortConfig();
  struct Case {
    const char* detector;
    RejectReason reason;
  };
  for (const Case& c : {Case{"RBM-IM", RejectReason::kFeature},
                        Case{"", RejectReason::kWidth}}) {
    SCOPED_TRACE(c.detector);
    test_util::OwnedEngine pushed(schema, "naive-bayes", c.detector, 9,
                                  config, 16);
    test_util::OwnedEngine oracle(schema, "naive-bayes", c.detector, 9,
                                  config, 16);
    auto a = make_stream();
    auto b = make_stream();
    for (int i = 0; i < 4000; ++i) {
      const Instance row = a->Next();
      oracle.engine.Feed(b->Next());
      if (i == 1200) {
        Instance bad = row;
        if (c.reason == RejectReason::kFeature) {
          bad.features[1] = std::numeric_limits<double>::quiet_NaN();
        } else {
          bad.features.push_back(1e6);
        }
        ExpectRefused(c.reason, [&] { pushed.engine.Feed(bad); });
      }
      pushed.engine.Feed(row);
    }
    ExpectBitIdentical(pushed.engine.Result(), oracle.engine.Result());
    EXPECT_EQ(Saved(*pushed.classifier), Saved(*oracle.classifier));
    if (c.detector[0] != '\0') {
      EXPECT_GT(pushed.engine.drifts(), 0u);
      EXPECT_EQ(Saved(*pushed.detector), Saved(*oracle.detector));
    }
  }
}

}  // namespace
}  // namespace ccd
