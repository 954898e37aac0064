#ifndef CCD_TESTS_SIM_HARNESS_H_
#define CCD_TESTS_SIM_HARNESS_H_

// Fault-injection harness over the deterministic scheduler
// (runtime/sim.h): a recording wrapper capturing the linearization a
// simulated run actually produced, a fault plane that drops/duplicates
// labels from the scheduler's seed stream, and a history checker that
// replays the recorded linearization against per-shard sequential
// MonitorEngine oracles — router_test's differential oracle, generalized
// to histories containing reshard, drain, SHIP/LOAD, persist and crash
// events.
//
// Soundness: the scheduler yields only *before* lock acquisitions (see
// the atomicity model in runtime/sim.h), so everything a RecordingMonitor
// method does after its inner ShardedMonitor call returns — reading the
// tracked table width, appending to the history — happens in the same
// atomic step as the tail of that call. The recorded order therefore IS
// the order the shard engines observed their operations in, and a
// per-shard sequential replay is a valid oracle. The same argument makes
// the plain (unlocked) history vector and width field safe: only one
// task runs at a time, and the scheduler's own mutex orders the handoffs
// (TSan agrees).
//
// Outside a simulation the wrapper degrades gracefully — sim::Chance on
// a zero fault plane returns false without drawing — so single-threaded
// tests (router_test's differential suite) can use the same checker.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/sharded_monitor.h"
#include "eval/engine.h"
#include "eval/prequential.h"
#include "runtime/router.h"
#include "runtime/sim.h"
#include "testing_util.h"

namespace ccd {
namespace test_util {

// ----------------------------------------------------- serving config

/// One description both the live ShardedMonitor and the sequential
/// per-shard spec engines are built from — the checker is only sound
/// when the two sides agree on every knob.
struct SimServingConfig {
  int num_features = 6;  ///< MakeRbfDriftStream's schema.
  int num_classes = 3;
  std::string classifier = "naive-bayes";
  std::string detector = "DDM";  ///< Empty string = NoDetector().
  uint64_t seed = 100;
  PrequentialConfig protocol = ShortConfig();
  size_t pending_capacity = 1024;
  int shards = 4;
};

/// The live system under test. Returned as a prvalue (ShardedMonitor is
/// neither copyable nor movable); bind with `auto monitor = ...`.
inline api::ShardedMonitor MakeServing(const SimServingConfig& config) {
  api::ShardedMonitorBuilder builder;
  builder.Schema(config.num_features, config.num_classes)
      .Classifier(config.classifier)
      .Seed(config.seed)
      .Protocol(config.protocol)
      .PendingCapacity(config.pending_capacity)
      .Shards(config.shards);
  if (config.detector.empty()) {
    builder.NoDetector();
  } else {
    builder.Detector(config.detector);
  }
  return builder.Build();
}

/// The sequential-spec oracle for shard `shard_index`: a bare engine on
/// identical components, seeded `seed + shard_index` (ShardedMonitor's
/// documented per-shard seeding contract).
inline std::unique_ptr<OwnedEngine> MakeSpecShard(
    const SimServingConfig& config, int shard_index) {
  return std::make_unique<OwnedEngine>(
      StreamSchema(config.num_features, config.num_classes),
      config.classifier, config.detector,
      config.seed + static_cast<uint64_t>(shard_index), config.protocol,
      config.pending_capacity);
}

// ----------------------------------------------------------- history

enum class SimOpKind {
  kPredict,       ///< Keyed Predict; outcome = ticket (shard, id, label, scores).
  kFeed,          ///< Keyed Feed (immediate label path).
  kLabel,         ///< Label(shard, id, truth); outcome = applied flag.
  kAddShard,      ///< Table grew; outcome = new shard index.
  kDrainShard,    ///< Shard state migrated in place — spec no-op.
  kShipShard,     ///< SHIP: shard state captured, intake stopped. Marks
                  ///< the cut a later kShipRestore rolls the shard to.
  kShipRestore,   ///< LOAD of the shipped bytes: the shard is exactly its
                  ///< kShipShard state again — labels that drained into
                  ///< the shipped shard inside the window are discarded.
  kPersist,       ///< Durable cut: marks the prefix a crash rolls back to.
  kCrashRestart,  ///< Process death + Open(): history after the last
                  ///< kPersist never happened.
};

inline const char* SimOpKindName(SimOpKind kind) {
  switch (kind) {
    case SimOpKind::kPredict: return "Predict";
    case SimOpKind::kFeed: return "Feed";
    case SimOpKind::kLabel: return "Label";
    case SimOpKind::kAddShard: return "AddShard";
    case SimOpKind::kDrainShard: return "DrainShard";
    case SimOpKind::kShipShard: return "ShipShard";
    case SimOpKind::kShipRestore: return "ShipRestore";
    case SimOpKind::kPersist: return "Persist";
    case SimOpKind::kCrashRestart: return "CrashRestart";
  }
  return "?";
}

/// One recorded operation: its inputs plus the outcome the live monitor
/// handed back. The checker replays the inputs on the spec and demands
/// the same outcome.
struct SimOp {
  SimOpKind kind = SimOpKind::kPredict;
  int shard = -1;  ///< Shard the op landed on (ticket or routed).
  uint64_t key = 0;
  std::vector<double> features;  ///< kPredict input.
  double weight = 1.0;
  Instance instance;   ///< kFeed input.
  int true_label = 0;  ///< kLabel input.
  uint64_t id = 0;     ///< kPredict outcome / kLabel target.
  int predicted = 0;   ///< kPredict outcome: argmax label.
  std::vector<double> scores;  ///< kPredict outcome.
  bool applied = false;        ///< kLabel outcome.
  int new_shard = -1;          ///< kAddShard outcome.
};

struct SimHistory {
  std::vector<SimOp> ops;
};

/// Probabilities of the label-plane faults, drawn per Label() call from
/// the scheduler's seed stream. Zero planes never draw, so a
/// fault-free RecordingMonitor works outside a simulation too.
struct FaultPlane {
  double drop_label = 0.0;  ///< Label lost before reaching the monitor.
  double dup_label = 0.0;   ///< Label delivered twice (at-least-once bus).
};

// ------------------------------------------------- recording wrapper

/// Wraps a live ShardedMonitor, forwarding every call and appending the
/// observed (input, outcome) pair to a shared SimHistory. Concurrent use
/// is safe *under a sim Scheduler only* (sim-atomic appends — see the
/// header comment); outside one it is a single-threaded test aid.
class RecordingMonitor {
 public:
  RecordingMonitor(api::ShardedMonitor* live, SimHistory* history,
                   FaultPlane faults = FaultPlane())
      : live_(live), history_(history), faults_(faults),
        width_(live->shards()) {}

  api::ShardedMonitor::Prediction Predict(uint64_t key,
                                          const std::vector<double>& features,
                                          double weight = 1.0) {
    api::ShardedMonitor::Prediction ticket =
        live_->Predict(key, features, weight);
    SimOp op;
    op.kind = SimOpKind::kPredict;
    op.shard = ticket.shard;
    op.key = key;
    op.features = features;
    op.weight = weight;
    op.id = ticket.id;
    op.predicted = ticket.label;
    op.scores = ticket.scores;
    history_->ops.push_back(std::move(op));
    return ticket;
  }

  void Feed(uint64_t key, const Instance& instance) {
    live_->Feed(key, instance);
    SimOp op;
    op.kind = SimOpKind::kFeed;
    // No yield since Feed released its locks, and AddShard needs the
    // exclusive table lock, so `width_` still matches the table Feed
    // routed over.
    op.shard = runtime::Router::KeySlot(key, width_);
    op.key = key;
    op.instance = instance;
    history_->ops.push_back(std::move(op));
  }

  /// Batch forms, recorded after the call returns as one op per element
  /// in batch order, each with the shard it landed on. Per-shard relative
  /// order is batch order, which is all the per-shard spec replay needs;
  /// width_ is current for the same reason as in Feed (the batch held the
  /// table for its whole run). A batch that throws applied nothing and
  /// records nothing.
  ///
  /// Sound only while no other task pushes concurrently: a batch takes
  /// its shards' locks one after another, so another push could land on
  /// a shard the batch already left and record before the batch does.
  /// Reshard ops take the table exclusively and never split a batch.
  void FeedBatch(const std::vector<api::ShardedMonitor::KeyedInstance>& batch) {
    live_->FeedBatch(batch);
    for (const api::ShardedMonitor::KeyedInstance& element : batch) {
      SimOp op;
      op.kind = SimOpKind::kFeed;
      op.shard = runtime::Router::KeySlot(element.key, width_);
      op.key = element.key;
      op.instance = element.instance;
      history_->ops.push_back(std::move(op));
    }
  }

  void PredictBatch(
      const std::vector<api::ShardedMonitor::KeyedInstance>& batch,
      std::vector<api::ShardedMonitor::Prediction>* out) {
    live_->PredictBatch(batch, out);
    for (size_t i = 0; i < batch.size(); ++i) {
      const api::ShardedMonitor::Prediction& ticket = (*out)[i];
      SimOp op;
      op.kind = SimOpKind::kPredict;
      op.shard = ticket.shard;
      op.key = batch[i].key;
      op.features = batch[i].instance.features;
      op.weight = batch[i].instance.weight;
      op.id = ticket.id;
      op.predicted = ticket.label;
      op.scores = ticket.scores;
      history_->ops.push_back(std::move(op));
    }
  }

  /// The fault plane applies per element, as in Label(): a dropped label
  /// is left out of the delivered batch, a duplicated one follows itself.
  void LabelBatch(const std::vector<api::ShardedMonitor::ShardLabel>& batch) {
    std::vector<api::ShardedMonitor::ShardLabel> delivered;
    for (const api::ShardedMonitor::ShardLabel& label : batch) {
      if (runtime::sim::Chance(faults_.drop_label)) {
        ++dropped_labels_;
        continue;
      }
      delivered.push_back(label);
      if (runtime::sim::Chance(faults_.dup_label)) {
        ++duplicated_labels_;
        delivered.push_back(label);
      }
    }
    std::vector<LabelOutcome> outcomes;
    live_->LabelBatch(delivered, &outcomes);
    for (size_t i = 0; i < delivered.size(); ++i) {
      SimOp op;
      op.kind = SimOpKind::kLabel;
      op.shard = delivered[i].shard;
      op.id = delivered[i].id;
      op.true_label = delivered[i].label;
      op.applied = outcomes[i] == LabelOutcome::kApplied;
      history_->ops.push_back(std::move(op));
    }
  }

  /// Label with the fault plane applied: may silently drop the delivery
  /// (returns false — the caller's label never arrived) or deliver it
  /// twice (the duplicate must bounce off exactly-once application).
  bool Label(int shard, uint64_t id, int true_label) {
    if (runtime::sim::Chance(faults_.drop_label)) {
      ++dropped_labels_;
      return false;
    }
    const bool applied = LabelOnce(shard, id, true_label);
    if (runtime::sim::Chance(faults_.dup_label)) {
      ++duplicated_labels_;
      LabelOnce(shard, id, true_label);
    }
    return applied;
  }

  int AddShard() {
    const int index = live_->AddShard();
    width_ = index + 1;
    SimOp op;
    op.kind = SimOpKind::kAddShard;
    op.new_shard = index;
    history_->ops.push_back(std::move(op));
    return index;
  }

  void DrainShard(int shard) {
    live_->DrainShard(shard);
    SimOp op;
    op.kind = SimOpKind::kDrainShard;
    op.shard = shard;
    history_->ops.push_back(std::move(op));
  }

  /// SHIP then LOAD of the same bytes back onto the same shard — the
  /// migration round-trip. Between the two calls the shard is shipped;
  /// with `hold_ticks` > 0 the window is stretched so other tasks
  /// provably run into it (Predict/Feed throw std::logic_error — retry
  /// with PredictRetry below; Label keeps draining into the shipped
  /// shard, and LOAD then discards exactly those window labels — the
  /// checker models that via the kShipShard cut).
  void ShipRestore(int shard, uint64_t hold_ticks = 0) {
    const std::string bytes = live_->ShipShard(shard);
    {
      // No yield since ShipShard released its locks, so this marker sits
      // at the exact cut the shipped bytes captured.
      SimOp op;
      op.kind = SimOpKind::kShipShard;
      op.shard = shard;
      history_->ops.push_back(std::move(op));
    }
    if (hold_ticks > 0) runtime::sim::SleepFor(hold_ticks);
    live_->RestoreShard(shard, bytes);
    SimOp op;
    op.kind = SimOpKind::kShipRestore;
    op.shard = shard;
    history_->ops.push_back(std::move(op));
  }

  void Persist(const std::string& directory) {
    live_->Persist(directory);
    SimOp op;
    op.kind = SimOpKind::kPersist;
    history_->ops.push_back(std::move(op));
  }

  // (The crash plane lives outside the wrapper: the test destroys the
  // live monitor — process death — reopens via ShardedMonitor::Open,
  // appends the event with RecordCrashRestart below, and constructs a
  // fresh wrapper over the reopened monitor.)

  api::ShardedMonitor& live() { return *live_; }
  uint64_t dropped_labels() const { return dropped_labels_; }
  uint64_t duplicated_labels() const { return duplicated_labels_; }

 private:
  bool LabelOnce(int shard, uint64_t id, int true_label) {
    const bool applied = live_->Label(shard, id, true_label);
    SimOp op;
    op.kind = SimOpKind::kLabel;
    op.shard = shard;
    op.id = id;
    op.true_label = true_label;
    op.applied = applied;
    history_->ops.push_back(std::move(op));
    return applied;
  }

  api::ShardedMonitor* live_;
  SimHistory* history_;
  FaultPlane faults_;
  // Sim-atomic (see header comment): updated in AddShard's record step,
  // read in Feed's — never concurrently.
  int width_;
  uint64_t dropped_labels_ = 0;
  uint64_t duplicated_labels_ = 0;
};

/// Marks a process death in the history: the checker discards every
/// state effect after the last kPersist (it never happened, durably)
/// and replays the surviving prefix onto fresh specs.
inline void RecordCrashRestart(SimHistory* history) {
  SimOp op;
  op.kind = SimOpKind::kCrashRestart;
  history->ops.push_back(std::move(op));
}

/// Runs `push` until it stops throwing std::logic_error (a shipped shard),
/// sleeping a few virtual ticks between attempts. Safe for batches too: a
/// push that throws applied nothing. The scheduler's step limit converts a
/// shard that never resumes into a test failure.
template <typename Push>
void RetryWhileShipped(Push push) {
  for (;;) {
    try {
      push();
      return;
    } catch (const std::logic_error&) {
      runtime::sim::SleepFor(3);
    }
  }
}

/// Predict that rides out a SHIP/LOAD pause window.
inline api::ShardedMonitor::Prediction PredictRetry(
    RecordingMonitor& monitor, uint64_t key, const std::vector<double>& features,
    double weight = 1.0) {
  api::ShardedMonitor::Prediction ticket;
  RetryWhileShipped([&] { ticket = monitor.Predict(key, features, weight); });
  return ticket;
}

/// Feed counterpart of PredictRetry.
inline void FeedRetry(RecordingMonitor& monitor, uint64_t key,
                      const Instance& instance) {
  RetryWhileShipped([&] { monitor.Feed(key, instance); });
}

/// Drives one producer's delayed schedule through the wrapper:
/// Predict immediately, park the ticket in a bounded in-flight queue
/// (verification latency), Label the oldest once the queue holds `depth`,
/// drain at the end. `label_delay` ticks of virtual clock elapse before
/// each push.
inline void RunDelayedProducer(RecordingMonitor& monitor,
                               const std::vector<DelayedPush>& schedule,
                               size_t depth) {
  std::deque<std::pair<api::ShardedMonitor::Prediction, int>> in_flight;
  for (const DelayedPush& push : schedule) {
    if (push.label_delay > 0) runtime::sim::SleepFor(push.label_delay);
    in_flight.emplace_back(PredictRetry(monitor, push.push.key,
                                        push.push.instance.features,
                                        push.push.instance.weight),
                           push.push.instance.label);
    if (in_flight.size() >= depth) {
      const auto& front = in_flight.front();
      monitor.Label(front.first.shard, front.first.id, front.second);
      in_flight.pop_front();
    }
  }
  while (!in_flight.empty()) {
    const auto& front = in_flight.front();
    monitor.Label(front.first.shard, front.first.id, front.second);
    in_flight.pop_front();
  }
}

// ----------------------------------------------------------- checker

struct SimCheckResult {
  bool ok = true;
  std::string error;  ///< First violation, with op index and field.
};

/// Value-returning twin of ExpectSnapshotEq: "" when bit-identical, else
/// the first differing field — so injected-bug self-tests can assert the
/// checker *fires* instead of failing themselves.
inline std::string DescribeSnapshotDiff(const EngineSnapshot& a,
                                        const EngineSnapshot& b) {
  if (a.position != b.position) return "position";
  if (a.pending != b.pending) return "pending";
  if (a.evicted != b.evicted) return "evicted";
  if (a.unmatched_labels != b.unmatched_labels) return "unmatched_labels";
  if (a.metric_samples != b.metric_samples) return "metric_samples";
  if (a.next_id != b.next_id) return "next_id";
  if (a.last_detector_state != b.last_detector_state) {
    return "last_detector_state";
  }
  if (!(a.drift_log == b.drift_log)) return "drift_log";
  if (a.class_counts != b.class_counts) return "class_counts";
  if (!(a.window == b.window)) return "window";
  if (a.pending_predictions.size() != b.pending_predictions.size()) {
    return "pending_predictions.size";
  }
  for (size_t i = 0; i < a.pending_predictions.size(); ++i) {
    const auto& pa = a.pending_predictions[i];
    const auto& pb = b.pending_predictions[i];
    if (pa.id != pb.id || pa.predicted != pb.predicted ||
        pa.scores != pb.scores || pa.instance.features != pb.instance.features ||
        pa.instance.label != pb.instance.label ||
        pa.instance.weight != pb.instance.weight) {
      return "pending_predictions[" + std::to_string(i) + "]";
    }
  }
  if (a.sum_pmauc != b.sum_pmauc) return "sum_pmauc";
  if (a.sum_pmgm != b.sum_pmgm) return "sum_pmgm";
  if (a.sum_accuracy != b.sum_accuracy) return "sum_accuracy";
  if (a.sum_kappa != b.sum_kappa) return "sum_kappa";
  if (a.pmauc_series != b.pmauc_series) return "pmauc_series";
  return "";
}

/// Value-returning twin of ExpectBitIdentical over the deterministic
/// PrequentialResult fields.
inline std::string DescribeResultDiff(const PrequentialResult& a,
                                      const PrequentialResult& b) {
  if (a.instances != b.instances) return "instances";
  if (a.mean_pmauc != b.mean_pmauc) return "mean_pmauc";
  if (a.mean_pmgm != b.mean_pmgm) return "mean_pmgm";
  if (a.mean_accuracy != b.mean_accuracy) return "mean_accuracy";
  if (a.mean_kappa != b.mean_kappa) return "mean_kappa";
  if (a.drifts != b.drifts) return "drifts";
  if (a.drift_positions != b.drift_positions) return "drift_positions";
  if (!(a.drift_events == b.drift_events)) return "drift_events";
  if (a.pmauc_series != b.pmauc_series) return "pmauc_series";
  if (a.class_counts != b.class_counts) return "class_counts";
  return "";
}

/// Replays a recorded history against per-shard sequential MonitorEngine
/// oracles and compares every observed outcome plus the final per-shard
/// snapshots and the merged aggregate result.
///
/// Rollback semantics, all expressed over the *effective history* (the
/// ordered op indices whose state effects the live system still holds):
///  * kPersist marks the durable cut; kCrashRestart discards every
///    effective op after the last cut (their recorded outcomes were
///    already checked when applied — only their state is gone) and
///    rebuilds the spec fleet by silent replay of the surviving prefix.
///  * kShipShard marks a per-shard cut; kShipRestore rolls exactly that
///    shard back to it — labels that drained into the shipped shard
///    inside the SHIP→LOAD window are discarded, everything on other
///    shards stands. A window with no interleaved ops degenerates to the
///    transparency property: bit-identical to never having moved.
///  * kDrainShard applies no spec operation at all — same transparency.
/// Not modeled: a kPersist *inside* an open SHIP window (the durable cut
/// would capture window labels that LOAD then discards); no scenario
/// persists mid-migration.
class HistoryChecker {
 public:
  explicit HistoryChecker(SimServingConfig config)
      : config_(std::move(config)) {}

  SimCheckResult Check(const SimHistory& history,
                       const api::ShardedMonitor& live) {
    ResetSpecs();
    // Ordered history indices of the state-bearing ops applied so far.
    // Cuts are recorded as history indices too, so erasures elsewhere in
    // the list never invalidate them.
    std::vector<size_t> effective;
    size_t durable_cut = 0;              // Op index of the last kPersist.
    std::vector<size_t> ship_cut;        // Per shard: op index of open SHIP.

    for (size_t i = 0; i < history.ops.size(); ++i) {
      const SimOp& op = history.ops[i];
      if (op.kind == SimOpKind::kPersist) {
        durable_cut = i;
        continue;
      }
      if (op.kind == SimOpKind::kCrashRestart) {
        effective.erase(
            std::lower_bound(effective.begin(), effective.end(), durable_cut),
            effective.end());
        ResetSpecs();
        for (size_t j : effective) {
          const std::string err = Apply(history.ops[j], /*check=*/false);
          if (!err.empty()) return Fail(j, history.ops[j], "replay: " + err);
        }
        continue;
      }
      if (op.kind == SimOpKind::kShipShard) {
        if (op.shard < 0) return Fail(i, op, "ship of a negative shard");
        ship_cut.resize(
            std::max(ship_cut.size(), static_cast<size_t>(op.shard) + 1),
            kNoShip);
        ship_cut[static_cast<size_t>(op.shard)] = i;
        continue;
      }
      if (op.kind == SimOpKind::kShipRestore) {
        if (op.shard < 0 ||
            static_cast<size_t>(op.shard) >= ship_cut.size() ||
            ship_cut[static_cast<size_t>(op.shard)] == kNoShip) {
          return Fail(i, op, "LOAD without a matching SHIP");
        }
        const size_t shard = static_cast<size_t>(op.shard);
        const auto window_begin = std::lower_bound(
            effective.begin(), effective.end(), ship_cut[shard]);
        // The shard is its SHIP-time state again: rebuild its spec from
        // the pre-window prefix, drop its window ops from the history.
        specs_[shard] = MakeSpecShard(config_, op.shard);
        for (auto it = effective.begin(); it != window_begin; ++it) {
          if (history.ops[*it].shard != op.shard) continue;
          const std::string err = Apply(history.ops[*it], /*check=*/false);
          if (!err.empty()) return Fail(*it, history.ops[*it], "replay: " + err);
        }
        effective.erase(
            std::remove_if(window_begin, effective.end(),
                           [&](size_t j) {
                             return history.ops[j].shard == op.shard;
                           }),
            effective.end());
        ship_cut[shard] = kNoShip;
        continue;
      }
      const std::string err = Apply(op, /*check=*/true);
      if (!err.empty()) return Fail(i, op, err);
      effective.push_back(i);
    }

    // Final state: every shard of the live monitor must be bit-identical
    // to its sequential oracle, and the aggregate must be their merge.
    if (static_cast<int>(specs_.size()) != live.shards()) {
      SimCheckResult result;
      result.ok = false;
      result.error = "final: live has " + std::to_string(live.shards()) +
                     " shards, spec has " + std::to_string(specs_.size());
      return result;
    }
    std::vector<EngineSnapshot> spec_snapshots;
    spec_snapshots.reserve(specs_.size());
    for (size_t s = 0; s < specs_.size(); ++s) {
      EngineSnapshot spec_snapshot = specs_[s]->engine.Snapshot();
      const std::string field = DescribeSnapshotDiff(
          live.ShardSnapshot(static_cast<int>(s)), spec_snapshot);
      if (!field.empty()) {
        SimCheckResult result;
        result.ok = false;
        result.error =
            "final: shard " + std::to_string(s) + " diverges at " + field;
        return result;
      }
      spec_snapshots.push_back(std::move(spec_snapshot));
    }
    const std::string field =
        DescribeResultDiff(live.Result(), MergedResult(spec_snapshots));
    if (!field.empty()) {
      SimCheckResult result;
      result.ok = false;
      result.error = "final: merged result diverges at " + field;
      return result;
    }
    return SimCheckResult();
  }

 private:
  static constexpr size_t kNoShip = static_cast<size_t>(-1);

  void ResetSpecs() {
    specs_.clear();
    for (int s = 0; s < config_.shards; ++s) {
      specs_.push_back(MakeSpecShard(config_, s));
    }
  }

  /// Applies one op to its spec shard. With `check`, demands the spec's
  /// outcome matches the recorded one. Returns "" or the violation.
  std::string Apply(const SimOp& op, bool check) {
    try {
      switch (op.kind) {
        case SimOpKind::kPredict: {
          MonitorEngine* spec = Shard(op.shard);
          if (spec == nullptr) return "shard index out of spec range";
          const MonitorEngine::Ticket t = spec->Predict(op.features, op.weight);
          if (check && t.id != op.id) {
            return "ticket id: spec " + std::to_string(t.id) + " vs observed " +
                   std::to_string(op.id);
          }
          if (check && t.predicted != op.predicted) {
            return "predicted label: spec " + std::to_string(t.predicted) +
                   " vs observed " + std::to_string(op.predicted);
          }
          if (check && t.scores != op.scores) return "prediction scores";
          return "";
        }
        case SimOpKind::kFeed: {
          MonitorEngine* spec = Shard(op.shard);
          if (spec == nullptr) return "shard index out of spec range";
          spec->Feed(op.instance);
          return "";
        }
        case SimOpKind::kLabel: {
          MonitorEngine* spec = Shard(op.shard);
          if (spec == nullptr) return "shard index out of spec range";
          const bool applied =
              spec->Label(op.id, op.true_label) == LabelOutcome::kApplied;
          if (check && applied != op.applied) {
            return std::string("label applied: spec ") +
                   (applied ? "true" : "false") + " vs observed " +
                   (op.applied ? "true" : "false");
          }
          return "";
        }
        case SimOpKind::kAddShard: {
          const int expected = static_cast<int>(specs_.size());
          if (check && op.new_shard != expected) {
            return "new shard index: spec " + std::to_string(expected) +
                   " vs observed " + std::to_string(op.new_shard);
          }
          specs_.push_back(MakeSpecShard(config_, expected));
          return "";
        }
        case SimOpKind::kDrainShard:
          return "";  // Migration transparency: spec no-op.
        case SimOpKind::kShipShard:
        case SimOpKind::kShipRestore:
        case SimOpKind::kPersist:
        case SimOpKind::kCrashRestart:
          return "marker op reached Apply()";  // Check() handles these.
      }
    } catch (const std::exception& e) {
      return std::string("spec replay threw: ") + e.what();
    }
    return "unknown op kind";
  }

  MonitorEngine* Shard(int shard) {
    if (shard < 0 || static_cast<size_t>(shard) >= specs_.size()) {
      return nullptr;
    }
    return &specs_[static_cast<size_t>(shard)]->engine;
  }

  static SimCheckResult Fail(size_t index, const SimOp& op,
                             const std::string& why) {
    SimCheckResult result;
    result.ok = false;
    std::ostringstream out;
    out << "op " << index << " (" << SimOpKindName(op.kind) << ", shard "
        << op.shard << "): " << why;
    result.error = out.str();
    return result;
  }

  SimServingConfig config_;
  std::vector<std::unique_ptr<OwnedEngine>> specs_;
};

}  // namespace test_util
}  // namespace ccd

#endif  // CCD_TESTS_SIM_HARNESS_H_
