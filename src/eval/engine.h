#ifndef CCD_EVAL_ENGINE_H_
#define CCD_EVAL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "classifiers/classifier.h"
#include "detectors/detector.h"
#include "eval/metrics.h"
#include "eval/prequential.h"

namespace ccd {

namespace api {
class ShardedMonitor;
}  // namespace api

/// Windowed-metric snapshot attached to engine events: the state of the
/// sliding evaluation window at `position` completed instances.
struct MetricsSnapshot {
  uint64_t position = 0;
  double pmauc = 0.0;
  double pmgm = 0.0;
  double accuracy = 0.0;
  double kappa = 0.0;
  size_t window_size = 0;
};

/// Optional event callbacks of a MonitorEngine. All fire synchronously on
/// the thread driving the engine; metric snapshots (a full pmAUC pass
/// over the window) are only computed for callbacks that are actually
/// installed.
///
/// Hooks must NOT call back into the engine's mutating surface: they fire
/// mid-step, while the instance that triggered them is only half applied
/// (metrics recorded, classifier not yet trained, position not yet
/// advanced), so a reentrant Feed/Predict/Label/Restore would interleave
/// two prequential steps and silently corrupt the run. The engine enforces
/// this — a reentrant mutating call throws std::logic_error naming the
/// violation. Read-only accessors (position(), Result(), Snapshot()) stay
/// callable from hooks.
struct EngineHooks {
  /// A drift alarm on a measured (post-warmup) instance, before the
  /// classifier reset/train for that instance.
  std::function<void(const DriftAlarm&, const MetricsSnapshot&)> on_drift;
  /// A periodic metric sample (every `eval_interval` measured instances,
  /// once the window holds enough entries) — the same samples that feed
  /// PrequentialResult::pmauc_series and the result means.
  std::function<void(const MetricsSnapshot&)> on_metrics;
};

/// The run state a MonitorEngine accumulates as it completes instances —
/// the engine's one accumulator, and the part of an EngineSnapshot that
/// is copied whole. Every PrequentialResult field is derived from it.
struct EngineRunState {
  uint64_t position = 0;           ///< Completed (labelled) instances.
  uint64_t evicted = 0;            ///< Predictions whose label never came.
  uint64_t unmatched_labels = 0;   ///< Label() calls with no pending match.
  uint64_t metric_samples = 0;     ///< Periodic samples taken so far.
  uint64_t next_id = 1;            ///< Next Predict() ticket id.
  /// Detector state after the most recent measured step, kept as observed
  /// state: the wire and MergeSnapshots carry it, so a restored or merged
  /// view reports the warning zone the detector is in.
  DetectorState last_detector_state = DetectorState::kStable;
  std::vector<DriftAlarm> drift_log;
  std::vector<uint64_t> class_counts;
  /// Accumulated periodic metric samples (the running means of Result()).
  double sum_pmauc = 0.0;
  double sum_pmgm = 0.0;
  double sum_accuracy = 0.0;
  double sum_kappa = 0.0;
  std::vector<std::pair<uint64_t, double>> pmauc_series;
  /// Accumulated wall time (only meaningful with config.timing).
  double detector_seconds = 0.0;
  double classifier_seconds = 0.0;
};

/// Copyable run state of a MonitorEngine at a point in time: everything a
/// moved shard needs to resume evaluation mid-stream, and everything an
/// operator needs to inspect a live monitor. Together with the
/// classifier's and detector's SaveState() payloads (io::StateImage
/// carries all three) this is the *complete* engine state:
/// MonitorEngine::Restore() rebuilds an engine whose subsequent behavior —
/// and whose own Snapshot() — is bit-identical to the original's. The
/// accumulated record is the EngineRunState base; the members below are
/// captured only when a snapshot is taken.
struct EngineSnapshot : EngineRunState {
  /// One parked serving-path prediction, so a restored engine can still
  /// accept the late Label() calls of its predecessor.
  struct PendingEntry {
    uint64_t id = 0;
    Instance instance;  ///< Features + weight; label still unknown.
    int predicted = 0;
    std::vector<double> scores;
  };

  uint64_t pending = 0;            ///< Predictions still awaiting a label.
  /// Contents of the sliding metric window, oldest first.
  std::vector<WindowedMetrics::Entry> window;
  /// Contents of the pending buffer, ascending by id.
  std::vector<PendingEntry> pending_predictions;
};

/// A drift alarm attributed to the serving shard whose engine raised it —
/// the fan-in payload of a sharded monitor's aggregate drift log (each
/// per-shard DriftAlarm::position is a *shard-local* instance count).
struct ShardAlarm {
  int shard = 0;
  DriftAlarm alarm;
};

inline bool operator==(const ShardAlarm& a, const ShardAlarm& b) {
  return a.shard == b.shard && a.alarm == b.alarm;
}
inline bool operator!=(const ShardAlarm& a, const ShardAlarm& b) {
  return !(a == b);
}

/// Aggregate view over per-shard engine snapshots: counters and metric
/// accumulators summed, class counts added element-wise, drift logs and
/// pmAUC series concatenated in ascending position order (ties keep shard
/// order). The merge is an *observability* artifact, not a restore
/// payload: positions are shard-local so the interleaving is lost, and the
/// per-shard metric-window / pending-buffer contents are deliberately not
/// carried over (their sizes still are, via `pending` and
/// `metric_samples`). `next_id` is the max over shards and
/// `last_detector_state` the most severe current state. Throws
/// std::invalid_argument when the snapshots disagree on class arity.
/// An empty input merges to a default snapshot.
EngineSnapshot MergeSnapshots(const std::vector<EngineSnapshot>& shards);

/// The drift logs of all shards, tagged with their shard index and merged
/// in ascending position order (ties keep shard order) — the aggregate
/// alarm history of a sharded monitor.
std::vector<ShardAlarm> MergeShardAlarms(
    const std::vector<EngineSnapshot>& shards);

/// Aggregate PrequentialResult over per-shard snapshots: the derivation
/// MonitorEngine::Result() uses, applied to MergeSnapshots(shards) — so
/// instance/drift/class counts are summed, mean metrics are the
/// sample-weighted means over all shards' periodic samples, wall-clock
/// fields are summed, and a single snapshot gives that engine's Result().
PrequentialResult MergedResult(const std::vector<EngineSnapshot>& shards);

/// Outcome of MonitorEngine::Label().
enum class LabelOutcome {
  kApplied,  ///< The pending prediction was found and the step completed.
  kUnknown,  ///< No pending prediction with that id (evicted or bogus).
};

/// One late ground-truth delivery, the element of LabelBatch(): the ticket
/// id returned by Predict() plus the true label that finally arrived.
struct LabelRequest {
  uint64_t id = 0;
  int label = 0;
};

/// Push-driven online evaluation engine: one (classifier, detector,
/// windowed-metrics) triple behind a serving-style surface. The engine
/// inverts the control flow of the classic pull-based prequential loop —
/// instead of draining an InstanceStream, callers push events in:
///
///  * Feed(instance)       — immediate-label fast path: one full
///                           test-then-train prequential step. Pushing a
///                           stream through Feed() is bit-identical to the
///                           pre-engine RunPrequential loop.
///  * Predict(features)    — serving path, prediction side: returns a
///                           ticket {id, predicted, scores} and parks the
///                           prediction in a bounded pending buffer.
///  * Label(id, label)     — serving path, label side: completes the
///                           parked prediction with the (possibly late)
///                           ground truth, using the scores captured at
///                           prediction time, exactly as test-then-train
///                           demands.
///
/// Verification latency: labels may arrive any number of predictions
/// later, or never. The pending buffer is bounded; when full, the oldest
/// prediction is evicted and counted (`evicted()`), so an engine under a
/// label outage degrades to a bounded-memory predictor instead of leaking.
///
/// Admission: Feed, Predict and Label run CheckRow/CheckLabel
/// (eval/admission.h) before anything changes (api::ShardedMonitor, which
/// admits a whole push before applying any of it, calls the step bodies
/// behind them directly), so a row of the wrong
/// width, a non-finite feature or weight, a weight <= 0 or an
/// out-of-range label throws AdmissionError and leaves the engine as it
/// was.
///
/// The engine is single-threaded by design: one engine per stream shard,
/// sharding above it (api::Suite, api::ShardedMonitor).
class MonitorEngine {
 public:
  /// A prediction handed back to the caller: the opaque id to label later,
  /// plus the argmax label and per-class scores computed now.
  struct Ticket {
    uint64_t id = 0;
    int predicted = 0;
    std::vector<double> scores;
  };

  /// `classifier` must outlive the engine and be non-null; `detector` may
  /// be null (pure classifier baseline). `config` is validated as in
  /// RunPrequential (`max_instances` is ignored — push streams are
  /// unbounded, the caller decides when to stop). `pending_capacity` bounds
  /// the delayed-label buffer and is clamped to >= 1.
  MonitorEngine(const StreamSchema& schema, OnlineClassifier* classifier,
                DriftDetector* detector, const PrequentialConfig& config,
                EngineHooks hooks = {}, size_t pending_capacity = 1024);

  MonitorEngine(MonitorEngine&&) = default;
  MonitorEngine& operator=(MonitorEngine&&) = default;

  /// Immediate-label fast path: one prequential step (warmup handling,
  /// predict, metrics, detector, drift coupling, train, sampling).
  /// Allocation-free in steady state:
  /// scores are computed into a reused scratch buffer
  /// (OnlineClassifier::PredictScoresInto) and the metric window recycles
  /// its entry slots.
  void Feed(const Instance& instance);

  /// Batch form of Feed(): applies every instance in order, bit-identical
  /// to the equivalent sequence of Feed() calls (the differential tests
  /// pin this). Exists so callers holding a shard lock can amortize it
  /// over the whole batch.
  void FeedBatch(const std::vector<Instance>& batch);

  /// Serving path, prediction side. Scores come from the classifier as it
  /// is *now*; a later Label() completes the step with these scores, so
  /// prequential semantics (test before train) hold under verification
  /// latency.
  Ticket Predict(const std::vector<double>& features, double weight = 1.0);

  /// Allocation-free form of Predict(): fills `out` in place, reusing its
  /// score-vector capacity. Bit-identical to the by-value overload.
  void Predict(const std::vector<double>& features, double weight,
               Ticket* out);

  /// Batch form of Predict(): one ticket per instance (labels ignored,
  /// weights honored), in order, bit-identical to per-instance calls.
  /// `out` is resized to the batch and its tickets' capacity reused.
  void PredictBatch(const std::vector<Instance>& batch,
                    std::vector<Ticket>* out);

  /// Serving path, label side. Ids are matched against the pending buffer;
  /// evicted or never-issued ids return kUnknown and are counted.
  LabelOutcome Label(uint64_t id, int true_label);

  /// Batch form of Label(): applies the requests strictly in order, so the
  /// evicted()/unmatched_labels() accounting under out-of-order or
  /// duplicate ids is exactly that of the per-instance calls. When
  /// `outcomes` is non-null it is cleared and filled with one outcome per
  /// request.
  void LabelBatch(const std::vector<LabelRequest>& batch,
                  std::vector<LabelOutcome>* outcomes = nullptr);

  uint64_t position() const { return run_.position; }
  size_t pending() const { return pending_count_; }
  uint64_t evicted() const { return run_.evicted; }
  uint64_t unmatched_labels() const { return run_.unmatched_labels; }
  /// Drift alarms raised so far (the size of the drift log, without
  /// copying it).
  uint64_t drifts() const { return run_.drift_log.size(); }
  /// Detector state after the most recent measured step (kStable when no
  /// detector is attached or nothing completed yet).
  DetectorState last_detector_state() const {
    return run_.last_detector_state;
  }
  const StreamSchema& schema() const { return schema_; }
  const PrequentialConfig& config() const { return config_; }

  /// Copyable run state for inspection and shard handoff.
  EngineSnapshot Snapshot() const;

  /// Replaces this engine's run state with `snapshot`, so that continuing
  /// from here is bit-identical to continuing the engine that produced it —
  /// provided classifier and detector were restored to the same point
  /// (SaveState() at Snapshot() time, LoadState() into the new ones). Validates internal consistency
  /// (window within the configured metric window, class counts matching
  /// the schema, pending ids ascending and below next_id, pending count
  /// within this engine's capacity) and throws std::invalid_argument on
  /// violations.
  void Restore(const EngineSnapshot& snapshot);

  /// Aggregate result over everything completed so far. Callable at any
  /// time; the engine keeps accepting events afterwards.
  PrequentialResult Result() const;

 private:
  friend class api::ShardedMonitor;

  struct PendingPrediction {
    uint64_t id = 0;
    Instance instance;  ///< Features + weight; label filled at Label().
    int predicted = 0;
    std::vector<double> scores;
  };

  /// The steps behind Feed(), Predict() and Label(), for a row or label
  /// that already passed CheckRow/CheckLabel against this schema.
  void FeedAdmitted(const Instance& instance);
  void PredictAdmitted(const std::vector<double>& features, double weight,
                       Ticket* out);
  LabelOutcome LabelAdmitted(uint64_t id, int true_label);

  /// One completed (labelled) instance — the body of the prequential loop.
  /// `measured` is false for the warmup prefix (train-only, no metrics).
  void Complete(const Instance& instance, bool measured, int predicted,
                const std::vector<double>& scores);
  /// The k-th oldest parked prediction (logical ring indexing).
  PendingPrediction& PendingAt(size_t k) {
    return pending_slots_[(pending_head_ + k) % capacity_];
  }
  const PendingPrediction& PendingAt(size_t k) const {
    return pending_slots_[(pending_head_ + k) % capacity_];
  }
  MetricsSnapshot TakeSnapshot(uint64_t position) const;
  /// Throws std::logic_error when called from inside an EngineHooks
  /// callback — the reentrancy guard of every mutating entry point.
  void RequireNotInHook(const char* operation) const;

  // Construction-time wiring, not run state: Snapshot()/Restore() move an
  // engine's *evaluation* state between engines that were each built with
  // their own schema/config/components (io::StateImage carries the
  // component state separately; its decoder re-supplies schema and config).
  // ccd:state-skip(schema_, construction-time wiring; a restored engine is built with its own schema)
  StreamSchema schema_;
  // ccd:state-skip(classifier_, non-owning component pointer; io::StateImage ships its SaveState payload instead)
  OnlineClassifier* classifier_ = nullptr;
  // ccd:state-skip(detector_, non-owning component pointer; io::StateImage ships its SaveState payload instead)
  DriftDetector* detector_ = nullptr;
  // ccd:state-skip(config_, construction-time wiring; a restored engine is built with its own config)
  PrequentialConfig config_;
  // ccd:state-skip(hooks_, callbacks bind to the owning process; they never transfer between engines)
  EngineHooks hooks_;
  size_t capacity_ = 1024;

  WindowedMetrics metrics_;
  /// Pending-prediction ring, preallocated to `capacity_` at construction
  /// so a steady-state Predict/Label cycle never touches the heap: slot
  /// `(pending_head_ + k) % capacity_` is the k-th oldest parked
  /// prediction; slots keep their feature/score vector capacity across
  /// reuse. Ids are ascending in logical order (Label() binary-searches).
  std::vector<PendingPrediction> pending_slots_;
  size_t pending_head_ = 0;
  size_t pending_count_ = 0;
  // ccd:state-skip(in_hook_, transient reentrancy guard; Snapshot is only callable when no hook is running)
  bool in_hook_ = false;  ///< True while an EngineHooks callback runs.

  /// The accumulated run state; Result() derives from it.
  EngineRunState run_;
  // ccd:state-skip(scores_scratch_, transient Feed-path scratch rewritten every push; holds no run state)
  std::vector<double> scores_scratch_;
};

}  // namespace ccd

#endif  // CCD_EVAL_ENGINE_H_
