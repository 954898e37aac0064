#ifndef CCD_API_MONITOR_H_
#define CCD_API_MONITOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/component_registry.h"
#include "api/param_map.h"
#include "eval/engine.h"

namespace ccd {
namespace api {

/// Push-based online drift monitor: the serving-side front door of the
/// library. Where api::Experiment pulls a benchmark stream through the
/// prequential protocol, a Monitor is *pushed* events by the caller —
/// predictions and (possibly late, possibly never-arriving) labels — and
/// emits drift alerts through callbacks. Both surfaces run on the same
/// MonitorEngine, so offline numbers and online behavior cannot diverge.
///
///   api::Monitor monitor =
///       api::MonitorBuilder()
///           .Schema(20, 5)
///           .Classifier("cs-ptree")
///           .Detector("RBM-IM", {"batch_size=75"})
///           .PendingCapacity(4096)
///           .OnDrift([](const DriftAlarm& a, const MetricsSnapshot& m) {
///             alert(a.position, a.drifted_classes, m.pmauc);
///           })
///           .Build();
///
///   // Serving: predict now, label whenever ground truth shows up.
///   auto p = monitor.Predict(features);       // {id, label, scores}
///   ...
///   monitor.Label(p.id, observed_outcome);    // false if evicted
///
///   // Backfill / replay: label known immediately.
///   monitor.Feed(instance);
///
/// A Monitor owns its classifier and detector and is single-threaded; run
/// one per stream shard and shard above it.
class Monitor {
 public:
  /// What a Predict() call hands back to the serving layer.
  struct Prediction {
    uint64_t id = 0;      ///< Pass to Label() when ground truth arrives.
    int label = 0;        ///< Argmax of `scores`.
    std::vector<double> scores;
  };

  Monitor(Monitor&&) = default;
  Monitor& operator=(Monitor&&) = default;
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Prediction path: score `features` with the classifier as trained so
  /// far, park the prediction for its future label, return it. When the
  /// pending buffer is full the oldest prediction is evicted and counted —
  /// see evicted(). Throws std::logic_error while paused.
  Prediction Predict(const std::vector<double>& features, double weight = 1.0);

  /// Label path: completes the parked prediction `id` with the true label
  /// (metrics, detector, drift coupling, training — one prequential step
  /// using the scores captured at prediction time). Returns false when the
  /// id is unknown — evicted or never issued. Allowed while paused.
  bool Label(uint64_t id, int true_label);

  /// Immediate-label fast path: one full prequential step. Equivalent to
  /// Predict() + Label() back to back, minus the buffer round-trip.
  void Feed(const Instance& instance);

  /// Batch forms: each is bit-identical to calling its per-instance
  /// sibling in element order, but amortizes the call overhead (and, on
  /// ShardedMonitor, the per-push lock round-trip). `out` vectors are
  /// resized to the batch size, reusing their capacity across calls.
  void FeedBatch(const std::vector<Instance>& batch);
  void PredictBatch(const std::vector<Instance>& batch,
                    std::vector<Prediction>* out);
  /// One LabelOutcome per request, in request order (kApplied / kUnknown).
  void LabelBatch(const std::vector<LabelRequest>& batch,
                  std::vector<LabelOutcome>* outcomes = nullptr);

  /// Pause/Resume the intake (Feed/Predict); Label() keeps draining
  /// in-flight predictions. Snapshot() of a paused, drained monitor is a
  /// stable cut of its run state.
  void Pause();
  void Resume();
  bool paused() const;

  /// Copyable run state: instance counts, pending/evicted counters, drift
  /// log, metric-window contents.
  EngineSnapshot Snapshot() const;

  /// Aggregate prequential result over everything labelled so far.
  PrequentialResult Result() const;

  uint64_t position() const;          ///< Completed (labelled) instances.
  size_t pending() const;             ///< Predictions awaiting a label.
  uint64_t evicted() const;           ///< Labels that never arrived.
  uint64_t unmatched_labels() const;  ///< Label() calls with no match.
  DetectorState last_detector_state() const;
  const StreamSchema& schema() const;

 private:
  friend class MonitorBuilder;
  Monitor(const StreamSchema& schema,
          std::unique_ptr<OnlineClassifier> classifier,
          std::unique_ptr<DriftDetector> detector,
          const PrequentialConfig& config, EngineHooks hooks,
          size_t pending_capacity);

  // Declaration order matters: the engine holds raw pointers into the two
  // components, so they must outlive it on destruction (members destroy in
  // reverse order).
  std::unique_ptr<OnlineClassifier> classifier_;
  std::unique_ptr<DriftDetector> detector_;
  std::unique_ptr<MonitorEngine> engine_;
};

/// Fluent composer of a Monitor, mirroring api::Experiment: components are
/// resolved by registered name, protocol knobs default to the paper's
/// values, unknown names throw ApiError listing the alternatives.
///
/// Required: Schema() (a push monitor has no stream to infer it from).
/// Defaults: classifier "cs-ptree", no detector, the paper's protocol
/// (window 1000, sample every 250, warmup 500, reset on drift), pending
/// capacity 1024, timing off (serving cares about alerts, not
/// microbenchmarks — Protocol() overrides).
class MonitorBuilder {
 public:
  MonitorBuilder() = default;

  MonitorBuilder& Schema(const StreamSchema& schema);
  MonitorBuilder& Schema(int num_features, int num_classes);

  MonitorBuilder& Classifier(const std::string& name, ParamMap params = {});
  MonitorBuilder& Detector(const std::string& name, ParamMap params = {});
  MonitorBuilder& NoDetector();

  /// Seed handed to the component factories (default 42).
  MonitorBuilder& Seed(uint64_t seed);

  /// Overrides the evaluation protocol (warmup / metric window / sampling
  /// interval / reset-on-drift). `max_instances` is ignored: a push
  /// monitor runs until its owner stops pushing.
  MonitorBuilder& Protocol(const PrequentialConfig& config);

  /// Bounds the delayed-label buffer (clamped to >= 1).
  MonitorBuilder& PendingCapacity(size_t capacity);

  MonitorBuilder& OnDrift(
      std::function<void(const DriftAlarm&, const MetricsSnapshot&)> callback);
  MonitorBuilder& OnWarning(
      std::function<void(uint64_t, const MetricsSnapshot&)> callback);
  MonitorBuilder& OnMetrics(std::function<void(const MetricsSnapshot&)> callback);

  /// Instantiates the components and wires the engine. Throws ApiError on
  /// a missing/invalid schema, unknown component names, or a degenerate
  /// protocol.
  Monitor Build() const;

 private:
  StreamSchema schema_;
  bool has_schema_ = false;
  std::string classifier_name_ = "cs-ptree";
  ParamMap classifier_params_;
  std::string detector_name_;  ///< Empty = no detector.
  ParamMap detector_params_;
  uint64_t seed_ = 42;
  bool has_config_ = false;
  PrequentialConfig config_;
  size_t pending_capacity_ = 1024;
  EngineHooks hooks_;
};

}  // namespace api
}  // namespace ccd

#endif  // CCD_API_MONITOR_H_
