#ifndef CCD_EVAL_PREQUENTIAL_H_
#define CCD_EVAL_PREQUENTIAL_H_

#include <cstdint>
#include <vector>

#include "classifiers/classifier.h"
#include "detectors/detector.h"
#include "stream/stream.h"

namespace ccd {

/// Configuration of a prequential (test-then-train) evaluation run.
struct PrequentialConfig {
  uint64_t max_instances = 100000;
  int metric_window = 1000;   ///< W for pmAUC / pmGM (paper: 1000).
  int eval_interval = 250;    ///< Sample the windowed metrics every N inst.
  uint64_t warmup = 500;      ///< Train-only prefix (no metrics, no drift).
  bool timing = true;         ///< Measure detector/classifier wall time.
};

inline bool operator==(const PrequentialConfig& a, const PrequentialConfig& b) {
  return a.max_instances == b.max_instances &&
         a.metric_window == b.metric_window &&
         a.eval_interval == b.eval_interval && a.warmup == b.warmup &&
         a.timing == b.timing;
}
inline bool operator!=(const PrequentialConfig& a, const PrequentialConfig& b) {
  return !(a == b);
}

/// Throws std::invalid_argument when `config` is degenerate: a
/// non-positive `eval_interval` (the sampling modulus — zero is a literal
/// division by zero) or a non-positive `metric_window` (WindowedMetrics
/// would evict every entry immediately and never accumulate a window).
/// RunPrequential calls this up front; api::Experiment::Build performs the
/// same checks and reports them as ApiError.
void ValidatePrequentialConfig(const PrequentialConfig& config);

/// One detection-side drift event: where a detector fired and which
/// classes it implicated (empty = global drift, or a detector that only
/// monitors the aggregate stream). This is the detector's *answer*; the
/// generator-side ground truth is ccd::DriftEvent (generators/drift.h).
struct DriftAlarm {
  uint64_t position = 0;
  std::vector<int> drifted_classes;
};

inline bool operator==(const DriftAlarm& a, const DriftAlarm& b) {
  return a.position == b.position && a.drifted_classes == b.drifted_classes;
}
inline bool operator!=(const DriftAlarm& a, const DriftAlarm& b) {
  return !(a == b);
}

/// Aggregate outcome of a run.
struct PrequentialResult {
  double mean_pmauc = 0.0;   ///< Mean of windowed pmAUC samples, in [0,1].
  double mean_pmgm = 0.0;
  double mean_accuracy = 0.0;
  double mean_kappa = 0.0;
  uint64_t instances = 0;
  uint64_t drifts = 0;
  std::vector<uint64_t> drift_positions;
  /// Detection-side drift log, parallel to `drift_positions` but carrying
  /// the classes each alarm implicated (detectors without local-drift
  /// explanations leave them empty).
  std::vector<DriftAlarm> drift_events;
  /// Realized per-class instance counts over the whole run (warmup
  /// included); labels outside [0, num_classes) are not counted.
  std::vector<uint64_t> class_counts;
  /// (position, pmAUC) samples for plotting metric evolution.
  std::vector<std::pair<uint64_t, double>> pmauc_series;
  /// Total seconds spent inside DriftDetector::Observe (the paper's
  /// "test time") and in classifier Train ("update time" proxy).
  double detector_seconds = 0.0;
  double classifier_seconds = 0.0;
};

/// Runs the prequential protocol: for each instance, predict, feed the
/// detector, record metrics, then train. When the detector signals drift
/// (after warmup) the classifier is reset — the paper's coupling for
/// measuring how detector quality drives classifier recovery. `detector`
/// may be null (pure classifier baseline).
///
/// This is a thin adapter over MonitorEngine (eval/engine.h): it drains
/// `stream` through the push-based engine with immediate labels, so
/// offline evaluation and online serving share one implementation.
PrequentialResult RunPrequential(InstanceStream* stream,
                                 OnlineClassifier* classifier,
                                 DriftDetector* detector,
                                 const PrequentialConfig& config);

}  // namespace ccd

#endif  // CCD_EVAL_PREQUENTIAL_H_
