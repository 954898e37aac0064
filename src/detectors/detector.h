#ifndef CCD_DETECTORS_DETECTOR_H_
#define CCD_DETECTORS_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "stream/instance.h"

namespace ccd {
namespace io {
class Writer;
class Reader;
}  // namespace io

/// Detector status after the most recent observation.
enum class DetectorState {
  kStable,
  kWarning,
  kDrift,
};

const char* DetectorStateName(DetectorState s);

/// Common interface of all concept drift detectors.
///
/// Detectors are driven prequentially by MonitorEngine (eval/engine.h),
/// whether the labels arrive with their instances (offline RunPrequential)
/// or late through the push API (api::ShardedMonitor): for every *labelled*
/// instance the engine calls Observe() with the true instance, the label
/// the classifier predicted at prediction time and its per-class scores,
/// always *before* the classifier trains on the instance. Statistical
/// detectors only use the implied error indicator; detectors designed for
/// imbalanced streams (PerfSim, DDM-OCI, RBM-IM) use the label structure;
/// the trainable RBM-IM uses the full feature vector.
class DriftDetector {
 public:
  virtual ~DriftDetector() = default;

  virtual void Observe(const Instance& instance, int predicted,
                       const std::vector<double>& scores) = 0;

  /// State resulting from the latest Observe() call. A drift signal is
  /// sticky for exactly one observation; detectors re-arm themselves.
  /// Consume-on-read (latching) implementations are legal: the engine
  /// reads state() exactly once per Observe(), including on warmup data,
  /// and never replays a signal.
  virtual DetectorState state() const = 0;

  /// Clears all adaptive statistics (new concept assumed).
  virtual void Reset() = 0;

  /// Retired deep-copy hook. Nothing in src/ calls it and no detector in
  /// src/ overrides it; it stays declared (throwing std::logic_error) only
  /// because the benchmark's tracing wrappers (perfbench/src/traced.cc)
  /// override it, and goes when a benchmark change drops those overrides.
  /// Component state moves through SaveState()/LoadState() alone.
  virtual std::unique_ptr<DriftDetector> CloneState() const;

  /// Serializes *all* adaptive statistics (windows, counters, RNG
  /// cursors) to the versioned wire format — the one way detector state
  /// leaves a live engine (persistence, SHIP/LOAD, DrainShard). The params
  /// and schema are construction-time configuration and are not written;
  /// io::ShardIdentity carries them. LoadState() on an instance the
  /// registry built from the same name, params and schema must make its
  /// future Observe()/state() behavior bit-identical to this detector's,
  /// across processes and machines; it throws io::WireError on any payload
  /// shape that instance's configuration could not have produced. The
  /// defaults throw std::logic_error naming the component; every
  /// registered detector implements both (the io round-trip property test
  /// loops over the registry to keep that true).
  virtual void SaveState(io::Writer& writer) const;
  virtual void LoadState(io::Reader& reader);

  virtual std::string name() const = 0;

  /// Classes implicated in the latest drift signal; empty for detectors
  /// that only monitor the global stream (the paper's key distinction —
  /// only per-class monitors can explain *local* drift). The engine reads
  /// this immediately after a kDrift state() and publishes it in
  /// PrequentialResult::drift_events and the OnDrift callback, so it must
  /// stay valid (and const) right after the signal.
  virtual std::vector<int> drifted_classes() const { return {}; }
};

/// Convenience base for detectors that monitor the binary error indicator
/// of the classifier. Subclasses implement AddError(); Observe() derives
/// the indicator. AddError is public so unit tests can drive detectors with
/// synthetic Bernoulli error streams directly.
class ErrorRateDetector : public DriftDetector {
 public:
  void Observe(const Instance& instance, int predicted,
               const std::vector<double>& /*scores*/) override {
    AddError(predicted != instance.label);
  }

  /// Feeds one error indicator (true = misclassified).
  virtual void AddError(bool error) = 0;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_DETECTOR_H_
