#ifndef CCD_CLASSIFIERS_CLASSIFIER_H_
#define CCD_CLASSIFIERS_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "stream/instance.h"

namespace ccd {
namespace io {
class Writer;
class Reader;
}  // namespace io

/// Interface of incremental (online) classifiers used as the drift
/// detectors' backbone. The prequential protocol is test-then-train:
/// PredictScores() is always called on an instance before Train() sees it.
class OnlineClassifier {
 public:
  virtual ~OnlineClassifier() = default;

  virtual const StreamSchema& schema() const = 0;

  /// Incorporates one labelled instance.
  virtual void Train(const Instance& instance) = 0;

  /// Per-class support scores; non-negative, summing to 1 (the multi-class
  /// AUC metric relies on score ordering).
  virtual std::vector<double> PredictScores(const Instance& instance) const = 0;

  /// Allocation-free form of PredictScores(): writes the scores into `out`,
  /// reusing its capacity. Bit-identical to PredictScores() — the batch /
  /// hot-path differential tests rely on that. The default copies through
  /// PredictScores(); the built-in classifiers override it to compute in
  /// place so a steady-state push performs no heap allocation.
  virtual void PredictScoresInto(const Instance& instance,
                                 std::vector<double>& out) const;

  /// Argmax of PredictScores.
  virtual int Predict(const Instance& instance) const;

  /// Forgets everything (used when a drift detector fires).
  virtual void Reset() = 0;

  /// Fresh, untrained classifier with identical configuration.
  virtual std::unique_ptr<OnlineClassifier> Clone() const = 0;

  /// Retired deep-copy hook. Nothing in src/ calls it and no classifier
  /// in src/ overrides it; it stays declared (throwing std::logic_error)
  /// only because the benchmark's tracing wrappers
  /// (perfbench/src/traced.cc) override it, and goes when a benchmark
  /// change drops those overrides. Component state moves through
  /// SaveState()/LoadState() alone.
  virtual std::unique_ptr<OnlineClassifier> CloneState() const;

  /// Serializes *all* learned state (weights, counters, RNG cursors) to
  /// the versioned wire format — the one way classifier state leaves a
  /// live engine (persistence, SHIP/LOAD, DrainShard). The schema and
  /// params are construction-time configuration and are not written;
  /// io::ShardIdentity carries them. LoadState() on an instance the
  /// registry built from the same name, params and schema must make its
  /// future behavior bit-identical to this classifier's, across processes
  /// and machines; it throws io::WireError on any payload shape that
  /// instance's configuration could not have produced. The defaults throw
  /// std::logic_error naming the component; every registered classifier
  /// implements both (the io round-trip property test loops over the
  /// registry to keep that true).
  virtual void SaveState(io::Writer& writer) const;
  virtual void LoadState(io::Reader& reader);

  virtual std::string name() const = 0;
};

}  // namespace ccd

#endif  // CCD_CLASSIFIERS_CLASSIFIER_H_
