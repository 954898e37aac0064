#ifndef CCD_DETECTORS_DDM_OCI_H_
#define CCD_DETECTORS_DDM_OCI_H_

#include <vector>

#include "detectors/detector.h"

namespace ccd {

/// DDM-OCI — Drift Detection Method for Online Class Imbalance (Wang et
/// al.), the recall-monitoring detector the paper uses as its strongest
/// skew-insensitive baseline.
///
/// Maintains a time-decayed recall estimate per class. For each class the
/// historical maximum recall (with its binomial deviation) is remembered;
/// a class whose current recall falls below `drift_threshold` x maximum
/// (minus deviation) triggers a drift, below `warning_threshold` x maximum
/// a warning. Because every class is tracked separately, minority-class
/// degradation is not masked by majority accuracy — but only *performance*
/// is observed, not the data distribution itself (the weakness RBM-IM
/// addresses).
class DdmOci : public DriftDetector {
 public:
  struct Params {
    int num_classes = 2;
    double warning_threshold = 0.95;
    double drift_threshold = 0.90;
    double decay = 0.995;   ///< Time-decay factor of the recall estimate.
    int min_class_count = 30;  ///< Observations of a class before testing.
    /// A class must violate the drift condition this many times in a row
    /// before firing (debounces the noisy decayed-recall estimate).
    int consecutive_violations = 2;
    /// Slow decay of the remembered maximum recall, so an early lucky
    /// streak cannot pin the baseline unreachably high forever.
    double max_decay = 0.99995;
  };

  explicit DdmOci(const Params& params) : params_(params) { Reset(); }

  void Observe(const Instance& instance, int predicted,
               const std::vector<double>& scores) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "DDM-OCI"; }
  std::vector<int> drifted_classes() const override { return drifted_; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

  /// Current decayed recall of class k (exposed for tests/diagnostics).
  double recall(int k) const { return recall_[static_cast<size_t>(k)]; }

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  std::vector<double> recall_;
  std::vector<double> recall_max_;
  std::vector<double> sigma_max_;
  std::vector<long long> count_;
  std::vector<int> violations_;
  std::vector<int> drifted_;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_DDM_OCI_H_
