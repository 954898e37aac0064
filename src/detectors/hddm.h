#ifndef CCD_DETECTORS_HDDM_H_
#define CCD_DETECTORS_HDDM_H_

#include "detectors/detector.h"

namespace ccd {

/// HDDM-A (Frias-Blanco et al., TKDE 2015): drift detection via Hoeffding's
/// inequality on moving averages, A-test variant.
///
/// Tracks the overall error mean and the prefix that minimizes the upper
/// confidence bound on the mean (the "best" historical regime). Drift fires
/// when the suffix mean after that prefix exceeds the prefix mean by more
/// than the Hoeffding deviation at confidence `drift_confidence`.
class HddmA : public ErrorRateDetector {
 public:
  struct Params {
    double drift_confidence = 0.001;
    double warning_confidence = 0.005;
    int min_instances = 30;
  };

  HddmA() : HddmA(Params()) {}
  explicit HddmA(const Params& params) : params_(params) { Reset(); }

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "HDDM-A"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  double Bound(double n, double confidence) const;

  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  double n_ = 0.0;
  double sum_ = 0.0;
  double n_min_ = 0.0;
  double sum_min_ = 0.0;
  double best_bound_ = 1e300;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_HDDM_H_
