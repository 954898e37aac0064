#ifndef CCD_DETECTORS_DDM_H_
#define CCD_DETECTORS_DDM_H_

#include "detectors/detector.h"

namespace ccd {

/// Drift Detection Method (Gama et al., SBIA 2004).
///
/// Models the classifier's error count as a binomial process: tracks the
/// running error rate p_i with deviation s_i = sqrt(p_i(1-p_i)/i) and the
/// historical minimum of p+s. Warning fires when p_i + s_i exceeds
/// p_min + warning_level * s_min; drift when it exceeds
/// p_min + drift_level * s_min (classically 2 and 3 sigma).
class Ddm : public ErrorRateDetector {
 public:
  struct Params {
    double warning_level = 2.0;
    double drift_level = 3.0;
    int min_instances = 30;
  };

  Ddm() : Ddm(Params()) {}
  explicit Ddm(const Params& params) : params_(params) { Reset(); }

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "DDM"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  long long n_ = 0;
  double p_ = 0.0;
  double p_min_ = 1e300;
  double s_min_ = 1e300;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_DDM_H_
