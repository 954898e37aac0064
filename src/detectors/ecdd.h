#ifndef CCD_DETECTORS_ECDD_H_
#define CCD_DETECTORS_ECDD_H_

#include "detectors/detector.h"

namespace ccd {

/// ECDD (Ross et al., 2012): an EWMA control chart for the Bernoulli error
/// stream. Tracks the exponentially weighted error estimate Z_t and its
/// analytic standard deviation under the estimated stationary rate p̂_t;
/// fires when Z_t exceeds p̂_t + L·σ_Z. Another classic lightweight
/// baseline beyond the paper's set.
class Ecdd : public ErrorRateDetector {
 public:
  struct Params {
    double lambda = 0.05;  ///< EWMA smoothing of the monitored estimate.
    double drift_l = 4.0;  ///< Control limit in sigmas.
    double warning_l = 2.5;
    int min_instances = 30;
  };

  Ecdd() : Ecdd(Params()) {}
  explicit Ecdd(const Params& params) : params_(params) { Reset(); }

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "ECDD"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  long long n_ = 0;
  double p_hat_ = 0.0;  ///< Running estimate of the stationary error rate.
  double z_ = 0.0;      ///< EWMA of the error indicator.
};

}  // namespace ccd

#endif  // CCD_DETECTORS_ECDD_H_
