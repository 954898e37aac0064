#ifndef CCD_DETECTORS_EDDM_H_
#define CCD_DETECTORS_EDDM_H_

#include "detectors/detector.h"

namespace ccd {

/// Early Drift Detection Method (Baena-Garcia et al., 2006).
///
/// Instead of the raw error rate, EDDM monitors the *distance* (number of
/// instances) between consecutive errors: a stable concept keeps the mean
/// distance p' growing; a (slow, gradual) drift shrinks it. The statistic
/// (p' + 2s') is compared against its historical maximum: warning below
/// `alpha`, drift below `beta` of the maximum.
class Eddm : public ErrorRateDetector {
 public:
  struct Params {
    double alpha = 0.95;  ///< Warning ratio.
    double beta = 0.90;   ///< Drift ratio.
    int min_errors = 30;  ///< Errors required before testing.
  };

  Eddm() : Eddm(Params()) {}
  explicit Eddm(const Params& params) : params_(params) { Reset(); }

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "EDDM"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  long long instances_ = 0;
  long long last_error_at_ = 0;
  long long num_errors_ = 0;
  double dist_mean_ = 0.0;
  double dist_m2_ = 0.0;
  double max_stat_ = -1e300;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_EDDM_H_
