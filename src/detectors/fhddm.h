#ifndef CCD_DETECTORS_FHDDM_H_
#define CCD_DETECTORS_FHDDM_H_

#include <deque>

#include "detectors/detector.h"

namespace ccd {

/// Fast Hoeffding Drift Detection Method (Pesaranghader & Viktor,
/// ECML-PKDD 2016).
///
/// Slides a window of the last `window_size` correct-prediction bits,
/// remembers the maximum in-window accuracy p_max seen on the current
/// concept, and signals drift when accuracy falls below p_max by more than
/// the Hoeffding deviation eps = sqrt(ln(1/delta) / (2*window_size)).
class Fhddm : public ErrorRateDetector {
 public:
  struct Params {
    int window_size = 100;
    double delta = 1e-6;
  };

  Fhddm() : Fhddm(Params()) {}
  /// Throws ParamError unless window_size >= 1.
  explicit Fhddm(const Params& params);

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "FHDDM"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  std::deque<bool> window_;  ///< true = correct prediction.
  int correct_ = 0;
  double p_max_ = 0.0;
  // ccd:state-skip(epsilon_, derived from params_ by Reset at construction; never changes after)
  double epsilon_ = 0.0;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_FHDDM_H_
