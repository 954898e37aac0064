#ifndef CCD_DETECTORS_PAGE_HINKLEY_H_
#define CCD_DETECTORS_PAGE_HINKLEY_H_

#include "detectors/detector.h"

namespace ccd {

/// Page-Hinkley test (Page 1954; the streaming adaptation of Gama et al.),
/// a classic sequential change detector over the error indicator: maintains
/// the cumulative deviation of the signal from its running mean and fires
/// when it exceeds the historical minimum by more than `lambda`.
/// Included beyond the paper's baseline set to widen the detector zoo.
class PageHinkley : public ErrorRateDetector {
 public:
  struct Params {
    double delta = 0.005;   ///< Tolerated drift magnitude.
    double lambda = 50.0;   ///< Detection threshold.
    double alpha = 0.9999;  ///< Forgetting factor of the running mean.
    int min_instances = 30;
  };

  PageHinkley() : PageHinkley(Params()) {}
  explicit PageHinkley(const Params& params) : params_(params) { Reset(); }

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "PageHinkley"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  long long n_ = 0;
  double mean_ = 0.0;
  double cumulative_ = 0.0;
  double min_cumulative_ = 0.0;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_PAGE_HINKLEY_H_
