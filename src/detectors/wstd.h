#ifndef CCD_DETECTORS_WSTD_H_
#define CCD_DETECTORS_WSTD_H_

#include <deque>

#include "detectors/detector.h"

namespace ccd {

/// Wilcoxon rank Sum Test Drift detector (de Barros et al.,
/// Neurocomputing 2018).
///
/// Splits the recent prediction-correctness history into an "older"
/// sub-window (up to `max_old_instances`) and a "recent" sub-window of
/// `window_size` bits and compares them with the Wilcoxon rank-sum test:
/// p-value below `warning_significance` raises a warning, below
/// `drift_significance` a drift. The rank-sum test is O(n log n), so the
/// scan runs every `check_interval` observations (the cost the paper's
/// Tab. III reflects in WSTD's high test time).
class Wstd : public ErrorRateDetector {
 public:
  struct Params {
    int window_size = 50;
    double warning_significance = 0.01;
    double drift_significance = 0.0005;
    int max_old_instances = 2000;
    int check_interval = 8;
  };

  Wstd() : Wstd(Params()) {}
  explicit Wstd(const Params& params) : params_(params) { Reset(); }

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "WSTD"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  std::deque<double> history_;  ///< 1.0 = error, oldest first.
  int since_check_ = 0;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_WSTD_H_
