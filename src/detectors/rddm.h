#ifndef CCD_DETECTORS_RDDM_H_
#define CCD_DETECTORS_RDDM_H_

#include <vector>

#include "detectors/detector.h"

namespace ccd {

/// Reactive Drift Detection Method (de Barros et al., ESWA 2017).
///
/// A DDM derivative that fixes DDM's desensitization on long stable runs:
/// it keeps a bounded buffer of recent predictions, periodically rebuilds
/// the DDM statistics from only that recent window (discarding stale
/// history), and force-fires a drift when a warning persists for more than
/// `warn_limit` instances.
class Rddm : public ErrorRateDetector {
 public:
  struct Params {
    double warning_level = 1.773;
    double drift_level = 2.258;
    int min_errors = 30;        ///< Errors required before testing.
    int min_instances = 3000;   ///< Size of the rebuilt window.
    int max_instances = 30000;  ///< Rebuild when the run exceeds this.
    int warn_limit = 1200;      ///< Persisting warning forces a drift.
  };

  Rddm() : Rddm(Params()) {}
  /// Throws ParamError unless min_instances >= 1.
  explicit Rddm(const Params& params);

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "RDDM"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  void SoftReset();
  void Push(bool error);

  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  long long n_ = 0;
  long long errors_ = 0;
  double p_ = 0.0;
  double p_min_ = 1e300;
  double s_min_ = 1e300;
  int warn_count_ = 0;
  std::vector<bool> recent_;  ///< Circular buffer of recent error bits.
  size_t recent_pos_ = 0;
  bool recent_full_ = false;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_RDDM_H_
