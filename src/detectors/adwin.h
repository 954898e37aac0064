#ifndef CCD_DETECTORS_ADWIN_H_
#define CCD_DETECTORS_ADWIN_H_

#include <deque>
#include <vector>

#include "detectors/detector.h"

namespace ccd {

/// ADaptive WINdowing (Bifet & Gavaldà, SDM 2007).
///
/// Maintains a variable-length window of the monitored real-valued signal
/// in exponential-histogram buckets. Whenever the means of any two adjacent
/// sub-windows differ by more than a Hoeffding-style cut threshold, the
/// older sub-window is dropped and a change is reported. Besides acting as
/// a drift detector, ADWIN serves as the *self-adaptive window size*
/// oracle for RBM-IM's trend tracking (Sec. V-B of the paper cites it for
/// exactly this purpose).
class Adwin : public ErrorRateDetector {
 public:
  struct Params {
    double delta = 0.002;     ///< Confidence of the cut test.
    int max_buckets = 5;      ///< Buckets per exponential row.
    int min_window = 10;      ///< No cuts below this total length.
    int check_interval = 4;   ///< Run the cut scan every k-th insert.
  };

  Adwin() : Adwin(Params()) {}
  /// Throws ParamError unless max_buckets >= 1.
  explicit Adwin(const Params& params);

  /// Inserts a real-valued observation (not only 0/1 errors).
  void AddValue(double value);

  void AddError(bool error) override { AddValue(error ? 1.0 : 0.0); }
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "ADWIN"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

  /// Current adaptive window length.
  long long width() const { return total_count_; }
  /// Mean of the current window.
  double mean() const {
    return total_count_ > 0 ? total_sum_ / static_cast<double>(total_count_)
                            : 0.0;
  }

 private:
  struct Bucket {
    double sum = 0.0;
    double variance_sum = 0.0;  // Within-bucket variance * count.
    long long count = 0;
  };

  void Compress();
  bool DetectCut();

  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  /// rows_[r] holds buckets of capacity 2^r, newest first within a row.
  std::vector<std::deque<Bucket>> rows_;
  double total_sum_ = 0.0;
  double total_var_ = 0.0;
  long long total_count_ = 0;
  long long since_check_ = 0;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_ADWIN_H_
