#ifndef CCD_DETECTORS_WSTD_H_
#define CCD_DETECTORS_WSTD_H_

#include <cstddef>
#include <vector>

#include "detectors/detector.h"

namespace ccd {

/// Fixed-capacity FIFO of bits with a running count of set bits: WSTD's
/// error history.
class BitRing {
 public:
  /// Empties the ring and sets its capacity (>= 1).
  void Reset(size_t capacity) {
    bits_.assign(capacity, false);
    head_ = size_ = ones_ = 0;
  }
  size_t size() const { return size_; }
  size_t ones() const { return ones_; }
  /// The i-th oldest bit.
  bool operator[](size_t i) const { return bits_[(head_ + i) % bits_.size()]; }
  /// Appends `bit`, first dropping the oldest bit when full.
  void PushBack(bool bit) {
    if (size_ == bits_.size()) {
      ones_ -= (*this)[0] ? 1 : 0;
      head_ = (head_ + 1) % bits_.size();
      --size_;
    }
    bits_[(head_ + size_++) % bits_.size()] = bit;
    ones_ += bit ? 1 : 0;
  }

 private:
  std::vector<bool> bits_;
  size_t head_ = 0, size_ = 0, ones_ = 0;
};

/// Wilcoxon rank Sum Test Drift detector (de Barros et al.,
/// Neurocomputing 2018).
///
/// Splits the recent prediction-correctness history into an "older"
/// sub-window (up to `max_old_instances`) and a "recent" sub-window of
/// `window_size` bits and compares them with the Wilcoxon rank-sum test
/// every `check_interval` observations: p-value below
/// `warning_significance` raises a warning, below `drift_significance` a
/// drift.
///
/// A check is O(1). The history is a ring of bits with running error
/// counts. Pooling z zeros and o ones, zeros share midrank (z + 1) / 2 and
/// ones z + (o + 1) / 2, so the rank sum and the tie term
/// (z^3 - z) + (o^3 - o) follow in closed form, exactly as a pooled sort
/// would find them (every rank sum stays below 2^53), and the p-value is
/// the same double.
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
  /// Throws ParamError naming the first out-of-domain field unless
  /// 2 <= window_size <= max_old_instances <= 2^24, check_interval >= 1
  /// and 0 < drift_significance <= warning_significance < 1. Outside that
  /// domain the history never reaches two windows and WSTD never fires.
  explicit Wstd(const Params& params);

  void AddError(bool error) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "WSTD"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  BitRing history_;  ///< true = error, oldest first.
  int since_check_ = 0;
  // ccd:state-skip(recent_errors_, recounted from history_ by LoadState)
  size_t recent_errors_ = 0;  ///< Errors among the last window_size bits.
};

}  // namespace ccd

#endif  // CCD_DETECTORS_WSTD_H_
