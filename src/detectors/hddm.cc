#include "detectors/hddm.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

void HddmA::Reset() {
  state_ = DetectorState::kStable;
  n_ = 0.0;
  sum_ = 0.0;
  n_min_ = 0.0;
  sum_min_ = 0.0;
  best_bound_ = 1e300;
}

double HddmA::Bound(double n, double confidence) const {
  if (n <= 0.0) return 1e300;
  return std::sqrt(1.0 / (2.0 * n) * std::log(1.0 / confidence));
}

void HddmA::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  n_ += 1.0;
  sum_ += error ? 1.0 : 0.0;
  double mean = sum_ / n_;
  double upper = mean + Bound(n_, params_.drift_confidence);
  if (upper < best_bound_) {
    best_bound_ = upper;
    n_min_ = n_;
    sum_min_ = sum_;
  }

  if (n_ < params_.min_instances || n_min_ <= 0.0 || n_ <= n_min_) {
    state_ = DetectorState::kStable;
    return;
  }
  double n_suffix = n_ - n_min_;
  double mean_prefix = sum_min_ / n_min_;
  double mean_suffix = (sum_ - sum_min_) / n_suffix;
  double m = 1.0 / (1.0 / n_min_ + 1.0 / n_suffix);
  double diff = mean_suffix - mean_prefix;
  if (diff > Bound(m, params_.drift_confidence)) {
    state_ = DetectorState::kDrift;
  } else if (diff > Bound(m, params_.warning_confidence)) {
    state_ = DetectorState::kWarning;
  } else {
    state_ = DetectorState::kStable;
  }
}

void HddmA::SaveState(io::Writer& w) const {
  w.BeginSection("HDDM-A");
  io::WriteDetectorState(w, state_);
  w.F64(n_);
  w.F64(sum_);
  w.F64(n_min_);
  w.F64(sum_min_);
  w.F64(best_bound_);
  w.EndSection();
}

void HddmA::LoadState(io::Reader& r) {
  r.BeginSection("HDDM-A");
  state_ = io::ReadDetectorState(r, "hddm.state");
  n_ = r.F64("hddm.n");
  sum_ = r.F64("hddm.sum");
  n_min_ = r.F64("hddm.n_min");
  sum_min_ = r.F64("hddm.sum_min");
  best_bound_ = r.F64("hddm.best_bound");
  r.EndSection("HDDM-A");
}

}  // namespace ccd
