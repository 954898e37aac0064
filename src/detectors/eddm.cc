#include "detectors/eddm.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

void Eddm::Reset() {
  state_ = DetectorState::kStable;
  instances_ = 0;
  last_error_at_ = 0;
  num_errors_ = 0;
  dist_mean_ = 0.0;
  dist_m2_ = 0.0;
  max_stat_ = -1e300;
}

void Eddm::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  ++instances_;
  if (!error) {
    if (state_ == DetectorState::kWarning) state_ = DetectorState::kWarning;
    return;
  }
  double distance = static_cast<double>(instances_ - last_error_at_);
  last_error_at_ = instances_;
  ++num_errors_;
  double delta = distance - dist_mean_;
  dist_mean_ += delta / static_cast<double>(num_errors_);
  dist_m2_ += delta * (distance - dist_mean_);
  if (num_errors_ < params_.min_errors) {
    state_ = DetectorState::kStable;
    return;
  }
  double var = dist_m2_ / static_cast<double>(num_errors_);
  double stat = dist_mean_ + 2.0 * std::sqrt(var);
  if (stat > max_stat_) {
    max_stat_ = stat;
    state_ = DetectorState::kStable;
    return;
  }
  double ratio = stat / max_stat_;
  if (ratio < params_.beta) {
    state_ = DetectorState::kDrift;
  } else if (ratio < params_.alpha) {
    state_ = DetectorState::kWarning;
  } else {
    state_ = DetectorState::kStable;
  }
}

void Eddm::SaveState(io::Writer& w) const {
  w.BeginSection("EDDM");
  io::WriteDetectorState(w, state_);
  w.I64(instances_);
  w.I64(last_error_at_);
  w.I64(num_errors_);
  w.F64(dist_mean_);
  w.F64(dist_m2_);
  w.F64(max_stat_);
  w.EndSection();
}

void Eddm::LoadState(io::Reader& r) {
  r.BeginSection("EDDM");
  state_ = io::ReadDetectorState(r, "eddm.state");
  instances_ = r.I64("eddm.instances");
  last_error_at_ = r.I64("eddm.last_error_at");
  num_errors_ = r.I64("eddm.num_errors");
  dist_mean_ = r.F64("eddm.dist_mean");
  dist_m2_ = r.F64("eddm.dist_m2");
  max_stat_ = r.F64("eddm.max_stat");
  r.EndSection("EDDM");
}

}  // namespace ccd
