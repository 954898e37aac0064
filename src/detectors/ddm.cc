#include "detectors/ddm.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

void Ddm::Reset() {
  state_ = DetectorState::kStable;
  n_ = 0;
  p_ = 0.0;
  p_min_ = 1e300;
  s_min_ = 1e300;
}

void Ddm::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  ++n_;
  p_ += (static_cast<double>(error) - p_) / static_cast<double>(n_);
  if (n_ < params_.min_instances) {
    state_ = DetectorState::kStable;
    return;
  }
  double s = std::sqrt(p_ * (1.0 - p_) / static_cast<double>(n_));
  if (p_ + s <= p_min_ + s_min_) {
    p_min_ = p_;
    s_min_ = s;
  }
  if (p_ + s > p_min_ + params_.drift_level * s_min_) {
    state_ = DetectorState::kDrift;
  } else if (p_ + s > p_min_ + params_.warning_level * s_min_) {
    state_ = DetectorState::kWarning;
  } else {
    state_ = DetectorState::kStable;
  }
}

void Ddm::SaveState(io::Writer& w) const {
  w.BeginSection("DDM");
  io::WriteDetectorState(w, state_);
  w.I64(n_);
  w.F64(p_);
  w.F64(p_min_);
  w.F64(s_min_);
  w.EndSection();
}

void Ddm::LoadState(io::Reader& r) {
  r.BeginSection("DDM");
  state_ = io::ReadDetectorState(r, "ddm.state");
  n_ = r.I64("ddm.n");
  p_ = r.F64("ddm.p");
  p_min_ = r.F64("ddm.p_min");
  s_min_ = r.F64("ddm.s_min");
  r.EndSection("DDM");
}

}  // namespace ccd
