#include "detectors/page_hinkley.h"

#include <algorithm>

#include "io/codecs.h"

namespace ccd {

void PageHinkley::Reset() {
  state_ = DetectorState::kStable;
  n_ = 0;
  mean_ = 0.0;
  cumulative_ = 0.0;
  min_cumulative_ = 0.0;
}

void PageHinkley::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  double x = error ? 1.0 : 0.0;
  ++n_;
  // Fading mean keeps the reference adaptive on very long streams.
  mean_ = mean_ + (x - mean_) / std::min<double>(
                                   static_cast<double>(n_),
                                   1.0 / (1.0 - params_.alpha));
  cumulative_ += x - mean_ - params_.delta;
  min_cumulative_ = std::min(min_cumulative_, cumulative_);

  if (n_ < params_.min_instances) return;
  double ph = cumulative_ - min_cumulative_;
  if (ph > params_.lambda) {
    state_ = DetectorState::kDrift;
  } else if (ph > 0.8 * params_.lambda) {
    state_ = DetectorState::kWarning;
  } else {
    state_ = DetectorState::kStable;
  }
}

void PageHinkley::SaveState(io::Writer& w) const {
  w.BeginSection("PageHinkley");
  io::WriteDetectorState(w, state_);
  w.I64(n_);
  w.F64(mean_);
  w.F64(cumulative_);
  w.F64(min_cumulative_);
  w.EndSection();
}

void PageHinkley::LoadState(io::Reader& r) {
  r.BeginSection("PageHinkley");
  state_ = io::ReadDetectorState(r, "ph.state");
  n_ = r.I64("ph.n");
  mean_ = r.F64("ph.mean");
  cumulative_ = r.F64("ph.cumulative");
  min_cumulative_ = r.F64("ph.min_cumulative");
  r.EndSection("PageHinkley");
}

}  // namespace ccd
