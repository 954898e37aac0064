#include "detectors/fhddm.h"

#include <cmath>

#include "io/codecs.h"
#include "utils/param_error.h"

namespace ccd {

Fhddm::Fhddm(const Params& params) : params_(params) {
  // An empty window never fills, so no test would ever run.
  ParamError::Require(params_.window_size >= 1, "fhddm.window_size",
                      "be >= 1", params_.window_size);
  Reset();
}

void Fhddm::Reset() {
  state_ = DetectorState::kStable;
  window_.clear();
  correct_ = 0;
  p_max_ = 0.0;
  epsilon_ = std::sqrt(std::log(1.0 / params_.delta) /
                       (2.0 * static_cast<double>(params_.window_size)));
}

void Fhddm::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  bool correct = !error;
  window_.push_back(correct);
  if (correct) ++correct_;
  if (static_cast<int>(window_.size()) > params_.window_size) {
    if (window_.front()) --correct_;
    window_.pop_front();
  }
  if (static_cast<int>(window_.size()) < params_.window_size) {
    state_ = DetectorState::kStable;
    return;
  }
  double p = static_cast<double>(correct_) / params_.window_size;
  if (p > p_max_) p_max_ = p;
  state_ = (p_max_ - p > epsilon_) ? DetectorState::kDrift
                                   : DetectorState::kStable;
}

void Fhddm::SaveState(io::Writer& w) const {
  w.BeginSection("FHDDM");
  io::WriteDetectorState(w, state_);
  io::WriteBoolDeque(w, window_);
  w.I64(correct_);
  w.F64(p_max_);
  w.EndSection();
}

void Fhddm::LoadState(io::Reader& r) {
  r.BeginSection("FHDDM");
  state_ = io::ReadDetectorState(r, "fhddm.state");
  window_ = io::ReadBoolDeque(r, "fhddm.window");
  if (window_.size() > static_cast<size_t>(params_.window_size)) {
    r.Fail("fhddm.window", "longer than window_size " +
                               std::to_string(params_.window_size));
  }
  correct_ = static_cast<int>(r.I64("fhddm.correct"));
  p_max_ = r.F64("fhddm.p_max");
  r.EndSection("FHDDM");
}

}  // namespace ccd
