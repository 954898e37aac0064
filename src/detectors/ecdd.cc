#include "detectors/ecdd.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

void Ecdd::Reset() {
  state_ = DetectorState::kStable;
  n_ = 0;
  p_hat_ = 0.0;
  z_ = 0.0;
}

void Ecdd::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  double x = error ? 1.0 : 0.0;
  ++n_;
  p_hat_ += (x - p_hat_) / static_cast<double>(n_);
  z_ = (1.0 - params_.lambda) * z_ + params_.lambda * x;

  if (n_ < params_.min_instances) {
    state_ = DetectorState::kStable;
    return;
  }
  // Exact EWMA variance after n steps under Bernoulli(p_hat).
  double lam = params_.lambda;
  double var_factor =
      lam / (2.0 - lam) *
      (1.0 - std::pow(1.0 - lam, 2.0 * static_cast<double>(n_)));
  double sigma = std::sqrt(p_hat_ * (1.0 - p_hat_) * var_factor);
  if (sigma <= 0.0) {
    state_ = DetectorState::kStable;
    return;
  }
  if (z_ > p_hat_ + params_.drift_l * sigma) {
    state_ = DetectorState::kDrift;
  } else if (z_ > p_hat_ + params_.warning_l * sigma) {
    state_ = DetectorState::kWarning;
  } else {
    state_ = DetectorState::kStable;
  }
}

void Ecdd::SaveState(io::Writer& w) const {
  w.BeginSection("ECDD");
  io::WriteDetectorState(w, state_);
  w.I64(n_);
  w.F64(p_hat_);
  w.F64(z_);
  w.EndSection();
}

void Ecdd::LoadState(io::Reader& r) {
  r.BeginSection("ECDD");
  state_ = io::ReadDetectorState(r, "ecdd.state");
  n_ = r.I64("ecdd.n");
  p_hat_ = r.F64("ecdd.p_hat");
  z_ = r.F64("ecdd.z");
  r.EndSection("ECDD");
}

}  // namespace ccd
