#include "detectors/rddm.h"

#include <cmath>

#include "io/codecs.h"
#include "utils/param_error.h"

namespace ccd {

Rddm::Rddm(const Params& params) : params_(params) {
  // The rebuilt window is a ring of min_instances error bits.
  ParamError::Require(params_.min_instances >= 1, "rddm.min_instances",
                      "be >= 1", params_.min_instances);
  Reset();
}

void Rddm::Reset() {
  state_ = DetectorState::kStable;
  SoftReset();
  recent_.assign(static_cast<size_t>(params_.min_instances), false);
  recent_pos_ = 0;
  recent_full_ = false;
}

void Rddm::SoftReset() {
  n_ = 0;
  errors_ = 0;
  p_ = 0.0;
  p_min_ = 1e300;
  s_min_ = 1e300;
  warn_count_ = 0;
}

void Rddm::Push(bool error) {
  recent_[recent_pos_] = error;
  recent_pos_ = (recent_pos_ + 1) % recent_.size();
  if (recent_pos_ == 0) recent_full_ = true;
}

void Rddm::AddError(bool error) {
  if (state_ == DetectorState::kDrift) {
    // Rebuild the statistics from the stored recent window so the detector
    // restarts already warmed up on the new concept.
    SoftReset();
    size_t count = recent_full_ ? recent_.size() : recent_pos_;
    size_t start = recent_full_ ? recent_pos_ : 0;
    long long replay_n = 0;
    double replay_p = 0.0;
    for (size_t i = 0; i < count; ++i) {
      bool e = recent_[(start + i) % recent_.size()];
      ++replay_n;
      replay_p += (static_cast<double>(e) - replay_p) / replay_n;
    }
    n_ = replay_n;
    p_ = replay_p;
    state_ = DetectorState::kStable;
  }

  Push(error);
  ++n_;
  if (error) ++errors_;
  p_ += (static_cast<double>(error) - p_) / static_cast<double>(n_);

  // Stale-history pruning: restart statistics from the recent window.
  if (n_ > params_.max_instances) {
    double keep_p_min = p_min_, keep_s_min = s_min_;
    SoftReset();
    size_t count = recent_full_ ? recent_.size() : recent_pos_;
    size_t start = recent_full_ ? recent_pos_ : 0;
    for (size_t i = 0; i < count; ++i) {
      bool e = recent_[(start + i) % recent_.size()];
      ++n_;
      p_ += (static_cast<double>(e) - p_) / static_cast<double>(n_);
    }
    p_min_ = keep_p_min;
    s_min_ = keep_s_min;
  }

  if (errors_ < params_.min_errors) {
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
    return;
  }
  if (p_ + s > p_min_ + params_.warning_level * s_min_) {
    state_ = DetectorState::kWarning;
    if (++warn_count_ > params_.warn_limit) {
      state_ = DetectorState::kDrift;
      warn_count_ = 0;
    }
  } else {
    state_ = DetectorState::kStable;
    warn_count_ = 0;
  }
}

void Rddm::SaveState(io::Writer& w) const {
  w.BeginSection("RDDM");
  io::WriteDetectorState(w, state_);
  w.I64(n_);
  w.I64(errors_);
  w.F64(p_);
  w.F64(p_min_);
  w.F64(s_min_);
  w.I64(warn_count_);
  io::WriteBoolVector(w, recent_);
  w.U64(recent_pos_);
  w.Bool(recent_full_);
  w.EndSection();
}

void Rddm::LoadState(io::Reader& r) {
  r.BeginSection("RDDM");
  state_ = io::ReadDetectorState(r, "rddm.state");
  n_ = r.I64("rddm.n");
  errors_ = r.I64("rddm.errors");
  p_ = r.F64("rddm.p");
  p_min_ = r.F64("rddm.p_min");
  s_min_ = r.F64("rddm.s_min");
  warn_count_ = static_cast<int>(r.I64("rddm.warn_count"));
  recent_ = io::ReadBoolVector(r, "rddm.recent");
  if (recent_.size() != static_cast<size_t>(params_.min_instances)) {
    r.Fail("rddm.recent", "circular buffer of " +
                              std::to_string(recent_.size()) +
                              " bits, min_instances is " +
                              std::to_string(params_.min_instances));
  }
  uint64_t pos = r.U64("rddm.recent_pos");
  if (pos >= recent_.size()) {
    r.Fail("rddm.recent_pos",
           "cursor " + std::to_string(pos) + " outside circular buffer of " +
               std::to_string(recent_.size()));
  }
  recent_pos_ = static_cast<size_t>(pos);
  recent_full_ = r.Bool("rddm.recent_full");
  r.EndSection("RDDM");
}

}  // namespace ccd
