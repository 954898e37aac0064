#include "detectors/wstd.h"

#include <cmath>
#include <deque>

#include "io/codecs.h"
#include "stats/distributions.h"
#include "utils/param_error.h"

namespace ccd {
namespace {

/// Two-sided p-value of the tie-corrected Wilcoxon rank-sum test between
/// `older` 0/1 values holding `older_ones` ones and `recent` values holding
/// `recent_ones`, with the pooled-sort test's expressions and operand order.
double RankSumPValue(size_t older, size_t older_ones, size_t recent,
                     size_t recent_ones) {
  const size_t ones = older_ones + recent_ones;
  const size_t zeros = older + recent - ones;
  // Doubled older rank sum: zeros rank (z + 1) / 2, ones z + (o + 1) / 2.
  const size_t twice_rank_sum = (older - older_ones) * (zeros + 1) +
                                older_ones * (2 * zeros + ones + 1);
  const double rank_sum_a = 0.5 * static_cast<double>(twice_rank_sum);
  double tie_term = 0.0;
  for (size_t group : {zeros, ones}) {
    const double t = static_cast<double>(group);
    if (t > 1.0) tie_term += t * t * t - t;
  }

  const double n1 = static_cast<double>(older);
  const double n2 = static_cast<double>(recent);
  double u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
  double mu = n1 * n2 / 2.0;
  double n = n1 + n2;
  double sigma2 =
      n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  // All values tied: the two windows are indistinguishable.
  if (sigma2 <= 0.0) return 1.0;
  return NormalTwoSidedPValue((u - mu) / std::sqrt(sigma2));
}

void ValidateParams(const Wstd::Params& p) {
  ParamError::Require(p.window_size >= 2, "wstd.window_size", "be >= 2",
                      p.window_size);
  ParamError::Require(
      p.max_old_instances >= p.window_size &&
          p.max_old_instances <= (1 << 24),
      "wstd.max_old_instances", "be >= window_size and <= 2^24",
      p.max_old_instances);
  ParamError::Require(p.check_interval >= 1, "wstd.check_interval",
                      "be >= 1", p.check_interval);
  ParamError::Require(
      p.warning_significance > 0.0 && p.warning_significance < 1.0,
      "wstd.warning_significance", "be in (0, 1)", p.warning_significance);
  ParamError::Require(
      p.drift_significance > 0.0 &&
          p.drift_significance <= p.warning_significance,
      "wstd.drift_significance", "be in (0, warning_significance]",
      p.drift_significance);
}

}  // namespace

Wstd::Wstd(const Params& params) : params_(params) {
  ValidateParams(params_);
  Reset();
}

void Wstd::Reset() {
  state_ = DetectorState::kStable;
  history_.Reset(static_cast<size_t>(params_.max_old_instances) +
                 static_cast<size_t>(params_.window_size));
  since_check_ = 0;
  recent_errors_ = 0;
}

void Wstd::AddError(bool error) {
  if (state_ == DetectorState::kDrift) Reset();

  // The recent sub-window's oldest bit moves to the older one; a full ring
  // then drops an older bit (the capacity exceeds window_size).
  const size_t window = static_cast<size_t>(params_.window_size);
  if (history_.size() >= window) {
    recent_errors_ -= history_[history_.size() - window] ? 1 : 0;
  }
  history_.PushBack(error);
  recent_errors_ += error ? 1 : 0;

  if (history_.size() < 2 * window) {
    state_ = DetectorState::kStable;
    return;
  }
  if (++since_check_ < params_.check_interval) return;
  since_check_ = 0;

  const double p_value =
      RankSumPValue(history_.size() - window, history_.ones() - recent_errors_,
                    window, recent_errors_);
  if (p_value < params_.drift_significance) {
    state_ = DetectorState::kDrift;
  } else if (p_value < params_.warning_significance) {
    state_ = DetectorState::kWarning;
  } else {
    state_ = DetectorState::kStable;
  }
}

void Wstd::SaveState(io::Writer& w) const {
  w.BeginSection("WSTD");
  io::WriteDetectorState(w, state_);
  // The wire keeps the history as doubles, 1.0 = error, oldest first.
  std::deque<double> history(history_.size());
  for (size_t i = 0; i < history.size(); ++i) history[i] = history_[i];
  io::WriteF64Deque(w, history);
  w.I64(since_check_);
  w.EndSection();
}

void Wstd::LoadState(io::Reader& r) {
  r.BeginSection("WSTD");
  Reset();
  state_ = io::ReadDetectorState(r, "wstd.state");
  const std::deque<double> history = io::ReadF64Deque(r, "wstd.history");
  const size_t window = static_cast<size_t>(params_.window_size);
  if (history.size() >
      static_cast<size_t>(params_.max_old_instances) + window) {
    r.Fail("wstd.history", "longer than max_old_instances + window_size");
  }
  for (size_t i = 0; i < history.size(); ++i) {
    if (history[i] != 0.0 && history[i] != 1.0) {
      r.Fail("wstd.history", "holds a value other than 0.0 and 1.0");
    }
    history_.PushBack(history[i] == 1.0);
    if (i + window >= history.size() && history[i] == 1.0) ++recent_errors_;
  }
  since_check_ = static_cast<int>(r.I64("wstd.since_check"));
  r.EndSection("WSTD");
}

}  // namespace ccd
