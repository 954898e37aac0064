#include "generators/imbalance.h"

#include <cmath>

namespace ccd {

const std::vector<double>& ImbalanceSchedule::Ladder(double ir) {
  if (!ladder_.empty() && ir == ladder_ir_) return ladder_;
  ladder_ir_ = ir;
  const int k = opt_.num_classes;
  ladder_.assign(static_cast<size_t>(k), 1.0);
  if (ir < 1.0) ir = 1.0;
  if (k > 1 && ir > 1.0) {
    // Geometric spacing: p_i ∝ ir^(-i/(k-1)), so p_0/p_{k-1} = ir exactly.
    double total = 0.0;
    for (int i = 0; i < k; ++i) {
      ladder_[i] = std::pow(ir, -static_cast<double>(i) / (k - 1));
      total += ladder_[i];
    }
    for (double& v : ladder_) v /= total;
  } else {
    for (double& v : ladder_) v = 1.0 / k;
  }
  return ladder_;
}

double ImbalanceSchedule::IrAt(uint64_t t) const {
  if (!opt_.dynamic || opt_.ir_period == 0) return opt_.base_ir;
  // Triangular wave between ir_low and ir_high.
  double phase = static_cast<double>(t % opt_.ir_period) /
                 static_cast<double>(opt_.ir_period);
  double tri = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
  return opt_.ir_low + (opt_.ir_high - opt_.ir_low) * tri;
}

int ImbalanceSchedule::RotationAt(uint64_t t) const {
  if (opt_.role_switch_period == 0) return 0;
  return static_cast<int>((t / opt_.role_switch_period) %
                          static_cast<uint64_t>(opt_.num_classes));
}

int ImbalanceSchedule::ClassAtRung(uint64_t t, int rung) const {
  const int k = opt_.num_classes;
  int rot = RotationAt(t);
  // Rotation r places class (rung + r) mod k on ladder rung `rung`.
  return (rung + rot) % k;
}

void ImbalanceSchedule::PriorsAt(uint64_t t, std::vector<double>* out) {
  const int k = opt_.num_classes;
  const std::vector<double>& ladder = Ladder(IrAt(t));
  std::vector<double>& cur = *out;
  cur.resize(static_cast<size_t>(k));
  int rot = RotationAt(t);
  for (int rung = 0; rung < k; ++rung) {
    cur[(rung + rot) % k] = ladder[rung];
  }
  if (opt_.role_switch_period == 0) return;

  // Cross-fade into the next rotation near the switch boundary so the
  // priors change continuously rather than jumping.
  uint64_t into = t % opt_.role_switch_period;
  uint64_t to_boundary = opt_.role_switch_period - into;
  if (to_boundary < opt_.role_switch_width) {
    double alpha = 1.0 - static_cast<double>(to_boundary) /
                             static_cast<double>(opt_.role_switch_width);
    // The next rotation places ladder rung (i - nrot) mod k on class i.
    int nrot = (rot + 1) % k;
    for (int i = 0; i < k; ++i) {
      cur[i] = (1.0 - alpha) * cur[i] + alpha * ladder[(i - nrot + k) % k];
    }
  }
}

}  // namespace ccd
