#ifndef CCD_GENERATORS_IMBALANCE_H_
#define CCD_GENERATORS_IMBALANCE_H_

#include <cstdint>
#include <vector>

namespace ccd {

/// Time-varying class prior schedule π(t) modelling the paper's three
/// imbalance difficulties:
///
///  * static skew           — a geometric "ladder" of priors whose
///                            largest/smallest ratio equals `base_ir`;
///  * dynamic imbalance     — the instantaneous imbalance ratio oscillates
///                            (triangular wave) between `ir_low` and
///                            `ir_high` with period `ir_period`;
///  * changing class roles  — every `role_switch_period` instances the
///                            prior ladder is rotated by one class (the
///                            majority becomes the smallest minority and
///                            every other class moves one rung up), with a
///                            linear cross-fade over `role_switch_width`.
///
/// All three compose; Scenario 1 uses dynamics only, Scenarios 2-3 add role
/// switching (Sec. IV of the paper).
class ImbalanceSchedule {
 public:
  struct Options {
    int num_classes = 2;
    double base_ir = 1.0;          ///< max/min prior ratio when static.
    bool dynamic = false;          ///< Oscillate IR over time.
    double ir_low = 1.0;
    double ir_high = 1.0;
    uint64_t ir_period = 100000;   ///< Full low->high->low cycle length.
    uint64_t role_switch_period = 0;  ///< 0 disables role switching.
    uint64_t role_switch_width = 1000;
  };

  explicit ImbalanceSchedule(const Options& options) : opt_(options) {}

  /// Uniform priors helper.
  static ImbalanceSchedule Uniform(int num_classes) {
    Options o;
    o.num_classes = num_classes;
    return ImbalanceSchedule(o);
  }

  /// Writes the class priors at stream position `t` into `*out` (resized
  /// to num_classes); they always sum to 1. The prior ladder is rebuilt
  /// only when the ratio moves, so a static ratio costs no pow() per call
  /// and a reused `out` allocates nothing.
  void PriorsAt(uint64_t t, std::vector<double>* out);

  /// Instantaneous imbalance ratio at `t` (max prior / min prior).
  double IrAt(uint64_t t) const;

  /// Index of the class occupying ladder rung `rung` (0 = majority) at
  /// time t, ignoring any cross-fade. Exposes the role assignment so tests
  /// and harnesses can identify the "smallest class" at a given moment.
  int ClassAtRung(uint64_t t, int rung) const;

  const Options& options() const { return opt_; }

 private:
  /// The geometric ladder for ratio `ir`, cached while `ir` repeats.
  const std::vector<double>& Ladder(double ir);
  int RotationAt(uint64_t t) const;

  Options opt_;
  std::vector<double> ladder_;  ///< Empty until the first Ladder() call.
  double ladder_ir_ = 0.0;      ///< The ratio ladder_ was built for.
};

}  // namespace ccd

#endif  // CCD_GENERATORS_IMBALANCE_H_
