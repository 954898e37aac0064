#ifndef CCD_GENERATORS_DRIFTING_STREAM_H_
#define CCD_GENERATORS_DRIFTING_STREAM_H_

#include <map>
#include <memory>
#include <vector>

#include "generators/concept.h"
#include "generators/drift.h"
#include "generators/imbalance.h"
#include "stream/stream.h"
#include "utils/rng.h"

namespace ccd {

/// The library's universal drifting-stream composer.
///
/// A stream is a chain of Concepts C_0 -> C_1 -> ... with one DriftEvent per
/// transition, an ImbalanceSchedule giving the class priors π(t), and an
/// optional label-noise rate. Sampling order per instance:
///
///   1. draw class  y ~ π(t)                       (imbalance / class roles)
///   2. resolve which concept(s) currently govern  (global or local drift —
///      classes outside an event's `affected` set simply never advance)
///   3. draw features x | y from the governing concept, mixing or
///      interpolating during a transition window (Eq. 2-5)
///
/// This realizes all three of the paper's scenarios with one mechanism:
/// Scenario 1 = global events + dynamic IR; Scenario 2 adds role switching
/// in the schedule; Scenario 3 restricts `affected` to a class subset.
class DriftingClassStream : public InstanceStream {
 public:
  struct Options {
    double label_noise = 0.0;  ///< Probability of replacing y by random.
    /// Incremental transitions rebuild the interpolated concept every time
    /// alpha moves by this much (cost/fidelity knob).
    double interpolation_step = 0.02;
  };

  /// `concepts.size()` must be `events.size() + 1`; events must be sorted by
  /// start and non-overlapping. All concepts must share one schema.
  DriftingClassStream(std::vector<std::unique_ptr<Concept>> concepts,
                      std::vector<DriftEvent> events,
                      ImbalanceSchedule imbalance, uint64_t seed,
                      Options options);
  DriftingClassStream(std::vector<std::unique_ptr<Concept>> concepts,
                      std::vector<DriftEvent> events,
                      ImbalanceSchedule imbalance, uint64_t seed)
      : DriftingClassStream(std::move(concepts), std::move(events),
                            std::move(imbalance), seed, Options()) {}

  const StreamSchema& schema() const override { return schema_; }
  Instance Next() override;
  /// Next() into a caller-owned row: overwrites `*out`'s features, label
  /// and weight, reusing the feature capacity, so a reused row allocates
  /// nothing. Bit-identical to Next().
  void NextInto(Instance* out);
  uint64_t position() const override { return pos_; }

  const std::vector<DriftEvent>& events() const { return events_; }
  const ImbalanceSchedule& imbalance() const { return imbalance_; }

  /// True ground-truth answer to "is class k inside a drift transition or
  /// within `slack` instances after one at stream position t". Used by the
  /// detection-quality harnesses to score detectors.
  bool ClassDriftActiveAt(uint64_t t, int k, uint64_t slack = 0) const;

 private:
  struct Governing {
    int old_index = 0;
    int new_index = 0;
    double alpha = 1.0;  ///< 1 when no transition pending.
    DriftType type = DriftType::kSudden;
    int event_index = -1;  ///< -1 when fully settled.
  };

  Governing Resolve(uint64_t t, int label) const;
  const Concept* InterpolatedConcept(int event_index, double alpha);

  StreamSchema schema_;
  std::vector<std::unique_ptr<Concept>> concepts_;
  std::vector<DriftEvent> events_;
  ImbalanceSchedule imbalance_;
  Options opt_;
  Rng rng_;
  uint64_t pos_ = 0;
  std::vector<double> priors_;  ///< PriorsAt scratch.

  // Cache of interpolated concepts keyed by (event, quantized alpha).
  std::map<std::pair<int, int>, std::unique_ptr<Concept>> interp_cache_;
};

}  // namespace ccd

#endif  // CCD_GENERATORS_DRIFTING_STREAM_H_
