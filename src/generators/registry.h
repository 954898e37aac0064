#ifndef CCD_GENERATORS_REGISTRY_H_
#define CCD_GENERATORS_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "generators/drifting_stream.h"

namespace ccd {

/// Static description of one benchmark stream (a row of the paper's
/// Table I).
struct StreamSpec {
  std::string name;
  uint64_t full_length = 0;  ///< Instances in the paper's version.
  int num_features = 0;
  int num_classes = 0;
  double imbalance_ratio = 1.0;  ///< Max class / min class ratio.
  DriftType drift_type = DriftType::kGradual;
  int drift_events = 3;       ///< 0 = stationary.
  bool real_world = false;    ///< True for the Tab. I real-world rows
                              ///< (simulated here — see DESIGN.md).
};

/// Knobs used by the experiment harnesses when instantiating a spec.
struct BuildOptions {
  uint64_t seed = 42;
  /// Stream length multiplier relative to the paper's size (floored at
  /// 4000 instances so tiny scales still contain every drift event).
  double scale = 1.0;
  /// Override the spec's imbalance ratio (Experiment 3); <0 keeps spec.
  double ir_override = -1.0;
  /// If >= 0, only the `local_drift_classes` smallest classes are affected
  /// by the drift events (Experiment 2); <0 keeps global drift.
  int local_drift_classes = -1;
  /// Enables class-role switching (Scenarios 2-3).
  bool role_switching = false;
  /// Overrides the number of drift events; <0 keeps spec.
  int events_override = -1;
  /// Label noise probability applied after generation.
  double label_noise = 0.0;
};

/// A ready-to-run stream plus its realized length.
struct BuiltStream {
  std::unique_ptr<DriftingClassStream> stream;
  uint64_t length = 0;
  StreamSpec spec;
};

/// All 24 Table I benchmarks: 12 real-world substitutes then 12 artificial.
const std::vector<StreamSpec>& AllStreamSpecs();

/// The 12 artificial benchmarks (Agrawal/Hyperplane/RBF/RandomTree x K).
std::vector<StreamSpec> ArtificialStreamSpecs();

/// Looks a spec up by name; returns nullptr when unknown.
const StreamSpec* FindStreamSpec(const std::string& name);

/// The number of instances BuildStream(spec, options) realizes:
/// full_length x scale, floored at 4000. Throws std::invalid_argument
/// naming the field when (spec, options) is not buildable:
/// num_features < 1, num_classes < 2, a non-finite or < 1 imbalance_ratio
/// (or ir_override, when set), drift_events < 0, a non-finite or <= 0
/// scale (or one whose length overflows), or label_noise outside [0, 1].
uint64_t StreamLength(const StreamSpec& spec, const BuildOptions& options);

/// Instantiates a benchmark stream of StreamLength(spec, options)
/// instances, refusing what StreamLength refuses. The same (spec, options)
/// pair always produces an identical instance sequence.
BuiltStream BuildStream(const StreamSpec& spec, const BuildOptions& options);

}  // namespace ccd

#endif  // CCD_GENERATORS_REGISTRY_H_
