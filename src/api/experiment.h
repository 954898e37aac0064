#ifndef CCD_API_EXPERIMENT_H_
#define CCD_API_EXPERIMENT_H_

#include <memory>
#include <string>

#include "api/component_registry.h"
#include "api/param_map.h"
#include "eval/prequential.h"
#include "generators/registry.h"

namespace ccd {
namespace api {

/// Fluent builder of one prequential experiment: a benchmark stream, a
/// base classifier, an optional drift detector, and the evaluation
/// protocol. This is the library's front door — bench binaries, examples
/// and tests all compose runs through it:
///
///   PrequentialResult r = api::Experiment()
///                             .Stream("RBF10")
///                             .Scale(0.01)
///                             .Seed(42)
///                             .Detector("RBM-IM", {"batch_size=75",
///                                                  "trigger=granger"})
///                             .Run();
///
/// Defaults: classifier "cs-ptree" (the paper's base learner), no
/// detector, BuildOptions{} (seed 42, scale 1.0), and the paper's
/// evaluation protocol (window 1000, eval every 250, warmup 500, reset on
/// drift) over the full realized stream length. Every unknown name throws
/// an ApiError listing the registered alternatives.
class Experiment {
 public:
  /// Components of a composed experiment, for callers that drive the
  /// prequential loop themselves (detector is null when none was set).
  struct Built {
    BuiltStream stream;
    std::unique_ptr<OnlineClassifier> classifier;
    std::unique_ptr<DriftDetector> detector;
    PrequentialConfig config;
  };

  Experiment();

  /// Selects a registered benchmark stream by name (see AllStreamSpecs());
  /// throws an ApiError listing all stream names when unknown.
  Experiment& Stream(const std::string& name);
  /// Uses an explicit spec (e.g. a custom stream not in the registry).
  Experiment& Stream(const StreamSpec& spec);

  /// Replaces the stream build options wholesale.
  Experiment& Options(const BuildOptions& options);
  /// Shorthands for the two most-tuned options.
  Experiment& Seed(uint64_t seed);
  Experiment& Scale(double scale);

  Experiment& Classifier(const std::string& name, ParamMap params = {});
  Experiment& Detector(const std::string& name, ParamMap params = {});
  /// Pure-classifier baseline (explicitly document that no detector runs).
  Experiment& NoDetector();

  /// Overrides the evaluation protocol. A zero `max_instances` means "the
  /// full realized stream length".
  Experiment& Prequential(const PrequentialConfig& config);

  /// Instantiates stream, classifier and detector without running. A
  /// stream BuildStream refuses (see StreamLength) throws an ApiError
  /// naming the field.
  Built Build() const;

  /// Build() + RunPrequential().
  PrequentialResult Run() const;

 private:
  bool has_spec_ = false;
  StreamSpec spec_;
  BuildOptions options_;
  std::string classifier_name_ = "cs-ptree";
  ParamMap classifier_params_;
  std::string detector_name_;  ///< Empty = no detector.
  ParamMap detector_params_;
  PrequentialConfig config_;
};

}  // namespace api
}  // namespace ccd

#endif  // CCD_API_EXPERIMENT_H_
