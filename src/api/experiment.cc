#include "api/experiment.h"

namespace ccd {
namespace api {

Experiment::Experiment() {
  // The paper's protocol (PrequentialConfig's defaults) over the realized
  // stream length.
  config_.max_instances = 0;
}

Experiment& Experiment::Stream(const std::string& name) {
  const StreamSpec* spec = FindStreamSpec(name);
  if (spec == nullptr) {
    std::string msg = "unknown stream '" + name + "'; registered streams:";
    for (const StreamSpec& s : AllStreamSpecs()) msg += " " + s.name;
    throw ApiError(msg);
  }
  return Stream(*spec);
}

Experiment& Experiment::Stream(const StreamSpec& spec) {
  spec_ = spec;
  has_spec_ = true;
  return *this;
}

Experiment& Experiment::Options(const BuildOptions& options) {
  options_ = options;
  return *this;
}

Experiment& Experiment::Seed(uint64_t seed) {
  options_.seed = seed;
  return *this;
}

Experiment& Experiment::Scale(double scale) {
  options_.scale = scale;
  return *this;
}

Experiment& Experiment::Classifier(const std::string& name, ParamMap params) {
  classifier_name_ = name;
  classifier_params_ = std::move(params);
  return *this;
}

Experiment& Experiment::Detector(const std::string& name, ParamMap params) {
  detector_name_ = name;
  detector_params_ = std::move(params);
  return *this;
}

Experiment& Experiment::NoDetector() {
  detector_name_.clear();
  detector_params_ = ParamMap();
  return *this;
}

Experiment& Experiment::Prequential(const PrequentialConfig& config) {
  config_ = config;
  return *this;
}

Experiment::Built Experiment::Build() const {
  if (!has_spec_) {
    throw ApiError(
        "Experiment: no stream configured; call Stream(name) or "
        "Stream(spec) before Build()/Run()");
  }
  Built out;
  out.stream = BuildStream(spec_, options_);
  const StreamSchema& schema = out.stream.stream->schema();

  out.classifier = Classifiers().Create(classifier_name_, schema,
                                        options_.seed, classifier_params_);
  if (!detector_name_.empty()) {
    out.detector = Detectors().Create(detector_name_, schema, options_.seed,
                                      detector_params_);
  }

  out.config = config_;
  if (out.config.max_instances == 0) out.config.max_instances = out.stream.length;
  // Reject degenerate protocols here, where the caller composed them —
  // RunPrequential would throw std::invalid_argument later, but an
  // ApiError at Build() points at the Experiment that carried them.
  try {
    ValidatePrequentialConfig(out.config);
  } catch (const std::invalid_argument& e) {
    throw ApiError(e.what());
  }
  return out;
}

PrequentialResult Experiment::Run() const {
  Built b = Build();
  return RunPrequential(b.stream.stream.get(), b.classifier.get(),
                        b.detector.get(), b.config);
}

}  // namespace api
}  // namespace ccd
