#include "eval/prequential.h"

#include <stdexcept>
#include <string>

#include "eval/engine.h"

namespace ccd {

void ValidatePrequentialConfig(const PrequentialConfig& config) {
  if (config.eval_interval <= 0) {
    throw std::invalid_argument(
        "PrequentialConfig.eval_interval must be >= 1 (got " +
        std::to_string(config.eval_interval) + ")");
  }
  if (config.metric_window <= 0) {
    throw std::invalid_argument(
        "PrequentialConfig.metric_window must be >= 1 (got " +
        std::to_string(config.metric_window) + ")");
  }
}

PrequentialResult RunPrequential(InstanceStream* stream,
                                 OnlineClassifier* classifier,
                                 DriftDetector* detector,
                                 const PrequentialConfig& config) {
  // Offline evaluation = the push engine fed with immediate labels. The
  // engine owns the whole prequential step (warmup, metrics, drift
  // coupling, sampling); this adapter only drains the stream into it.
  MonitorEngine engine(stream->schema(), classifier, detector, config);
  for (uint64_t i = 0; i < config.max_instances; ++i) {
    engine.Feed(stream->Next());
  }
  return engine.Result();
}

}  // namespace ccd
