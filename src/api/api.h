#ifndef CCD_API_API_H_
#define CCD_API_API_H_

/// Umbrella header of the public `ccd::api` layer:
///
///  * ParamMap       — typed `key=value` parameter overrides,
///  * Registry       — string-keyed, introspectable component factories
///                     (api::Detectors(), api::Classifiers(),
///                      api::MakeDetector(), api::MakeClassifier()),
///  * Experiment     — fluent builder of prequential experiment runs,
///  * Suite          — deterministic parallel runner for experiment grids
///                     (streams × detectors × classifiers × repeats) with
///                     Welford aggregation and a JSON writer (WriteJson),
///  * ShardedMonitor — the push-based serving type: K per-shard engines
///                     (the same engine the offline protocol runs on)
///                     behind hash-key routing, one validated push path,
///                     striped locks, decoupled Predict/Label with
///                     delayed-label buffering, live resharding through
///                     the state-image codec, shard-tagged drift fan-in,
///  * Monitor        — its one-shard single-stream facade.
///
/// Components self-register via CCD_REGISTER_DETECTOR /
/// CCD_REGISTER_CLASSIFIER; every lookup failure throws api::ApiError with
/// the registered alternatives spelled out.

#include "api/component_registry.h"
#include "api/experiment.h"
#include "api/monitor.h"
#include "api/param_map.h"
#include "api/sharded_monitor.h"
#include "api/suite.h"

#endif  // CCD_API_API_H_
