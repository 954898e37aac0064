#ifndef CCD_API_MONITOR_H_
#define CCD_API_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/sharded_monitor.h"

namespace ccd {
namespace api {

/// Single-stream facade over a one-shard ShardedMonitor: every push uses
/// key 0 and shard 0, so it takes the same validated push path
/// (ShardedMonitor's one push primitive) as a fleet does, and the results
/// are bit-identical to a bare MonitorEngine on components seeded Seed().
///
///   api::Monitor monitor = api::MonitorBuilder()
///                              .Schema(schema)
///                              .Classifier("cs-ptree")
///                              .Detector("RBM-IM")
///                              .PendingCapacity(256)
///                              .Build();
///   auto p = monitor.Predict(features);       // {shard 0, id, label, scores}
///   ...
///   monitor.Label(p.id, observed_outcome);    // false if evicted
///
/// Components, defaults and validation are ShardedMonitorBuilder's. For
/// hooks, protocol overrides, batch pushes, snapshots, resharding or
/// durability, build a ShardedMonitor directly. Like it, a Monitor is
/// neither copyable nor movable; bind Build()'s result directly.
class Monitor {
 public:
  using Prediction = ShardedMonitor::Prediction;

  Prediction Predict(const std::vector<double>& features,
                     double weight = 1.0) {
    return monitor_.Predict(0, features, weight);
  }
  /// False when the id is unknown — evicted, never issued, or labelled.
  bool Label(uint64_t id, int true_label) {
    return monitor_.Label(0, id, true_label);
  }

  PrequentialResult Result() const { return monitor_.Result(); }
  uint64_t position() const { return monitor_.position(); }
  uint64_t pending() const { return monitor_.pending(); }
  uint64_t evicted() const { return monitor_.evicted(); }
  uint64_t unmatched_labels() const { return monitor_.unmatched_labels(); }

 private:
  friend class MonitorBuilder;
  explicit Monitor(const ShardedMonitorBuilder& builder)
      : monitor_(builder.Build()) {}

  ShardedMonitor monitor_;
};

/// Fluent composer of a Monitor: a ShardedMonitorBuilder with one shard.
class MonitorBuilder {
 public:
  MonitorBuilder& Schema(const StreamSchema& schema) {
    builder_.Schema(schema);
    return *this;
  }
  MonitorBuilder& Classifier(const std::string& name) {
    builder_.Classifier(name);
    return *this;
  }
  MonitorBuilder& Detector(const std::string& name) {
    builder_.Detector(name);
    return *this;
  }
  MonitorBuilder& Seed(uint64_t seed) {
    builder_.Seed(seed);
    return *this;
  }
  MonitorBuilder& PendingCapacity(size_t capacity) {
    builder_.PendingCapacity(capacity);
    return *this;
  }

  /// Throws ApiError where ShardedMonitorBuilder::Build() does.
  Monitor Build() const { return Monitor(builder_); }

 private:
  ShardedMonitorBuilder builder_;
};

}  // namespace api
}  // namespace ccd

#endif  // CCD_API_MONITOR_H_
