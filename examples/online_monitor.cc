// Online monitoring with delayed labels: the push-based serving surface.
//
// A fraud-detection-style deployment: transactions arrive and must be
// scored *now*, but ground truth (was it actually fraud?) shows up only
// after a verification delay — and for some transactions, never. The
// pull-based Experiment cannot express this; api::ShardedMonitor, the
// serving type, is built for it. One stream needs one shard:
//
//  1. Build a one-shard ShardedMonitor from registered components (no
//     stream attached — events are pushed in).
//  2. For each arriving instance: Predict() immediately, queue the label
//     with a random verification delay, deliver queued labels as their
//     deadline passes; drop a fraction entirely (label never arrives).
//  3. Drift alerts and periodic metric samples arrive through
//     shard-tagged callbacks, carrying the implicated classes and
//     windowed pmAUC/pmGM snapshots.
//  4. ShardSnapshot(0) at the end: the run state a shard handoff
//     transfers.
//
// The label delay is simulated with the library's own deterministic Rng,
// so two runs print the same report.

#include <cstdio>
#include <queue>
#include <string>
#include <vector>

#include "api/api.h"
#include "generators/registry.h"
#include "utils/cli.h"
#include "utils/rng.h"

namespace {

struct DelayedLabel {
  uint64_t due = 0;       ///< Arrival time (instance index) of the label.
  int shard = 0;          ///< Prediction ticket to complete: its shard ...
  uint64_t id = 0;        ///< ... and its shard-local id.
  int label = -1;
};

/// Min-heap on verification deadline: a short verification on a recent
/// transaction overtakes a long one on an older transaction, so labels
/// genuinely arrive out of prediction order.
struct LaterDue {
  bool operator()(const DelayedLabel& a, const DelayedLabel& b) const {
    return a.due > b.due;
  }
};

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  const uint64_t kInstances =
      static_cast<uint64_t>(cli.GetInt("instances", 20000));
  const int kMaxDelay = cli.GetInt("max_delay", 200);
  const double kLossRate = cli.GetDouble("loss", 0.05);

  // --- 1. A benchmark stream as the traffic source, a one-shard
  //        ShardedMonitor as the serving endpoint. The monitor never sees
  //        the stream object; every push uses one key.
  const ccd::StreamSpec* spec = ccd::FindStreamSpec("RBF5");
  if (spec == nullptr) {
    std::fprintf(stderr, "error: stream 'RBF5' not registered\n");
    return 1;
  }
  ccd::BuildOptions options;
  options.scale = 0.05;
  options.seed = 7;
  ccd::BuiltStream built = ccd::BuildStream(*spec, options);

  uint64_t alerts = 0;
  constexpr uint64_t kKey = 0;
  auto monitor =
      ccd::api::ShardedMonitorBuilder()
          .Schema(built.stream->schema())
          .Classifier("cs-ptree")
          .Detector("DDM-OCI")  // Per-class recall monitor: explains *which*
                                // classes drifted, not just *that* something did.
          .Seed(7)
          .PendingCapacity(1024)
          .OnDrift([&](int shard, const ccd::DriftAlarm& alarm,
                       const ccd::MetricsSnapshot& m) {
            ++alerts;
            std::printf("[drift]   shard %d t=%-7llu pmAUC=%.3f pmGM=%.3f "
                        "classes:",
                        shard, static_cast<unsigned long long>(alarm.position),
                        m.pmauc, m.pmgm);
            if (alarm.drifted_classes.empty()) std::printf(" (global)");
            for (int c : alarm.drifted_classes) std::printf(" %d", c);
            std::printf("\n");
          })
          .OnMetrics([](int shard, const ccd::MetricsSnapshot& m) {
            if (m.position % 2500 == 0) {
              std::printf("[metrics] shard %d t=%-7llu pmAUC=%.3f pmGM=%.3f "
                          "acc=%.3f\n",
                          shard, static_cast<unsigned long long>(m.position),
                          m.pmauc, m.pmgm, m.accuracy);
            }
          })
          .Build();

  // --- 2. Serve: predict now, label late (or never).
  ccd::Rng delay_rng(99);
  std::priority_queue<DelayedLabel, std::vector<DelayedLabel>, LaterDue>
      label_queue;
  uint64_t dropped = 0;

  for (uint64_t t = 0; t < kInstances; ++t) {
    // Deliver every label whose verification completed by now — in
    // *verification* order, which is not prediction order.
    while (!label_queue.empty() && label_queue.top().due <= t) {
      const DelayedLabel& dl = label_queue.top();
      monitor.Label(dl.shard, dl.id, dl.label);
      label_queue.pop();
    }

    ccd::Instance instance = built.stream->Next();
    ccd::api::ShardedMonitor::Prediction p =
        monitor.Predict(kKey, instance.features);
    (void)p.label;  // A real deployment would act on the prediction here.

    if (delay_rng.NextDouble() < kLossRate) {
      ++dropped;  // Verification never happens for this transaction.
      continue;
    }
    DelayedLabel dl;
    dl.due = t + 1 + static_cast<uint64_t>(delay_rng.UniformInt(0, kMaxDelay));
    dl.shard = p.shard;
    dl.id = p.id;
    dl.label = instance.label;
    label_queue.push(dl);
  }
  // End of traffic: flush the verification queue.
  while (!label_queue.empty()) {
    const DelayedLabel& dl = label_queue.top();
    monitor.Label(dl.shard, dl.id, dl.label);
    label_queue.pop();
  }

  // --- 4. The shard's run state — the run-state half of what a shard
  //        handoff (ShipShard / DrainShard) serializes.
  const ccd::EngineSnapshot snap = monitor.ShardSnapshot(0);
  const ccd::PrequentialResult result = monitor.ShardResult(0);

  std::printf("\n--- run state (ShardSnapshot(0)) ---\n");
  std::printf("completed instances : %llu\n",
              static_cast<unsigned long long>(snap.position));
  std::printf("labels never arrived: %llu predictions simulated-dropped, "
              "%llu evicted from the pending buffer\n",
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(snap.evicted));
  std::printf("pending at shutdown : %llu (deliberately unlabelled)\n",
              static_cast<unsigned long long>(snap.pending));
  std::printf("metric window holds : %zu outcomes\n", snap.window.size());
  std::printf("drift alarms        : %llu (%llu via callback)\n",
              static_cast<unsigned long long>(result.drifts),
              static_cast<unsigned long long>(alerts));
  std::printf("class counts        :");
  for (uint64_t c : snap.class_counts) {
    std::printf(" %llu", static_cast<unsigned long long>(c));
  }
  std::printf("\nfinal pmAUC=%.3f pmGM=%.3f accuracy=%.3f kappa=%.3f\n",
              result.mean_pmauc, result.mean_pmgm, result.mean_accuracy,
              result.mean_kappa);
  return 0;
} catch (const ccd::api::ApiError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ccd::CliError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
