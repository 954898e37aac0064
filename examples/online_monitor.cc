// Online monitoring with delayed labels: the push-based serving surface.
//
// A fraud-detection-style deployment: transactions arrive and must be
// scored *now*, but ground truth (was it actually fraud?) shows up only
// after a verification delay — and for some transactions, never. The
// pull-based Experiment cannot express this; api::Monitor is built for it:
//
//  1. Build a Monitor from registered components (no stream attached —
//     events are pushed in).
//  2. For each arriving instance: Predict() immediately, queue the label
//     with a random verification delay, deliver queued labels as their
//     deadline passes; drop a fraction entirely (label never arrives).
//  3. Drift alerts and periodic metric samples arrive through callbacks,
//     carrying the implicated classes and windowed pmAUC/pmGM snapshots.
//  4. Pause + Snapshot at the end: the run state a shard handoff
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
  uint64_t id = 0;        ///< Prediction ticket to complete.
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

  // --- 1. A benchmark stream as the traffic source, a Monitor as the
  //        serving endpoint. The monitor never sees the stream object.
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
  ccd::api::Monitor monitor =
      ccd::api::MonitorBuilder()
          .Schema(built.stream->schema())
          .Classifier("cs-ptree")
          .Detector("DDM-OCI")  // Per-class recall monitor: explains *which*
                                // classes drifted, not just *that* something did.
          .Seed(7)
          .PendingCapacity(1024)
          .OnDrift([&](const ccd::DriftAlarm& alarm,
                       const ccd::MetricsSnapshot& m) {
            ++alerts;
            std::printf("[drift]   t=%-7llu pmAUC=%.3f pmGM=%.3f classes:",
                        static_cast<unsigned long long>(alarm.position),
                        m.pmauc, m.pmgm);
            if (alarm.drifted_classes.empty()) std::printf(" (global)");
            for (int c : alarm.drifted_classes) std::printf(" %d", c);
            std::printf("\n");
          })
          .OnMetrics([](const ccd::MetricsSnapshot& m) {
            if (m.position % 2500 == 0) {
              std::printf("[metrics] t=%-7llu pmAUC=%.3f pmGM=%.3f acc=%.3f\n",
                          static_cast<unsigned long long>(m.position),
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
      monitor.Label(label_queue.top().id, label_queue.top().label);
      label_queue.pop();
    }

    ccd::Instance instance = built.stream->Next();
    ccd::api::Monitor::Prediction p = monitor.Predict(instance.features);
    (void)p.label;  // A real deployment would act on the prediction here.

    if (delay_rng.NextDouble() < kLossRate) {
      ++dropped;  // Verification never happens for this transaction.
      continue;
    }
    DelayedLabel dl;
    dl.due = t + 1 + static_cast<uint64_t>(delay_rng.UniformInt(0, kMaxDelay));
    dl.id = p.id;
    dl.label = instance.label;
    label_queue.push(dl);
  }
  // End of traffic: flush the verification queue.
  while (!label_queue.empty()) {
    monitor.Label(label_queue.top().id, label_queue.top().label);
    label_queue.pop();
  }

  // --- 3. Pause the intake and snapshot the run state — what a shard
  //        handoff would serialize.
  monitor.Pause();
  ccd::EngineSnapshot snap = monitor.Snapshot();
  ccd::PrequentialResult result = monitor.Result();

  std::printf("\n--- run state (Snapshot) ---\n");
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
