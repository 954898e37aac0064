#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "common.h"
#include "eval/prequential.h"
#include "trace.h"
#include "traced.h"

namespace perfbench {

/// Every per-layer metric of the traced run. A layer a workload never
/// reaches keeps its 0 (e.g. io on paper-grid, core on fleet).
struct Layers {
  double gen_ns_per_inst = 0;
  double cls_predict_ns = 0;
  double cls_train_ns = 0;
  double cls_busy_frac = 0;
  double det_observe_ns[5] = {0, 0, 0, 0, 0};  // WSTD RDDM FHDDM PerfSim DDM-OCI
  double det_busy_frac = 0;
  double rbm_observe_ns = 0;
  double rbm_batch_close_us = 0;
  double rbm_batches = 0;
  double rbm_alarms = 0;
  double rbm_busy_frac = 0;
  double engine_self_ns = 0;
  double metrics_add_ns = 0;
  double pmauc_tick_us = 0;
  double evicted = 0;
  double unmatched = 0;
  double push_self_ns = 0;
  double contention_ns = 0;
  double route_ns = 0;
  double mpsc_ns = 0;
  double pool_idle_frac = 0;
  double batch_self_ns_per_inst = 0;
  double snapshot_us = 0;
  double service_self_us = 0;
  double operator_lag_us = 0;
  double serialize_us = 0;
  double restore_us = 0;
  double store_ms = 0;
  double trace_overhead_frac = 0;

  /// Fills the classifier, detector and RBM-IM timing entries from span
  /// totals. `busy_base_ns` is workers x wall time, the denominator of
  /// the busy fractions. The RBM-IM counts are the caller's to set.
  void FromComponents(const trace::Table& t, double busy_base_ns);

  void Emit(Outcome* out) const;
};

/// Isolated replay of WindowedMetrics::Add and the eval tick (pmAUC, pmGM,
/// accuracy, kappa every 250 adds, window 1000) over recorded triples.
/// Returns {ns per Add, us per tick}.
std::pair<double, double> ReplayMetrics(const std::vector<Triple>& triples,
                                        int num_classes);

double MeanNs(const trace::Totals& t);

/// Digest of every deterministic field of a result (everything but the
/// wall-clock detector/classifier seconds).
uint64_t ResultDigest(const ccd::PrequentialResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
