#include "layers.h"

#include "eval/metrics.h"

namespace perfbench {

double MeanNs(const trace::Totals& t) {
  return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / t.count;
}

uint64_t ResultDigest(const ccd::PrequentialResult& r) {
  Digest d;
  d.F64(r.mean_pmauc);
  d.F64(r.mean_pmgm);
  d.F64(r.mean_accuracy);
  d.F64(r.mean_kappa);
  d.U64(r.instances);
  d.U64(r.drifts);
  for (uint64_t p : r.drift_positions) d.U64(p);
  for (const ccd::DriftAlarm& a : r.drift_events) {
    d.U64(a.position);
    for (int c : a.drifted_classes) d.U64(static_cast<uint64_t>(c));
  }
  for (uint64_t c : r.class_counts) d.U64(c);
  for (const auto& s : r.pmauc_series) {
    d.U64(s.first);
    d.F64(s.second);
  }
  return d.value();
}

void Layers::FromComponents(const trace::Table& t, double busy_base_ns) {
  cls_predict_ns = t[trace::kClsPredict].hist.Percentile(0.5);
  cls_train_ns = t[trace::kClsTrain].hist.Percentile(0.5);
  const double cls_ns = static_cast<double>(t[trace::kClsPredict].total_ns +
                                            t[trace::kClsTrain].total_ns +
                                            t[trace::kClsOther].total_ns);
  const trace::Kind det[5] = {trace::kDetWstd, trace::kDetRddm,
                              trace::kDetFhddm, trace::kDetPerfSim,
                              trace::kDetDdmOci};
  double det_ns = static_cast<double>(t[trace::kDetOther].total_ns +
                                      t[trace::kDetMisc].total_ns);
  for (int i = 0; i < 5; ++i) {
    det_observe_ns[i] = MeanNs(t[det[i]]);
    det_ns += static_cast<double>(t[det[i]].total_ns);
  }
  rbm_observe_ns = MeanNs(t[trace::kRbmObserve]);
  rbm_batch_close_us = MeanNs(t[trace::kRbmBatchClose]) * 1e-3;
  const double rbm_ns = static_cast<double>(t[trace::kRbmObserve].total_ns +
                                            t[trace::kRbmBatchClose].total_ns);
  if (busy_base_ns > 0) {
    cls_busy_frac = cls_ns / busy_base_ns;
    det_busy_frac = det_ns / busy_base_ns;
    rbm_busy_frac = rbm_ns / busy_base_ns;
  }
}

void Layers::Emit(Outcome* out) const {
  static const char* const kDet[5] = {"WSTD", "RDDM", "FHDDM", "PerfSim",
                                      "DDM-OCI"};
  out->Metric("generators.ns_per_inst", gen_ns_per_inst, "ns");
  out->Metric("classifiers.predict_ns", cls_predict_ns, "ns");
  out->Metric("classifiers.train_ns", cls_train_ns, "ns");
  out->Metric("classifiers.busy_frac", cls_busy_frac, "frac");
  for (int i = 0; i < 5; ++i) {
    out->Metric(std::string("detectors.observe_ns.") + kDet[i],
                det_observe_ns[i], "ns");
  }
  out->Metric("detectors.busy_frac", det_busy_frac, "frac");
  out->Metric("core.rbm_im.observe_ns", rbm_observe_ns, "ns");
  out->Metric("core.rbm_im.batch_close_us", rbm_batch_close_us, "us");
  out->Metric("core.rbm_im.batches", rbm_batches, "count");
  out->Metric("core.rbm_im.alarms", rbm_alarms, "count");
  out->Metric("core.rbm_im.busy_frac", rbm_busy_frac, "frac");
  out->Metric("eval.engine_self_ns", engine_self_ns, "ns");
  out->Metric("eval.metrics_add_ns", metrics_add_ns, "ns");
  out->Metric("eval.pmauc_tick_us", pmauc_tick_us, "us");
  out->Metric("eval.evicted", evicted, "count");
  out->Metric("eval.unmatched", unmatched, "count");
  out->Metric("runtime.push_self_ns", push_self_ns, "ns");
  out->Metric("runtime.contention_ns", contention_ns, "ns");
  out->Metric("runtime.route_ns", route_ns, "ns");
  out->Metric("runtime.mpsc_ns", mpsc_ns, "ns");
  out->Metric("runtime.pool_idle_frac", pool_idle_frac, "frac");
  out->Metric("api.batch_self_ns_per_inst", batch_self_ns_per_inst, "ns");
  out->Metric("io.snapshot_us", snapshot_us, "us");
  out->Metric("io.service_self_us", service_self_us, "us");
  out->Metric("io.operator_lag_us", operator_lag_us, "us");
  out->Metric("io.serialize_us", serialize_us, "us");
  out->Metric("io.restore_us", restore_us, "us");
  out->Metric("io.store_ms", store_ms, "ms");
  out->Metric("bench.trace_overhead_frac", trace_overhead_frac, "frac");
}

std::pair<double, double> ReplayMetrics(const std::vector<Triple>& triples,
                                        int num_classes) {
  if (triples.empty()) return {0.0, 0.0};
  constexpr size_t kTick = 250;
  constexpr size_t kMinAdds = 200000;
  ccd::WindowedMetrics metrics(num_classes, 1000);
  uint64_t add_ns = 0, tick_ns = 0, adds = 0, ticks = 0;
  double sink = 0.0;
  size_t i = 0;
  while (adds < kMinAdds) {
    const uint64_t t0 = NowNs();
    for (size_t k = 0; k < kTick; ++k, i = (i + 1) % triples.size()) {
      const Triple& x = triples[i];
      metrics.Add(x.truth, x.predicted, x.scores);
    }
    const uint64_t t1 = NowNs();
    sink += metrics.PmAuc() + metrics.PmGMean() + metrics.Accuracy() +
            metrics.Kappa();
    const uint64_t t2 = NowNs();
    add_ns += t1 - t0;
    tick_ns += t2 - t1;
    adds += kTick;
    ++ticks;
  }
  if (!std::isfinite(sink)) std::fprintf(stderr, "replay: non-finite tick\n");
  return {static_cast<double>(add_ns) / adds,
          static_cast<double>(tick_ns) / ticks * 1e-3};
}

}  // namespace perfbench
