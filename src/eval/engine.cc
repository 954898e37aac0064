#include "eval/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "eval/admission.h"

namespace ccd {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Argmax over the scores; an empty or short vector is legal (missing
/// support counts as zero), so an all-missing prediction is class 0.
int Argmax(const std::vector<double>& scores) {
  int predicted = 0;
  for (size_t c = 1; c < scores.size(); ++c) {
    if (scores[c] > scores[predicted]) predicted = static_cast<int>(c);
  }
  return predicted;
}

/// Restores `*flag` to false even when the hook throws, so an engine whose
/// callback failed is not bricked into permanent "reentrant" rejections.
///
/// Deliberately *not* a runtime::Mutex capability: the no-reentry
/// invariant crosses a type-erased std::function boundary (engine →
/// user hook → engine), which Thread Safety Analysis cannot see through —
/// a phantom capability here would compile-time-check nothing. The
/// invariant stays a runtime guard (std::logic_error on mutating
/// reentry), pinned by monitor_test's reentrancy regression tests; the
/// engine itself is externally synchronized by its owner's slot lock
/// (CCD_GUARDED_BY on api::ShardedMonitor::Shard::engine).
class HookScope {
 public:
  explicit HookScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~HookScope() { *flag_ = false; }
  HookScope(const HookScope&) = delete;
  HookScope& operator=(const HookScope&) = delete;

 private:
  bool* flag_;
};

}  // namespace

MonitorEngine::MonitorEngine(const StreamSchema& schema,
                             OnlineClassifier* classifier,
                             DriftDetector* detector,
                             const PrequentialConfig& config,
                             EngineHooks hooks, size_t pending_capacity)
    : schema_(schema),
      classifier_(classifier),
      detector_(detector),
      config_(config),
      hooks_(std::move(hooks)),
      capacity_(pending_capacity < 1 ? 1 : pending_capacity),
      metrics_(schema.num_classes, config.metric_window) {
  if (classifier_ == nullptr) {
    throw std::invalid_argument("MonitorEngine: classifier must not be null");
  }
  ValidatePrequentialConfig(config_);
  run_.class_counts.assign(
      schema_.num_classes > 0 ? static_cast<size_t>(schema_.num_classes) : 0,
      0);
  // Preallocate the pending ring up front: growing a ring while rotated
  // would scramble the logical order, and the hot path must not allocate.
  pending_slots_.resize(capacity_);
}

void MonitorEngine::RequireNotInHook(const char* operation) const {
  if (in_hook_) {
    throw std::logic_error(
        std::string("MonitorEngine: reentrant ") + operation +
        " from inside an engine callback — on_drift/on_metrics "
        "fire mid-step, so hooks must not call back into the engine's "
        "mutating surface (read-only accessors are fine)");
  }
}

void MonitorEngine::Feed(const Instance& instance) {
  RequireNotInHook("Feed()");
  CheckRow(schema_, instance.features, instance.weight, instance.label);
  if (run_.position < config_.warmup) {
    Complete(instance, /*measured=*/false, 0, {});
    return;
  }
  classifier_->PredictScoresInto(instance, scores_scratch_);
  int predicted = Argmax(scores_scratch_);
  Complete(instance, /*measured=*/true, predicted, scores_scratch_);
}

void MonitorEngine::FeedBatch(const std::vector<Instance>& batch) {
  for (const Instance& instance : batch) Feed(instance);
}

MonitorEngine::Ticket MonitorEngine::Predict(
    const std::vector<double>& features, double weight) {
  Ticket ticket;
  Predict(features, weight, &ticket);
  return ticket;
}

void MonitorEngine::Predict(const std::vector<double>& features, double weight,
                            Ticket* out) {
  RequireNotInHook("Predict()");
  CheckRow(schema_, features, weight, std::nullopt);
  // Build the prediction directly in its ring slot, reusing the slot's
  // feature/score capacity. When full, the oldest prediction is evicted
  // (its label is the most overdue) and its slot becomes the new back.
  size_t slot;
  if (pending_count_ >= capacity_) {
    slot = pending_head_;
    pending_head_ = (pending_head_ + 1) % capacity_;
    ++run_.evicted;
  } else {
    slot = (pending_head_ + pending_count_) % capacity_;
    ++pending_count_;
  }
  PendingPrediction& p = pending_slots_[slot];
  p.id = run_.next_id++;
  p.instance.features = features;
  p.instance.label = -1;
  p.instance.weight = weight;
  classifier_->PredictScoresInto(p.instance, p.scores);
  p.predicted = Argmax(p.scores);

  out->id = p.id;
  out->predicted = p.predicted;
  out->scores = p.scores;
}

void MonitorEngine::PredictBatch(const std::vector<Instance>& batch,
                                 std::vector<Ticket>* out) {
  out->resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Predict(batch[i].features, batch[i].weight, &(*out)[i]);
  }
}

LabelOutcome MonitorEngine::Label(uint64_t id, int true_label) {
  RequireNotInHook("Label()");
  CheckLabel(schema_, true_label);
  // Ids are issued monotonically and the ring is ordered, so the lookup is
  // a binary search over logical indices even when labels arrive out of
  // order.
  size_t lo = 0, hi = pending_count_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (PendingAt(mid).id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == pending_count_ || PendingAt(lo).id != id) {
    ++run_.unmatched_labels;
    return LabelOutcome::kUnknown;
  }
  // Bubble the match to the nearer edge of the ring and pop it there: the
  // remaining predictions keep their relative (id) order, no slot's buffer
  // capacity is lost, and an in-order label (the common case) costs no
  // swaps at all. The popped element's data stays in the vacated physical
  // slot, which nothing can touch until the next Predict().
  size_t vacated;
  if (lo < pending_count_ - 1 - lo) {
    for (size_t k = lo; k > 0; --k) {
      std::swap(PendingAt(k), PendingAt(k - 1));
    }
    vacated = pending_head_;
    pending_head_ = (pending_head_ + 1) % capacity_;
    --pending_count_;
  } else {
    for (size_t k = lo; k + 1 < pending_count_; ++k) {
      std::swap(PendingAt(k), PendingAt(k + 1));
    }
    --pending_count_;
    vacated = (pending_head_ + pending_count_) % capacity_;
  }
  PendingPrediction& p = pending_slots_[vacated];
  p.instance.label = true_label;
  const bool measured = run_.position >= config_.warmup;
  Complete(p.instance, measured, p.predicted, p.scores);
  return LabelOutcome::kApplied;
}

void MonitorEngine::LabelBatch(const std::vector<LabelRequest>& batch,
                               std::vector<LabelOutcome>* outcomes) {
  if (outcomes != nullptr) {
    outcomes->clear();
    outcomes->reserve(batch.size());
  }
  for (const LabelRequest& req : batch) {
    LabelOutcome outcome = Label(req.id, req.label);
    if (outcomes != nullptr) outcomes->push_back(outcome);
  }
}

void MonitorEngine::Complete(const Instance& instance, bool measured,
                             int predicted,
                             const std::vector<double>& scores) {
  const uint64_t i = run_.position;
  if (instance.label >= 0 &&
      static_cast<size_t>(instance.label) < run_.class_counts.size()) {
    ++run_.class_counts[static_cast<size_t>(instance.label)];
  }

  if (!measured) {
    classifier_->Train(instance);
    // Let trainable detectors see warmup data too (the paper trains
    // RBM-IM on the first batches before monitoring).
    if (detector_ != nullptr) {
      detector_->Observe(instance, instance.label, {});
      // Consume (and discard) any drift signaled on warmup data. A
      // detector whose drift flag latches until read would otherwise
      // carry a warmup alarm into the first measured instance and force
      // a spurious classifier reset there.
      (void)detector_->state();
    }
    ++run_.position;
    return;
  }

  metrics_.Add(instance.label, predicted, scores);

  if (detector_ != nullptr) {
    if (config_.timing) {
      auto t0 = Clock::now();
      detector_->Observe(instance, predicted, scores);
      run_.detector_seconds += Seconds(t0, Clock::now());
    } else {
      detector_->Observe(instance, predicted, scores);
    }
    // Read state() exactly once per observation: latching detectors
    // consume their flag on read.
    run_.last_detector_state = detector_->state();
    if (run_.last_detector_state == DetectorState::kDrift) {
      run_.drift_log.push_back(DriftAlarm{i, detector_->drifted_classes()});
      if (hooks_.on_drift) {
        HookScope scope(&in_hook_);
        hooks_.on_drift(run_.drift_log.back(), TakeSnapshot(i));
      }
      classifier_->Reset();  // The alarm retires the old concept.
    }
  }

  if (config_.timing) {
    auto t0 = Clock::now();
    classifier_->Train(instance);
    run_.classifier_seconds += Seconds(t0, Clock::now());
  } else {
    classifier_->Train(instance);
  }

  if ((i - config_.warmup) % static_cast<uint64_t>(config_.eval_interval) ==
          0 &&
      metrics_.size() >= 50) {
    double pmauc = metrics_.PmAuc();
    double pmgm = metrics_.PmGMean();
    double accuracy = metrics_.Accuracy();
    double kappa = metrics_.Kappa();
    run_.sum_pmauc += pmauc;
    run_.sum_pmgm += pmgm;
    run_.sum_accuracy += accuracy;
    run_.sum_kappa += kappa;
    ++run_.metric_samples;
    run_.pmauc_series.emplace_back(i, pmauc);
    if (hooks_.on_metrics) {
      MetricsSnapshot snapshot;
      snapshot.position = i;
      snapshot.pmauc = pmauc;
      snapshot.pmgm = pmgm;
      snapshot.accuracy = accuracy;
      snapshot.kappa = kappa;
      snapshot.window_size = metrics_.size();
      HookScope scope(&in_hook_);
      hooks_.on_metrics(snapshot);
    }
  }
  ++run_.position;
}

MetricsSnapshot MonitorEngine::TakeSnapshot(uint64_t position) const {
  MetricsSnapshot snapshot;
  snapshot.position = position;
  snapshot.pmauc = metrics_.PmAuc();
  snapshot.pmgm = metrics_.PmGMean();
  snapshot.accuracy = metrics_.Accuracy();
  snapshot.kappa = metrics_.Kappa();
  snapshot.window_size = metrics_.size();
  return snapshot;
}

EngineSnapshot MonitorEngine::Snapshot() const {
  EngineSnapshot s;
  static_cast<EngineRunState&>(s) = run_;
  s.pending = pending_count_;
  metrics_.CopyWindow(&s.window);
  s.pending_predictions.reserve(pending_count_);
  for (size_t k = 0; k < pending_count_; ++k) {
    const PendingPrediction& p =
        pending_slots_[(pending_head_ + k) % capacity_];
    s.pending_predictions.push_back(
        EngineSnapshot::PendingEntry{p.id, p.instance, p.predicted, p.scores});
  }
  return s;
}

void MonitorEngine::Restore(const EngineSnapshot& s) {
  RequireNotInHook("Restore()");
  if (static_cast<int>(s.window.size()) > config_.metric_window) {
    throw std::invalid_argument(
        "MonitorEngine::Restore: snapshot window holds " +
        std::to_string(s.window.size()) + " entries, metric_window is " +
        std::to_string(config_.metric_window));
  }
  const size_t expected_classes =
      schema_.num_classes > 0 ? static_cast<size_t>(schema_.num_classes) : 0;
  if (s.class_counts.size() != expected_classes) {
    throw std::invalid_argument(
        "MonitorEngine::Restore: snapshot carries " +
        std::to_string(s.class_counts.size()) +
        " class counts, schema declares " + std::to_string(expected_classes) +
        " classes");
  }
  if (s.pending_predictions.size() > capacity_) {
    throw std::invalid_argument(
        "MonitorEngine::Restore: snapshot carries " +
        std::to_string(s.pending_predictions.size()) +
        " pending predictions, this engine's capacity is " +
        std::to_string(capacity_));
  }
  uint64_t prev_id = 0;
  for (const EngineSnapshot::PendingEntry& p : s.pending_predictions) {
    if (p.id <= prev_id || p.id >= s.next_id) {
      throw std::invalid_argument(
          "MonitorEngine::Restore: pending prediction ids must be strictly "
          "ascending and below next_id");
    }
    prev_id = p.id;
  }

  run_ = static_cast<const EngineRunState&>(s);

  // Rebuild the metric window by replaying the snapshotted entries: the
  // confusion counts are unit-weight integers, so a fresh sum over the
  // window contents is bit-identical to the original's add/evict history.
  metrics_ = WindowedMetrics(schema_.num_classes, config_.metric_window);
  for (const WindowedMetrics::Entry& e : s.window) {
    metrics_.Add(e.truth, e.predicted, e.scores);
  }

  // Re-linearize the pending ring (capacity was validated above). Slots
  // beyond the restored count keep their old buffers for reuse; they are
  // logically absent.
  pending_head_ = 0;
  pending_count_ = s.pending_predictions.size();
  for (size_t k = 0; k < pending_count_; ++k) {
    const EngineSnapshot::PendingEntry& p = s.pending_predictions[k];
    PendingPrediction& slot = pending_slots_[k];
    slot.id = p.id;
    slot.instance = p.instance;
    slot.predicted = p.predicted;
    slot.scores = p.scores;
  }
}

namespace {

/// kStable < kWarning < kDrift, for picking the most severe shard state.
int Severity(DetectorState s) {
  switch (s) {
    case DetectorState::kStable:
      return 0;
    case DetectorState::kWarning:
      return 1;
    case DetectorState::kDrift:
      return 2;
  }
  return 0;
}

/// The one derivation of a PrequentialResult from accumulated run state:
/// counts, the drift log and its positions, and the sample means.
PrequentialResult ResultOf(const EngineRunState& run) {
  PrequentialResult r;
  r.instances = run.position;
  r.drifts = run.drift_log.size();
  r.drift_events = run.drift_log;
  r.drift_positions.reserve(run.drift_log.size());
  for (const DriftAlarm& a : run.drift_log) {
    r.drift_positions.push_back(a.position);
  }
  r.class_counts = run.class_counts;
  r.pmauc_series = run.pmauc_series;
  r.detector_seconds = run.detector_seconds;
  r.classifier_seconds = run.classifier_seconds;
  if (run.metric_samples > 0) {
    const double n = static_cast<double>(run.metric_samples);
    r.mean_pmauc = run.sum_pmauc / n;
    r.mean_pmgm = run.sum_pmgm / n;
    r.mean_accuracy = run.sum_accuracy / n;
    r.mean_kappa = run.sum_kappa / n;
  }
  return r;
}

}  // namespace

EngineSnapshot MergeSnapshots(const std::vector<EngineSnapshot>& shards) {
  EngineSnapshot merged;
  if (shards.empty()) return merged;
  merged.next_id = 0;
  merged.class_counts.assign(shards.front().class_counts.size(), 0);
  for (const EngineSnapshot& s : shards) {
    if (s.class_counts.size() != merged.class_counts.size()) {
      throw std::invalid_argument(
          "MergeSnapshots: shard snapshots disagree on class arity (" +
          std::to_string(merged.class_counts.size()) + " vs " +
          std::to_string(s.class_counts.size()) + ")");
    }
    merged.position += s.position;
    merged.pending += s.pending;
    merged.evicted += s.evicted;
    merged.unmatched_labels += s.unmatched_labels;
    merged.metric_samples += s.metric_samples;
    merged.next_id = std::max(merged.next_id, s.next_id);
    if (Severity(s.last_detector_state) >
        Severity(merged.last_detector_state)) {
      merged.last_detector_state = s.last_detector_state;
    }
    for (size_t c = 0; c < s.class_counts.size(); ++c) {
      merged.class_counts[c] += s.class_counts[c];
    }
    merged.drift_log.insert(merged.drift_log.end(), s.drift_log.begin(),
                            s.drift_log.end());
    merged.pmauc_series.insert(merged.pmauc_series.end(),
                               s.pmauc_series.begin(), s.pmauc_series.end());
    merged.sum_pmauc += s.sum_pmauc;
    merged.sum_pmgm += s.sum_pmgm;
    merged.sum_accuracy += s.sum_accuracy;
    merged.sum_kappa += s.sum_kappa;
    merged.detector_seconds += s.detector_seconds;
    merged.classifier_seconds += s.classifier_seconds;
  }
  // Positions are shard-local; present the aggregate logs in ascending
  // position order, ties keeping shard (concatenation) order.
  std::stable_sort(merged.drift_log.begin(), merged.drift_log.end(),
                   [](const DriftAlarm& a, const DriftAlarm& b) {
                     return a.position < b.position;
                   });
  std::stable_sort(merged.pmauc_series.begin(), merged.pmauc_series.end(),
                   [](const std::pair<uint64_t, double>& a,
                      const std::pair<uint64_t, double>& b) {
                     return a.first < b.first;
                   });
  return merged;
}

std::vector<ShardAlarm> MergeShardAlarms(
    const std::vector<EngineSnapshot>& shards) {
  std::vector<ShardAlarm> alarms;
  for (size_t i = 0; i < shards.size(); ++i) {
    for (const DriftAlarm& a : shards[i].drift_log) {
      alarms.push_back(ShardAlarm{static_cast<int>(i), a});
    }
  }
  std::stable_sort(alarms.begin(), alarms.end(),
                   [](const ShardAlarm& a, const ShardAlarm& b) {
                     return a.alarm.position < b.alarm.position;
                   });
  return alarms;
}

PrequentialResult MergedResult(const std::vector<EngineSnapshot>& shards) {
  return ResultOf(MergeSnapshots(shards));
}

PrequentialResult MonitorEngine::Result() const { return ResultOf(run_); }

}  // namespace ccd
