#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "histogram.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace trace {

/// Span kinds: one per boundary the benchmark wraps. Each names the layer
/// (src/ module) whose public function the span encloses.
enum Kind : int {
  kGenNext,         // generators: InstanceStream::Next
  kBuild,           // api: Experiment::Build (component + stream set-up)
  kClsPredict,      // classifiers: PredictScores / PredictScoresInto / Predict
  kClsTrain,        // classifiers: Train
  kClsOther,        // classifiers: Reset / Clone / CloneState / Save / Load
  kDetWstd,         // detectors: Observe, one kind per grid detector
  kDetRddm,
  kDetFhddm,
  kDetPerfSim,
  kDetDdmOci,
  kDetOther,        // detectors: Observe of any other detector
  kDetMisc,         // detectors: Reset / CloneState / Save / Load
  kRbmObserve,      // core: RBM-IM Observe that does not close a batch
  kRbmBatchClose,   // core: RBM-IM Observe where batches_processed advances
  kCell,            // eval: one grid cell (Build + RunPrequential)
  kApiPredict,      // api: Monitor::Predict
  kApiLabel,        // api: Monitor::Label
  kPushPredict,     // api/runtime: ShardedMonitor::Predict
  kPushLabel,       // api/runtime: ShardedMonitor::Label
  kPushFeed,        // api/runtime: ShardedMonitor::Feed
  kPushBatch,       // api/runtime: ShardedMonitor::FeedBatch
  kEngineCall,      // eval: bare MonitorEngine call (replay leg)
  kKinds
};

const char* KindName(Kind k);

/// Aggregate of one span kind: call count, total and self time (self =
/// duration minus the time covered by nested spans), and the distribution
/// of durations.
struct Totals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  Histogram hist;
};
using Table = std::array<Totals, kKinds>;

/// Turns recording on or off. Call while no traced thread is running.
void Enable(bool on);
bool Enabled();

/// Clears every thread's aggregates and span buffer. Call while no traced
/// thread is running.
void Reset();

/// Aggregates merged over all threads that recorded since the last Reset.
Table Collect();

/// Writes the buffered spans (one line each: thread, span index, parent
/// index, root index, kind, start ns, duration ns) to `path`. Returns the
/// number written, or -1 when the file cannot be opened.
long WriteSpans(const std::string& path);

/// Spans that did not fit the per-thread buffers (still aggregated).
uint64_t DroppedSpans();

/// RAII span. A no-op while recording is off. The kind may be changed
/// before the span closes (RBM-IM learns only after Observe returns
/// whether the call closed a mini-batch).
class Scope {
 public:
  explicit Scope(Kind kind);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_kind(Kind kind) { kind_ = kind; }

 private:
  Kind kind_;
  bool active_;
};

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
