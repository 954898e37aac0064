#ifndef CCD_TESTS_TESTING_UTIL_H_
#define CCD_TESTS_TESTING_UTIL_H_

// Shared fixtures of the evaluation-layer tests (eval_test, monitor_test,
// io_state_test, ...): tiny deterministic streams, stub classifiers/detectors
// with known behavior, and result/snapshot equality helpers. Everything
// here is deterministic from its seed so tests can assert bit-identity.

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/component_registry.h"
#include "api/experiment.h"
#include "api/suite.h"
#include "classifiers/classifier.h"
#include "detectors/detector.h"
#include "eval/admission.h"
#include "eval/engine.h"
#include "eval/prequential.h"
#include "generators/drifting_stream.h"
#include "generators/rbf.h"
#include "generators/registry.h"
#include "generators/sea.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "runtime/router.h"
#include "runtime/thread_pool.h"
#include "stream/stream.h"

namespace ccd {
namespace test_util {

/// A short, cheap protocol for equivalence tests: small window, frequent
/// samples, nondeterministic wall-clock timing off.
inline PrequentialConfig ShortConfig() {
  PrequentialConfig cfg;
  cfg.max_instances = 2000;
  cfg.metric_window = 400;
  cfg.eval_interval = 100;
  cfg.warmup = 150;
  cfg.timing = false;  // Wall-clock fields are inherently nondeterministic.
  return cfg;
}

/// Asserts every deterministic field of two PrequentialResults is equal,
/// bit for bit (the *_seconds wall-clock fields are excluded by design).
inline void ExpectBitIdentical(const PrequentialResult& a,
                               const PrequentialResult& b) {
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.mean_pmauc, b.mean_pmauc);
  EXPECT_EQ(a.mean_pmgm, b.mean_pmgm);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.mean_kappa, b.mean_kappa);
  EXPECT_EQ(a.drifts, b.drifts);
  EXPECT_EQ(a.drift_positions, b.drift_positions);
  EXPECT_EQ(a.drift_events, b.drift_events);
  EXPECT_EQ(a.pmauc_series, b.pmauc_series);
  EXPECT_EQ(a.class_counts, b.class_counts);
}

/// Asserts that a sealed state image of a fresh naive-bayes shard running
/// `detector` (payload from its default params) fails to decode once its
/// identity claims `detector_params`: DecodeStateImage builds the detector
/// from the identity, so out-of-domain params fail there, as a WireError
/// at "image.components" whose text names `field`.
inline void ExpectIdentityParamsRejected(const StreamSchema& schema,
                                         const std::string& detector,
                                         const std::string& detector_params,
                                         const std::string& field) {
  io::ShardIdentity id;
  id.schema = schema;
  id.classifier = "naive-bayes";
  id.detector = detector;
  id.detector_params = detector_params;
  auto classifier = api::MakeClassifier(id.classifier, schema, 1);
  auto payload = api::MakeDetector(detector, schema, 1);
  const std::string image = io::EncodeStateImage(id, EngineSnapshot{},
                                                 *classifier, payload.get());
  try {
    io::DecodeStateImage(image);
    ADD_FAILURE() << "expected WireError for " << detector_params;
  } catch (const io::WireError& e) {
    EXPECT_EQ(e.field(), "image.components") << e.what();
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

/// Asserts two Instances are bit-identical.
inline void ExpectInstanceEq(const Instance& a, const Instance& b) {
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.weight, b.weight);
}

/// Runs `push`, which must throw AdmissionError for `reason`.
inline void ExpectRefused(RejectReason reason,
                          const std::function<void()>& push) {
  try {
    push();
    ADD_FAILURE() << "expected an AdmissionError, reason "
                  << static_cast<int>(reason);
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), reason) << e.what();
  }
}

/// Asserts every field of two EngineSnapshots is equal, bit for bit —
/// timing fields included, since snapshots of the *same* engine state must
/// round-trip exactly.
inline void ExpectSnapshotEq(const EngineSnapshot& a, const EngineSnapshot& b) {
  EXPECT_EQ(a.position, b.position);
  EXPECT_EQ(a.pending, b.pending);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.unmatched_labels, b.unmatched_labels);
  EXPECT_EQ(a.metric_samples, b.metric_samples);
  EXPECT_EQ(a.next_id, b.next_id);
  EXPECT_EQ(a.last_detector_state, b.last_detector_state);
  EXPECT_EQ(a.drift_log, b.drift_log);
  EXPECT_EQ(a.class_counts, b.class_counts);
  EXPECT_EQ(a.window, b.window);
  ASSERT_EQ(a.pending_predictions.size(), b.pending_predictions.size());
  for (size_t i = 0; i < a.pending_predictions.size(); ++i) {
    EXPECT_EQ(a.pending_predictions[i].id, b.pending_predictions[i].id);
    EXPECT_EQ(a.pending_predictions[i].predicted,
              b.pending_predictions[i].predicted);
    EXPECT_EQ(a.pending_predictions[i].scores, b.pending_predictions[i].scores);
    ExpectInstanceEq(a.pending_predictions[i].instance,
                     b.pending_predictions[i].instance);
  }
  EXPECT_EQ(a.sum_pmauc, b.sum_pmauc);
  EXPECT_EQ(a.sum_pmgm, b.sum_pmgm);
  EXPECT_EQ(a.sum_accuracy, b.sum_accuracy);
  EXPECT_EQ(a.sum_kappa, b.sum_kappa);
  EXPECT_EQ(a.pmauc_series, b.pmauc_series);
  EXPECT_EQ(a.detector_seconds, b.detector_seconds);
  EXPECT_EQ(a.classifier_seconds, b.classifier_seconds);
}

/// A bare MonitorEngine that owns its components, created through the
/// registries (api::Classifiers()/api::Detectors()) with one seed for
/// both, exactly as ShardedMonitor builds shard i with seed Seed() + i.
/// It shares no serving code with ShardedMonitor, which is what makes it
/// the sequential oracle of the serving tests (HistoryChecker, the
/// one-shard facade check). An empty `detector` means no detector.
struct OwnedEngine {
  OwnedEngine(const StreamSchema& schema, const std::string& classifier_name,
              const std::string& detector_name, uint64_t seed,
              const PrequentialConfig& config, size_t pending_capacity)
      : classifier(api::Classifiers().Create(classifier_name, schema, seed,
                                             {})),
        detector(detector_name.empty()
                     ? nullptr
                     : api::Detectors().Create(detector_name, schema, seed,
                                               {})),
        engine(schema, classifier.get(), detector.get(), config, {},
               pending_capacity) {}

  // Declaration order matters: the engine holds raw pointers into the
  // components, so they must outlive it on destruction.
  std::unique_ptr<OnlineClassifier> classifier;
  std::unique_ptr<DriftDetector> detector;
  MonitorEngine engine;
};

/// Stateless classifier: scores depend only on the instance (first feature
/// modulo the class count gets the mass), Train is a no-op. Under it, a
/// prediction made early is identical to one made late, so any label delay
/// must leave the detector path untouched.
class FrozenClassifier : public OnlineClassifier {
 public:
  explicit FrozenClassifier(const StreamSchema& schema) : schema_(schema) {}
  const StreamSchema& schema() const override { return schema_; }
  void Train(const Instance&) override {}
  std::vector<double> PredictScores(const Instance& instance) const override {
    const size_t k = static_cast<size_t>(schema_.num_classes);
    std::vector<double> scores(k, 0.1 / static_cast<double>(k));
    double f = instance.features.empty() ? 0.0 : instance.features[0];
    size_t hot = static_cast<size_t>(std::abs(static_cast<long>(f * 7))) % k;
    scores[hot] += 0.9;
    return scores;
  }
  void Reset() override {}
  std::unique_ptr<OnlineClassifier> Clone() const override {
    return std::make_unique<FrozenClassifier>(schema_);
  }
  std::string name() const override { return "frozen"; }

 private:
  StreamSchema schema_;
};

/// Minimal classifier stub: uniform scores, counts Reset() calls so tests
/// can observe whether a drift signal reached the coupling.
class CountingStubClassifier : public OnlineClassifier {
 public:
  explicit CountingStubClassifier(const StreamSchema& schema)
      : schema_(schema) {}
  const StreamSchema& schema() const override { return schema_; }
  void Train(const Instance&) override {}
  std::vector<double> PredictScores(const Instance&) const override {
    return std::vector<double>(static_cast<size_t>(schema_.num_classes),
                               1.0 / schema_.num_classes);
  }
  void Reset() override { ++resets; }
  std::unique_ptr<OnlineClassifier> Clone() const override {
    return std::make_unique<CountingStubClassifier>(schema_);
  }
  std::string name() const override { return "counting-stub"; }

  int resets = 0;

 private:
  StreamSchema schema_;
};

/// Classifier that returns no scores at all — the degenerate case the
/// argmax and metrics paths must survive (missing support == 0).
class ScorelessClassifier : public OnlineClassifier {
 public:
  explicit ScorelessClassifier(const StreamSchema& schema)
      : schema_(schema) {}
  const StreamSchema& schema() const override { return schema_; }
  void Train(const Instance&) override {}
  std::vector<double> PredictScores(const Instance&) const override {
    return {};
  }
  void Reset() override {}
  std::unique_ptr<OnlineClassifier> Clone() const override {
    return std::make_unique<ScorelessClassifier>(schema_);
  }
  std::string name() const override { return "scoreless"; }

 private:
  StreamSchema schema_;
};

/// Detector that sits in persistent warning regions — the DDM-family
/// shape whose current state the engine records as last_detector_state
/// (a snapshot/restore inside a region must carry it over).
class WarningRegionDetector : public DriftDetector {
 public:
  void Observe(const Instance&, int, const std::vector<double>&) override {
    ++observed_;
  }
  DetectorState state() const override {
    // Two warning regions: [300, 400) and [600, 650).
    const bool warn = (observed_ >= 300 && observed_ < 400) ||
                      (observed_ >= 600 && observed_ < 650);
    return warn ? DetectorState::kWarning : DetectorState::kStable;
  }
  void Reset() override {}
  std::string name() const override { return "warning-region"; }

 private:
  uint64_t observed_ = 0;
};

/// One natural draw of `concept` as an Instance (Concept::Sample fills a
/// caller's row).
inline Instance Draw(const Concept& concept, Rng* rng) {
  Instance inst;
  inst.label = concept.Sample(rng, &inst.features);
  return inst;
}

/// One draw of `concept`'s features conditioned on class `k`.
inline std::vector<double> DrawForClass(const Concept& concept, int k,
                                        Rng* rng) {
  std::vector<double> x;
  concept.SampleForClass(k, rng, &x);
  return x;
}

/// Tiny deterministic drifting stream: two RBF concepts with a sudden
/// switch at `drift_at` and a 10:1 class imbalance (3 classes, 6
/// features). The workhorse stream of the evaluation tests.
inline std::unique_ptr<DriftingClassStream> MakeRbfDriftStream(
    uint64_t drift_at, uint64_t seed) {
  RbfConcept::Options co;
  co.num_features = 6;
  co.num_classes = 3;
  std::vector<std::unique_ptr<Concept>> cs;
  cs.push_back(std::make_unique<RbfConcept>(co, 1));
  cs.push_back(std::make_unique<RbfConcept>(co, 2));
  DriftEvent ev;
  ev.start = drift_at;
  ev.type = DriftType::kSudden;
  ImbalanceSchedule::Options io;
  io.num_classes = 3;
  io.base_ir = 10.0;
  return std::make_unique<DriftingClassStream>(
      std::move(cs), std::vector<DriftEvent>{ev}, ImbalanceSchedule(io), seed);
}

/// SEA companion of MakeRbfDriftStream: two SEA concept variants (the
/// relevant feature pair rotates at the drift), 4 features, 3 classes,
/// 5:1 imbalance — a structurally different generator for differential
/// grids.
inline std::unique_ptr<DriftingClassStream> MakeSeaDriftStream(
    uint64_t drift_at, uint64_t seed) {
  SeaConcept::Options so;
  so.num_features = 4;
  so.num_classes = 3;
  std::vector<std::unique_ptr<Concept>> cs;
  so.variant = 0;
  cs.push_back(std::make_unique<SeaConcept>(so, 1));
  so.variant = 1;
  cs.push_back(std::make_unique<SeaConcept>(so, 2));
  DriftEvent ev;
  ev.start = drift_at;
  ev.type = DriftType::kSudden;
  ImbalanceSchedule::Options io;
  io.num_classes = 3;
  io.base_ir = 5.0;
  return std::make_unique<DriftingClassStream>(
      std::move(cs), std::vector<DriftEvent>{ev}, ImbalanceSchedule(io), seed);
}

// ------------------------------------------------------- frozen goldens

/// The lines of a golden file under tests/golden/ (the test target defines
/// CCD_GOLDEN_DIR), without its '#' header lines.
inline std::vector<std::string> GoldenLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Compares recorded lines with the golden ones and, on a mismatch,
/// writes all recorded lines to `actual_path` (a file in the test's
/// working directory) for inspection or an intended re-pin.
inline void ExpectLinesMatchGolden(const std::vector<std::string>& got,
                                   const std::vector<std::string>& want,
                                   const std::string& actual_path) {
  size_t first_diff = std::min(got.size(), want.size());
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      first_diff = i;
      break;
    }
  }
  if (first_diff == got.size() && got.size() == want.size()) return;
  std::ofstream out(actual_path);
  for (const std::string& line : got) out << line << "\n";
  ADD_FAILURE() << "line " << first_diff << " of " << want.size()
                << " differs (all " << got.size() << " lines written to "
                << actual_path << ")\n  want: "
                << (first_diff < want.size() ? want[first_diff] : "<end>")
                << "\n  got:  "
                << (first_diff < got.size() ? got[first_diff] : "<end>");
}

/// FNV-1a over a sequence of instances: per row the feature count, every
/// feature's bit pattern, the label and the weight's bit pattern, each
/// as little-endian bytes.
class RowHash {
 public:
  void Add(const Instance& row) {
    AddWord(row.features.size());
    for (double v : row.features) AddWord(Bits(v));
    AddWord(static_cast<uint64_t>(static_cast<int64_t>(row.label)));
    AddWord(Bits(row.weight));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
  }
  void AddWord(uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t h_ = 1469598103934665603ULL;
};

/// One realization pinned by tests/golden/generator_streams.txt: a
/// registry stream at scale 0.005 (the paper grid's benchmark scale, so
/// the first rows already cross a drift) under one of three seeds. Each
/// seed carries its own option set, so the goldens also reach role
/// switching, label noise, local drift and an IR override.
struct GoldenStream {
  StreamSpec spec;
  BuildOptions options;
  std::string variant;
};

/// Rows of each realization that the golden hashes.
constexpr size_t kGoldenStreamRows = 2000;

inline std::vector<GoldenStream> GoldenStreams() {
  std::vector<GoldenStream> out;
  for (const StreamSpec& spec : AllStreamSpecs()) {
    BuildOptions base;
    base.scale = 0.005;
    base.seed = 1;
    out.push_back(GoldenStream{spec, base, "plain"});
    BuildOptions roles = base;
    roles.seed = 7920;
    roles.role_switching = true;
    roles.label_noise = 0.05;
    out.push_back(GoldenStream{spec, roles, "roles+noise"});
    BuildOptions local = base;
    local.seed = 15839;
    local.local_drift_classes = 1;
    local.ir_override = 20.0;
    out.push_back(GoldenStream{spec, local, "local+ir20"});
  }
  return out;
}

/// The golden line of one realization whose first kGoldenStreamRows rows
/// hashed to `hash`.
inline std::string GoldenStreamLine(const GoldenStream& g,
                                    const RowHash& hash) {
  return g.spec.name + " seed=" + std::to_string(g.options.seed) + " " +
         g.variant + " fnv=" + hash.Hex();
}

inline std::string GeneratorGoldenPath() {
  return std::string(CCD_GOLDEN_DIR) + "/generator_streams.txt";
}

/// A grid cell of `g`'s stream whose protocol stops after `rows` instances.
inline api::SuiteCell GoldenStreamCell(const GoldenStream& g, uint64_t rows) {
  api::SuiteCell cell;
  cell.spec = g.spec;
  cell.options = g.options;
  cell.has_config = true;
  cell.config.max_instances = rows;
  return cell;
}

/// The pre-tape default grid cell: Experiment::Run() on the cell's own
/// generator. The frozen oracle of api::Suite's shared row tapes.
inline PrequentialResult RunExperimentCell(const api::SuiteCell& cell) {
  api::Experiment e;
  e.Stream(cell.spec)
      .Options(cell.options)
      .Classifier(cell.classifier, cell.classifier_params);
  if (!cell.detector.empty()) e.Detector(cell.detector, cell.detector_params);
  if (cell.has_config) e.Prequential(cell.config);
  return e.Run();
}

// ------------------------------------------------- concurrency harness

/// Runs `fn(0) .. fn(producers-1)` on `producers` dedicated threads that
/// all start together (runtime::RunThreads): every thread parks on a
/// start barrier until the last one is up, so the calls genuinely contend
/// instead of running in spawn order. The first exception (in
/// thread-index order) is rethrown on the calling thread, so a producer
/// failure is a test failure, not a std::terminate.
inline void RunProducers(int producers, const std::function<void(int)>& fn) {
  runtime::RunThreads(producers, fn);
}

/// One push of a keyed serving schedule.
struct KeyedInstance {
  uint64_t key = 0;
  Instance instance;
};

/// The first `count` keys (scanning k = 0, 1, 2, ...) that a
/// `slots`-wide hash router sends to `slot` — the key pool a producer
/// thread that must own exactly one shard draws from.
inline std::vector<uint64_t> KeysForSlot(int slot, int slots, size_t count) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < count; ++k) {
    if (runtime::Router::KeySlot(k, slots) == slot) keys.push_back(k);
  }
  return keys;
}

/// Deterministic per-producer schedule: `count` instances drawn from a
/// seeded RBF drift stream (drift mid-schedule), keys cycling over
/// `keys`. Two calls with the same arguments produce the same pushes, so
/// a multi-threaded run can be replayed single-threaded for comparison.
inline std::vector<KeyedInstance> MakeKeyedSchedule(
    const std::vector<uint64_t>& keys, size_t count, uint64_t seed) {
  auto stream = MakeRbfDriftStream(/*drift_at=*/count / 2, seed);
  const std::vector<Instance> data = Take(stream.get(), count);
  std::vector<KeyedInstance> schedule;
  schedule.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    schedule.push_back(KeyedInstance{keys[i % keys.size()], data[i]});
  }
  return schedule;
}

/// A keyed push plus the virtual-clock delay that precedes it — the unit
/// of a simulated stream with label latency (runtime/sim.h SleepFor
/// ticks; meaningless outside a simulation, where delay 0 fixtures still
/// work unchanged).
struct DelayedPush {
  KeyedInstance push;
  uint64_t label_delay = 0;
};

/// MakeKeyedSchedule with deterministic per-push delays in
/// [0, max_delay], drawn via the pinned Router::HashKey mix so the
/// schedule is identical across runs and platforms for a given seed.
inline std::vector<DelayedPush> MakeDelaySchedule(
    const std::vector<uint64_t>& keys, size_t count, uint64_t seed,
    uint64_t max_delay) {
  const std::vector<KeyedInstance> base = MakeKeyedSchedule(keys, count, seed);
  std::vector<DelayedPush> schedule;
  schedule.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    DelayedPush push;
    push.push = base[i];
    push.label_delay =
        max_delay == 0
            ? 0
            : runtime::Router::HashKey(seed * 0x9e3779b9u + i) %
                  (max_delay + 1);
    schedule.push_back(std::move(push));
  }
  return schedule;
}

}  // namespace test_util
}  // namespace ccd

#endif  // CCD_TESTS_TESTING_UTIL_H_
