// State serialization (io/state_codec.h + every component's SaveState/
// LoadState) — the property harness proving the handoff claim: Encode →
// Decode of a live shard's state image, then continuing on the decoded
// components, is *bit-identical* to never having serialized, for EVERY
// registered detector and classifier (new registrations are covered the
// moment they self-register) and across several cuts of one run. The
// wire codec is the only way state leaves a live engine, so this is the
// differential test of persistence, SHIP/LOAD and DrainShard alike. Also
// pins down StateImage's move-only contract and the snapshot/config
// codecs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/api.h"
#include "eval/engine.h"
#include "generators/registry.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "testing_util.h"

namespace ccd {
namespace {

using test_util::ExpectBitIdentical;
using test_util::ExpectSnapshotEq;
using test_util::MakeRbfDriftStream;
using test_util::MakeSeaDriftStream;
using test_util::ShortConfig;

// A decoded StateImage owns live components: exactly one engine may
// mutate them. Copying would alias them across shards, so the image is
// move-only.
static_assert(!std::is_copy_constructible<io::StateImage>::value,
              "StateImage must not be copyable");
static_assert(!std::is_copy_assignable<io::StateImage>::value,
              "StateImage must not be copy-assignable");
static_assert(std::is_move_constructible<io::StateImage>::value,
              "StateImage must stay movable");
static_assert(std::is_move_assignable<io::StateImage>::value,
              "StateImage must stay move-assignable");

/// Runs `data` through an engine, stopping at every cut in `cuts`
/// (ascending instance offsets) to push the complete state THROUGH THE
/// WIRE — encode the live components in place, decode, and continue on a
/// fresh engine over the decoded ones. No cuts is the uninterrupted
/// baseline. Returns (result, final snapshot).
std::pair<PrequentialResult, EngineSnapshot> RunMaybeSerialized(
    const std::vector<Instance>& data, const StreamSchema& schema,
    const std::string& classifier_name, const std::string& detector_name,
    const PrequentialConfig& cfg, const std::vector<size_t>& cuts) {
  io::StateImage image;
  image.identity.schema = schema;
  image.identity.classifier = classifier_name;
  image.identity.detector = detector_name;
  image.identity.seed = 42;
  image.identity.config = cfg;
  image.classifier = api::MakeClassifier(classifier_name, schema, /*seed=*/42);
  if (!detector_name.empty()) {
    image.detector = api::MakeDetector(detector_name, schema, /*seed=*/42);
  }
  auto engine = std::make_unique<MonitorEngine>(
      schema, image.classifier.get(), image.detector.get(), cfg);
  size_t next = 0;
  for (size_t cut : cuts) {
    for (; next < cut; ++next) engine->Feed(data[next]);
    const std::string bytes =
        io::EncodeStateImage(image.identity, engine->Snapshot(),
                             *image.classifier, image.detector.get());
    io::StateImage decoded = io::DecodeStateImage(bytes);
    auto restored = std::make_unique<MonitorEngine>(
        schema, decoded.classifier.get(), decoded.detector.get(), cfg);
    restored->Restore(decoded.snapshot);
    // The outgoing engine dies before the components it points into.
    engine = std::move(restored);
    image = std::move(decoded);
  }
  for (; next < data.size(); ++next) engine->Feed(data[next]);
  return {engine->Result(), engine->Snapshot()};
}

/// Cut points splitting `n` instances into `k` contiguous blocks whose
/// sizes differ by at most one (earlier blocks absorb the remainder).
std::vector<size_t> EqualBlockCuts(size_t n, size_t k) {
  std::vector<size_t> cuts;
  size_t at = 0;
  for (size_t i = 0; i + 1 < k; ++i) {
    at += n / k + (i < n % k ? 1 : 0);
    cuts.push_back(at);
  }
  return cuts;
}

// Save → wire → Load → continue is bit-identical to an uninterrupted run
// for EVERY registered detector. The interruption point (777) is
// mid-minibatch for RBM-IM and mid-warning-region for DDM-family
// detectors on noisy data — exactly where forgotten state would show.
TEST(StateImagePropertyTest, EveryRegisteredDetectorRoundTrips) {
  auto stream = MakeRbfDriftStream(900, 17);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 1600);
  PrequentialConfig cfg = ShortConfig();

  const std::vector<api::ComponentInfo> detectors = api::Detectors().List();
  ASSERT_FALSE(detectors.empty());
  for (const api::ComponentInfo& info : detectors) {
    SCOPED_TRACE(info.name);
    auto uninterrupted =
        RunMaybeSerialized(data, schema, "naive-bayes", info.name, cfg, {});
    auto serialized =
        RunMaybeSerialized(data, schema, "naive-bayes", info.name, cfg, {777});
    ExpectBitIdentical(uninterrupted.first, serialized.first);
    ExpectSnapshotEq(uninterrupted.second, serialized.second);
  }
}

// ... and for EVERY registered classifier (no detector: isolates the
// classifier's own SaveState/LoadState).
TEST(StateImagePropertyTest, EveryRegisteredClassifierRoundTrips) {
  auto stream = MakeRbfDriftStream(900, 19);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 1600);
  PrequentialConfig cfg = ShortConfig();

  const std::vector<api::ComponentInfo> classifiers = api::Classifiers().List();
  ASSERT_FALSE(classifiers.empty());
  for (const api::ComponentInfo& info : classifiers) {
    SCOPED_TRACE(info.name);
    auto uninterrupted =
        RunMaybeSerialized(data, schema, info.name, "", cfg, {});
    auto serialized =
        RunMaybeSerialized(data, schema, info.name, "", cfg, {777});
    ExpectBitIdentical(uninterrupted.first, serialized.first);
    ExpectSnapshotEq(uninterrupted.second, serialized.second);
  }
}

// The multi-cut grid: three structurally different generators x {DDM,
// ADWIN} on the paper's cs-ptree, cut into 2, 4 and 7 equal blocks with a
// wire round trip at every cut, all bit-identical to the uninterrupted
// run. 2600 instances divide by neither 4 nor 7, and warmup = 400 exceeds
// the 7-block size (371/372), so the train-only prefix itself crosses a
// cut.
TEST(StateImagePropertyTest, MultiCutGridMatchesUninterruptedBitForBit) {
  constexpr size_t kInstances = 2600;
  PrequentialConfig cfg = ShortConfig();
  cfg.max_instances = kInstances;
  cfg.warmup = 400;

  std::vector<std::pair<std::string, std::unique_ptr<InstanceStream>>>
      streams;
  streams.emplace_back("SEA", MakeSeaDriftStream(1300, 9));
  for (const std::string name : {"RBF5", "Aggrawal5"}) {
    const StreamSpec* spec = FindStreamSpec(name);
    ASSERT_NE(spec, nullptr);
    BuildOptions options;
    options.scale = 0.001;
    options.seed = 42;
    streams.emplace_back(name, std::move(BuildStream(*spec, options).stream));
  }

  for (auto& [stream_name, stream] : streams) {
    const StreamSchema schema = stream->schema();
    const std::vector<Instance> data = Take(stream.get(), kInstances);
    for (const std::string detector : {"DDM", "ADWIN"}) {
      SCOPED_TRACE(stream_name + " / " + detector);
      auto uninterrupted =
          RunMaybeSerialized(data, schema, "cs-ptree", detector, cfg, {});
      // A run this size through a learning tree must produce a non-trivial
      // trajectory, or the bit-identity below would be vacuous.
      EXPECT_EQ(uninterrupted.first.instances, kInstances);
      EXPECT_FALSE(uninterrupted.first.pmauc_series.empty());
      for (size_t blocks : {2u, 4u, 7u}) {
        SCOPED_TRACE("blocks=" + std::to_string(blocks));
        auto cut = RunMaybeSerialized(data, schema, "cs-ptree", detector, cfg,
                                      EqualBlockCuts(kInstances, blocks));
        ExpectBitIdentical(uninterrupted.first, cut.first);
        ExpectSnapshotEq(uninterrupted.second, cut.second);
      }
    }
  }
}

// Double round-trip: decode(encode(decode(encode(x)))) — the decoded
// image's own encoding must be byte-identical, proving the codec has one
// canonical form (no drift across generations of persistence).
TEST(StateImagePropertyTest, EncodingIsCanonicalAcrossRoundTrips) {
  auto stream = MakeRbfDriftStream(400, 29);
  const StreamSchema schema = stream->schema();
  const std::vector<Instance> data = Take(stream.get(), 800);
  PrequentialConfig cfg = ShortConfig();

  auto classifier = api::MakeClassifier("cs-ptree", schema, 42);
  auto detector = api::MakeDetector("RBM-IM", schema, 42);
  MonitorEngine engine(schema, classifier.get(), detector.get(), cfg);
  for (const Instance& inst : data) engine.Feed(inst);

  io::ShardIdentity identity;
  identity.schema = schema;
  identity.classifier = "cs-ptree";
  identity.detector = "RBM-IM";
  identity.seed = 42;
  identity.config = cfg;
  const std::string once = io::EncodeStateImage(identity, engine.Snapshot(),
                                                *classifier, detector.get());

  io::StateImage decoded = io::DecodeStateImage(once);
  const std::string twice =
      io::EncodeStateImage(decoded.identity, decoded.snapshot,
                           *decoded.classifier, decoded.detector.get());
  EXPECT_EQ(once, twice);
}

// --------------------------------------------- snapshot / config codecs

TEST(SnapshotCodecTest, PopulatedSnapshotRoundTripsFieldForField) {
  EngineSnapshot s;
  s.position = 12345;
  s.pending = 2;
  s.evicted = 7;
  s.unmatched_labels = 3;
  s.metric_samples = 11;
  s.next_id = 99;
  s.last_detector_state = DetectorState::kWarning;
  s.drift_log.push_back(DriftAlarm{777, {0, 2}});
  s.drift_log.push_back(DriftAlarm{900, {}});
  s.class_counts = {10, 20, 30};
  s.window.push_back(WindowedMetrics::Entry{1, 2, {0.1, 0.2, 0.7}});
  EngineSnapshot::PendingEntry p;
  p.id = 98;
  p.instance.features = {1.0, -2.5};
  p.instance.label = -1;
  p.instance.weight = 0.5;
  p.predicted = 1;
  p.scores = {0.3, 0.4, 0.3};
  s.pending_predictions.push_back(p);
  s.sum_pmauc = 1.25;
  s.sum_pmgm = 2.5;
  s.sum_accuracy = 3.75;
  s.sum_kappa = -0.5;
  s.pmauc_series.emplace_back(500, 0.75);
  s.detector_seconds = 0.125;
  s.classifier_seconds = 0.0625;

  io::Writer w;
  io::WriteSnapshot(w, s);
  io::Reader r(w.data());
  ExpectSnapshotEq(io::ReadSnapshot(r), s);
  EXPECT_TRUE(r.AtEnd());
}

// A restored window or parked prediction with a NaN or infinite score
// would reach the pmAUC sort, which has no order for NaN; the codec
// refuses the image and names the field.
TEST(SnapshotCodecTest, NonFiniteScoresAreRefusedWithTheField) {
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    EngineSnapshot window;
    window.window.push_back(WindowedMetrics::Entry{1, 2, {0.1, bad, 0.7}});
    EngineSnapshot pending;
    EngineSnapshot::PendingEntry p;
    p.id = 1;
    p.instance.features = {1.0, 2.0};
    p.scores = {bad, 0.5};
    pending.pending_predictions.push_back(p);
    for (const auto& [snapshot, field] :
         {std::pair<const EngineSnapshot&, const char*>{
              window, "snapshot.window.scores"},
          {pending, "snapshot.pending.scores"}}) {
      io::Writer w;
      io::WriteSnapshot(w, snapshot);
      io::Reader r(w.data());
      try {
        io::ReadSnapshot(r);
        ADD_FAILURE() << "expected WireError at " << field;
      } catch (const io::WireError& e) {
        EXPECT_EQ(e.field(), field) << e.what();
      }
    }
  }
}

// Wire pin: the bytes of a fresh, unpushed fleet's shard image and
// manifest. With no pushes they hold no computed floating-point state, so
// every compiler produces the same bytes. The CRC covers all but the 4-byte
// trailer: a whole sealed envelope always checksums to the CRC-32
// residue. Update these constants only together with a
// kStateSchemaVersion or kFormatVersion bump — different bytes under the
// same versions mean fleets persisted by older builds stop opening.
TEST(StateCodecTest, FreshFleetBytesArePinned) {
  PrequentialConfig cfg;
  cfg.max_instances = 5000;
  cfg.metric_window = 300;
  cfg.eval_interval = 50;
  cfg.warmup = 120;
  cfg.timing = false;
  auto monitor = api::ShardedMonitorBuilder()
                     .Schema(5, 3)
                     .Classifier("naive-bayes")
                     .Detector("DDM", {"warning_level=2.5"})
                     .Protocol(cfg)
                     .Seed(42)
                     .Shards(2)
                     .Build();
  const auto content_crc = [](const std::string& sealed) {
    return io::Crc32(sealed.data(), sealed.size() - 4);
  };

  const std::string image = monitor.SerializeShard(0);
  EXPECT_EQ(image.size(), 927u);
  EXPECT_EQ(content_crc(image), 0xfd6bec20u);

  const std::string dir =
      ::testing::TempDir() + "ccd-wire-pin-" + std::to_string(::getpid());
  monitor.Persist(dir);
  io::SnapshotStore store(dir);
  const std::string manifest = store.Read(io::kManifestName);
  EXPECT_EQ(manifest.size(), 299u);
  EXPECT_EQ(content_crc(manifest), 0x56058bf9u);
  for (const std::string& name : store.List()) store.Remove(name);
  ::rmdir(dir.c_str());
}

TEST(ConfigCodecTest, RoundTripsAndRejectsDegenerateConfigs) {
  PrequentialConfig cfg;
  cfg.max_instances = 5000;
  cfg.metric_window = 123;
  cfg.eval_interval = 17;
  cfg.warmup = 250;
  cfg.timing = false;
  io::Writer w;
  io::WriteConfig(w, cfg);
  io::Reader r(w.data());
  PrequentialConfig back = io::ReadConfig(r);
  EXPECT_EQ(back.max_instances, cfg.max_instances);
  EXPECT_EQ(back.metric_window, cfg.metric_window);
  EXPECT_EQ(back.eval_interval, cfg.eval_interval);
  EXPECT_EQ(back.warmup, cfg.warmup);
  EXPECT_EQ(back.timing, cfg.timing);

  // A config that would divide by zero must not survive deserialization.
  PrequentialConfig bad = cfg;
  bad.eval_interval = 0;
  io::Writer wbad;
  io::WriteConfig(wbad, bad);
  io::Reader rbad(wbad.data());
  EXPECT_THROW(io::ReadConfig(rbad), io::WireError);
}

// LoadState validates every dimension against the schema the target was
// built with, so bytes of a structurally different shard cannot smear
// into a live component.
TEST(ComponentStateValidationTest, MismatchedDimensionsAreTypedErrors) {
  auto stream = MakeRbfDriftStream(200, 31);
  // Serialize a classifier trained on the stream's schema...
  auto trained = api::MakeClassifier("perceptron", stream->schema(), 42);
  for (const Instance& inst : Take(stream.get(), 120)) trained->Train(inst);
  io::Writer w;
  trained->SaveState(w);
  // ...and load it into a same-type classifier of the same schema: fine.
  auto target = api::MakeClassifier("perceptron", stream->schema(), 1);
  io::Reader ok(w.data());
  target->LoadState(ok);

  // Targets built for other schemas refuse the rows.
  for (const StreamSchema& other :
       {StreamSchema(8, 4, "wide"), StreamSchema(3, 2, "narrow")}) {
    auto victim = api::MakeClassifier("perceptron", other, 2);
    io::Reader r(w.data());
    EXPECT_THROW(victim->LoadState(r), io::WireError) << other.name;
  }

  // A payload cut short inside the section is a typed error too.
  const std::string bytes = w.data();
  io::Reader truncated(bytes.data(), bytes.size() - 9);
  auto victim = api::MakeClassifier("perceptron", stream->schema(), 2);
  EXPECT_THROW(victim->LoadState(truncated), io::WireError);
}

}  // namespace
}  // namespace ccd
