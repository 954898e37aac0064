#include "io/state_codec.h"

#include <cmath>
#include <optional>
#include <utility>

#include "api/component_registry.h"
#include "api/param_map.h"
#include "io/codecs.h"

namespace ccd {
namespace io {

namespace {

/// Scores feed the pmAUC window, whose sort has no order for NaN; an
/// infinite score makes a pair's ratio NaN.
std::vector<double> ReadScores(Reader& r, const char* field) {
  std::vector<double> scores = r.F64Array(field);
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i])) {
      r.Fail(field, "score " + std::to_string(i) + " is not finite");
    }
  }
  return scores;
}

void WriteU64Vector(Writer& w, const std::vector<uint64_t>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (uint64_t x : v) w.U64(x);
}

std::vector<uint64_t> ReadU64Vector(Reader& r, const char* field) {
  uint32_t n = r.Count(field);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(r.U64(field));
  return out;
}

void WriteAlarm(Writer& w, const DriftAlarm& a) {
  w.U64(a.position);
  WriteIntVector(w, a.drifted_classes);
}

DriftAlarm ReadAlarm(Reader& r) {
  DriftAlarm a;
  a.position = r.U64("alarm.position");
  a.drifted_classes = ReadIntVector(r, "alarm.drifted_classes");
  return a;
}

void WriteSchema(Writer& w, const StreamSchema& schema) {
  w.BeginSection("schema");
  w.I64(schema.num_features);
  w.I64(schema.num_classes);
  w.String(schema.name);
  w.EndSection();
}

StreamSchema ReadSchema(Reader& r) {
  r.BeginSection("schema");
  StreamSchema schema;
  int64_t features = r.I64("schema.num_features");
  int64_t classes = r.I64("schema.num_classes");
  if (features <= 0 || features > 1'000'000) {
    r.Fail("schema.num_features", "implausible feature count " +
                                      std::to_string(features));
  }
  if (classes <= 0 || classes > 1'000'000) {
    r.Fail("schema.num_classes",
           "implausible class count " + std::to_string(classes));
  }
  schema.num_features = static_cast<int>(features);
  schema.num_classes = static_cast<int>(classes);
  schema.name = r.String("schema.name");
  r.EndSection("schema");
  return schema;
}

/// The identity in wire order — the one layout state images and the
/// manifest share.
void WriteIdentity(Writer& w, const ShardIdentity& id) {
  WriteSchema(w, id.schema);
  w.String(id.classifier);
  w.String(id.classifier_params);
  w.String(id.detector);
  w.String(id.detector_params);
  w.U64(id.seed);
  WriteConfig(w, id.config);
}

ShardIdentity ReadIdentity(Reader& r) {
  ShardIdentity id;
  id.schema = ReadSchema(r);
  id.classifier = r.String("identity.classifier");
  id.classifier_params = r.String("identity.classifier_params");
  id.detector = r.String("identity.detector");
  id.detector_params = r.String("identity.detector_params");
  id.seed = r.U64("identity.seed");
  id.config = ReadConfig(r);
  return id;
}

}  // namespace

void WriteConfig(Writer& w, const PrequentialConfig& config) {
  w.BeginSection("PrequentialConfig");
  w.U64(config.max_instances);
  w.I64(config.metric_window);
  w.I64(config.eval_interval);
  w.U64(config.warmup);
  w.Bool(config.timing);
  w.EndSection();
}

PrequentialConfig ReadConfig(Reader& r) {
  r.BeginSection("PrequentialConfig");
  PrequentialConfig c;
  c.max_instances = r.U64("config.max_instances");
  c.metric_window = static_cast<int>(r.I64("config.metric_window"));
  c.eval_interval = static_cast<int>(r.I64("config.eval_interval"));
  c.warmup = r.U64("config.warmup");
  c.timing = r.Bool("config.timing");
  r.EndSection("PrequentialConfig");
  // The same degeneracy gate every run-entry point applies; a config that
  // would divide by zero must not survive deserialization either.
  try {
    ValidatePrequentialConfig(c);
  } catch (const std::invalid_argument& e) {
    r.Fail("config", e.what());
  }
  return c;
}

void WriteSnapshot(Writer& w, const EngineSnapshot& s) {
  w.BeginSection("EngineSnapshot");
  w.U64(s.position);
  w.U64(s.pending);
  w.U64(s.evicted);
  w.U64(s.unmatched_labels);
  w.U64(s.metric_samples);
  w.U64(s.next_id);
  WriteDetectorState(w, s.last_detector_state);
  w.U32(static_cast<uint32_t>(s.drift_log.size()));
  for (const DriftAlarm& a : s.drift_log) WriteAlarm(w, a);
  WriteU64Vector(w, s.class_counts);
  w.U32(static_cast<uint32_t>(s.window.size()));
  for (const WindowedMetrics::Entry& e : s.window) {
    w.I64(e.truth);
    w.I64(e.predicted);
    w.F64Array(e.scores);
  }
  w.U32(static_cast<uint32_t>(s.pending_predictions.size()));
  for (const EngineSnapshot::PendingEntry& p : s.pending_predictions) {
    w.U64(p.id);
    WriteInstance(w, p.instance);
    w.I64(p.predicted);
    w.F64Array(p.scores);
  }
  w.F64(s.sum_pmauc);
  w.F64(s.sum_pmgm);
  w.F64(s.sum_accuracy);
  w.F64(s.sum_kappa);
  w.U32(static_cast<uint32_t>(s.pmauc_series.size()));
  for (const auto& sample : s.pmauc_series) {
    w.U64(sample.first);
    w.F64(sample.second);
  }
  w.F64(s.detector_seconds);
  w.F64(s.classifier_seconds);
  w.EndSection();
}

EngineSnapshot ReadSnapshot(Reader& r) {
  r.BeginSection("EngineSnapshot");
  EngineSnapshot s;
  s.position = r.U64("snapshot.position");
  s.pending = r.U64("snapshot.pending");
  s.evicted = r.U64("snapshot.evicted");
  s.unmatched_labels = r.U64("snapshot.unmatched_labels");
  s.metric_samples = r.U64("snapshot.metric_samples");
  s.next_id = r.U64("snapshot.next_id");
  s.last_detector_state = ReadDetectorState(r, "snapshot.last_detector_state");
  uint32_t alarms = r.Count("snapshot.drift_log");
  s.drift_log.reserve(alarms);
  for (uint32_t i = 0; i < alarms; ++i) s.drift_log.push_back(ReadAlarm(r));
  s.class_counts = ReadU64Vector(r, "snapshot.class_counts");
  uint32_t window = r.Count("snapshot.window");
  s.window.reserve(window);
  for (uint32_t i = 0; i < window; ++i) {
    WindowedMetrics::Entry e;
    e.truth = static_cast<int>(r.I64("snapshot.window.truth"));
    e.predicted = static_cast<int>(r.I64("snapshot.window.predicted"));
    e.scores = ReadScores(r, "snapshot.window.scores");
    s.window.push_back(std::move(e));
  }
  uint32_t parked = r.Count("snapshot.pending_predictions");
  s.pending_predictions.reserve(parked);
  for (uint32_t i = 0; i < parked; ++i) {
    EngineSnapshot::PendingEntry p;
    p.id = r.U64("snapshot.pending.id");
    p.instance = ReadInstance(r);
    p.predicted = static_cast<int>(r.I64("snapshot.pending.predicted"));
    p.scores = ReadScores(r, "snapshot.pending.scores");
    s.pending_predictions.push_back(std::move(p));
  }
  s.sum_pmauc = r.F64("snapshot.sum_pmauc");
  s.sum_pmgm = r.F64("snapshot.sum_pmgm");
  s.sum_accuracy = r.F64("snapshot.sum_accuracy");
  s.sum_kappa = r.F64("snapshot.sum_kappa");
  uint32_t samples = r.Count("snapshot.pmauc_series");
  s.pmauc_series.reserve(samples);
  for (uint32_t i = 0; i < samples; ++i) {
    uint64_t pos = r.U64("snapshot.pmauc_series.position");
    double value = r.F64("snapshot.pmauc_series.value");
    s.pmauc_series.emplace_back(pos, value);
  }
  s.detector_seconds = r.F64("snapshot.detector_seconds");
  s.classifier_seconds = r.F64("snapshot.classifier_seconds");
  r.EndSection("EngineSnapshot");
  return s;
}

std::string EncodeStateImage(const ShardIdentity& identity,
                             const EngineSnapshot& snapshot,
                             const OnlineClassifier& classifier,
                             const DriftDetector* detector) {
  Writer w;
  w.BeginSection("StateImage");
  WriteIdentity(w, identity);
  WriteSnapshot(w, snapshot);
  classifier.SaveState(w);
  w.Bool(detector != nullptr);
  if (detector != nullptr) detector->SaveState(w);
  w.EndSection();
  return SealEnvelope(w.data());
}

StateImage DecodeStateImage(const std::string& bytes) {
  std::string body = OpenEnvelope(bytes);
  Reader r(body);
  r.BeginSection("StateImage");
  StateImage image;
  image.identity = ReadIdentity(r);
  const ShardIdentity& id = image.identity;
  image.snapshot = ReadSnapshot(r);
  // Rebuild the components from their registry identity, then overwrite
  // the fresh instances' learned state from the wire. Registry failures
  // (unknown name, bad params) are a property of the *bytes* here, so
  // they surface as WireError like every other malformed-input path.
  try {
    image.classifier = api::Classifiers().Create(
        id.classifier, id.schema, id.seed,
        api::ParamMap::Parse(id.classifier_params));
    if (!id.detector.empty()) {
      image.detector = api::Detectors().Create(
          id.detector, id.schema, id.seed,
          api::ParamMap::Parse(id.detector_params));
    }
  } catch (const api::ApiError& e) {
    r.Fail("image.components", e.what());
  }
  image.classifier->LoadState(r);
  const bool has_detector = r.Bool("image.has_detector");
  if (has_detector != (image.detector != nullptr)) {
    r.Fail("image.has_detector",
           "detector presence flag disagrees with the detector name");
  }
  if (image.detector != nullptr) image.detector->LoadState(r);
  r.EndSection("StateImage");
  r.ExpectEnd("StateImage envelope");
  return image;
}

const char kManifestName[] = "MANIFEST";

std::string EncodeManifest(const Manifest& m) {
  Writer w;
  w.BeginSection("Manifest");
  WriteIdentity(w, m.identity);
  w.U64(m.pending_capacity);
  w.U64(m.generation);
  w.U32(static_cast<uint32_t>(m.shards.size()));
  for (const Manifest::ShardFile& f : m.shards) {
    w.String(f.file);
    w.U64(f.size);
    w.U32(f.crc);
  }
  w.EndSection();
  return SealEnvelope(w.data());
}

Manifest DecodeManifest(const std::string& bytes) {
  std::string body = OpenEnvelope(bytes);
  Reader r(body);
  r.BeginSection("Manifest");
  Manifest m;
  m.identity = ReadIdentity(r);
  m.pending_capacity = r.U64("manifest.pending_capacity");
  m.generation = r.U64("manifest.generation");
  uint32_t n = r.Count("manifest.shards", 1u << 20);
  if (n == 0) {
    r.Fail("manifest.shards", "a persisted monitor has at least one shard");
  }
  m.shards.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Manifest::ShardFile f;
    f.file = r.String("manifest.shard.file");
    f.size = r.U64("manifest.shard.size");
    f.crc = r.U32("manifest.shard.crc");
    m.shards.push_back(std::move(f));
  }
  r.EndSection("Manifest");
  r.ExpectEnd("Manifest envelope");
  return m;
}

uint32_t ShardFileCrc(const std::string& sealed) {
  return Crc32(sealed.data(), sealed.size() < 4 ? 0 : sealed.size() - 4);
}

StateImage ReadShardFile(const SnapshotStore& store, const Manifest& manifest,
                         size_t shard) {
  const Manifest::ShardFile& f = manifest.shards.at(shard);
  const std::string bytes = store.Read(f.file);
  if (bytes.size() != f.size || ShardFileCrc(bytes) != f.crc) {
    throw WireError(store.Path(f.file), 0,
                    "shard file does not match its manifest entry (size " +
                        std::to_string(bytes.size()) + " vs " +
                        std::to_string(f.size) +
                        ", or CRC mismatch) — swapped, stale or torn file");
  }
  StateImage image = DecodeStateImage(bytes);
  std::optional<std::string> why =
      ForeignImageReason(image.identity, manifest.identity);
  const uint64_t seed = manifest.identity.seed + shard;
  if (!why && image.identity.seed != seed) {
    why = "seed " + std::to_string(image.identity.seed) +
          " is not the fleet's shard seed " + std::to_string(seed);
  }
  if (why) {
    throw WireError(store.Path(f.file), 0,
                    "shard image of another fleet: " + *why);
  }
  return image;
}

}  // namespace io
}  // namespace ccd
