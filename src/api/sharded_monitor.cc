#include "api/sharded_monitor.h"

#include <stdexcept>
#include <utility>

#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "io/wire.h"

namespace ccd {
namespace api {

namespace {

std::string DescribeComponent(const std::string& name,
                              const std::string& params) {
  if (name.empty()) return "(none)";
  return "'" + name + "'" + (params.empty() ? "" : " {" + params + "}");
}

/// Throws ApiError when an image with identity `image` cannot become a
/// shard of the monitor whose own identity is `own`. Seeds are not
/// compared: LoadState() overwrites every RNG cursor.
void RejectForeignImage(const io::ShardIdentity& image,
                        const io::ShardIdentity& own) {
  const std::string prefix = "ShardedMonitor::RestoreShard: image ";
  if (image.schema.num_features != own.schema.num_features ||
      image.schema.num_classes != own.schema.num_classes) {
    throw ApiError(prefix + "schema (" +
                   std::to_string(image.schema.num_features) + " features, " +
                   std::to_string(image.schema.num_classes) +
                   " classes) does not match this monitor (" +
                   std::to_string(own.schema.num_features) + ", " +
                   std::to_string(own.schema.num_classes) + ")");
  }
  if (image.classifier != own.classifier ||
      image.classifier_params != own.classifier_params) {
    throw ApiError(
        prefix + "classifier " +
        DescribeComponent(image.classifier, image.classifier_params) +
        " does not match this monitor's " +
        DescribeComponent(own.classifier, own.classifier_params));
  }
  if (image.detector != own.detector ||
      image.detector_params != own.detector_params) {
    throw ApiError(prefix + "detector " +
                   DescribeComponent(image.detector, image.detector_params) +
                   " does not match this monitor's " +
                   DescribeComponent(own.detector, own.detector_params));
  }
  if (image.config != own.config) {
    throw ApiError(prefix + "PrequentialConfig does not match this monitor's");
  }
}

}  // namespace

// --------------------------------------------------------- ShardedMonitor

ShardedMonitor::ShardedMonitor(const StreamSchema& schema,
                               const PrequentialConfig& config,
                               std::string classifier_name,
                               ParamMap classifier_params,
                               std::string detector_name,
                               ParamMap detector_params, uint64_t seed,
                               size_t pending_capacity, int shards,
                               runtime::RoutingMode mode, uint64_t merge_every,
                               size_t ingress_capacity, ShardedHooks hooks)
    : schema_(schema),
      config_(config),
      classifier_name_(std::move(classifier_name)),
      classifier_params_(std::move(classifier_params)),
      detector_name_(std::move(detector_name)),
      detector_params_(std::move(detector_params)),
      seed_(seed),
      pending_capacity_(pending_capacity),
      merge_every_(merge_every),
      ingress_capacity_(ingress_capacity),
      hooks_(std::move(hooks)),
      router_(shards, mode) {
  // Constructor: the monitor is not published yet, so the analysis (and
  // reality) exempt these guarded writes from the lock discipline.
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(MakeShard(i));
  }
}

std::unique_ptr<ShardedMonitor::Shard> ShardedMonitor::MakeShard(
    int shard) const {
  const uint64_t seed = seed_ + static_cast<uint64_t>(shard);
  std::unique_ptr<OnlineClassifier> classifier =
      Classifiers().Create(classifier_name_, schema_, seed, classifier_params_);
  std::unique_ptr<DriftDetector> detector;
  if (!detector_name_.empty()) {
    detector =
        Detectors().Create(detector_name_, schema_, seed, detector_params_);
  }
  auto engine = std::make_unique<MonitorEngine>(
      schema_, classifier.get(), detector.get(), config_,
      MakeShardHooks(shard), pending_capacity_);
  return std::make_unique<Shard>(std::move(classifier), std::move(detector),
                                 std::move(engine), ingress_capacity_);
}

size_t ShardedMonitor::DrainIngress(Shard& s) {
  // A shipped (paused) shard keeps its entries queued: Feed() on a paused
  // engine throws, and the documented handoff semantics give them to the
  // successor engine instead.
  if (s.engine->paused()) return 0;
  size_t drained = 0;
  while (s.ingress.TryPop(&s.ingress_scratch)) {
    s.engine->Feed(s.ingress_scratch);
    ++drained;
  }
  return drained;
}

EngineHooks ShardedMonitor::MakeShardHooks(int shard) const {
  EngineHooks h;
  // Only occupied fan-in slots are wired through, so a monitor without
  // callbacks keeps the engine's no-snapshot fast path.
  if (hooks_.on_drift) {
    h.on_drift = [this, shard](const DriftAlarm& a, const MetricsSnapshot& m) {
      hooks_.on_drift(shard, a, m);
    };
  }
  if (hooks_.on_warning) {
    h.on_warning = [this, shard](uint64_t position, const MetricsSnapshot& m) {
      hooks_.on_warning(shard, position, m);
    };
  }
  if (hooks_.on_metrics) {
    h.on_metrics = [this, shard](const MetricsSnapshot& m) {
      hooks_.on_metrics(shard, m);
    };
  }
  return h;
}

void ShardedMonitor::RequireMode(runtime::RoutingMode expected,
                                 const char* operation,
                                 const char* alternative) const {
  if (router_.mode() != expected) {
    throw std::logic_error(std::string("ShardedMonitor: ") + operation +
                           " requires " + runtime::RoutingModeName(expected) +
                           " routing, this monitor uses " +
                           runtime::RoutingModeName(router_.mode()) +
                           "; use " + alternative + " instead");
  }
}

ShardedMonitor::Prediction ShardedMonitor::Predict(
    uint64_t key, const std::vector<double>& features, double weight) {
  RequireMode(runtime::RoutingMode::kHashKey, "Predict(key, features)",
              "Predict(features)");
  Prediction p;
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    const int slot = router_.RouteKey(key);
    Shard& s = *shards_[static_cast<size_t>(slot)];
    runtime::MutexLock lock(&s.mu);
    drained = DrainIngress(s);
    MonitorEngine::Ticket t = s.engine->Predict(features, weight);
    p.shard = slot;
    p.id = t.id;
    p.label = t.predicted;
    p.scores = std::move(t.scores);
  }
  for (size_t i = 0; i < drained; ++i) NoteCompleted();
  return p;
}

void ShardedMonitor::Feed(uint64_t key, const Instance& instance) {
  RequireMode(runtime::RoutingMode::kHashKey, "Feed(key, instance)",
              "Feed(instance)");
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    const int slot = router_.RouteKey(key);
    Shard& s = *shards_[static_cast<size_t>(slot)];
    runtime::MutexLock lock(&s.mu);
    drained = DrainIngress(s);
    s.engine->Feed(instance);
  }
  for (size_t i = 0; i < drained + 1; ++i) NoteCompleted();
}

bool ShardedMonitor::LabelKey(uint64_t key, uint64_t id, int true_label) {
  RequireMode(runtime::RoutingMode::kHashKey, "LabelKey(key, id, label)",
              "Label(shard, id, label)");
  bool applied;
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    const int slot = router_.RouteKey(key);
    Shard& s = *shards_[static_cast<size_t>(slot)];
    runtime::MutexLock lock(&s.mu);
    drained = DrainIngress(s);
    applied = s.engine->Label(id, true_label) == LabelOutcome::kApplied;
  }
  for (size_t i = 0; i < drained + (applied ? 1u : 0u); ++i) NoteCompleted();
  return applied;
}

ShardedMonitor::Prediction ShardedMonitor::Predict(
    const std::vector<double>& features, double weight) {
  RequireMode(runtime::RoutingMode::kRoundRobin, "Predict(features)",
              "Predict(key, features)");
  Prediction p;
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    const int slot = router_.RouteNext();
    Shard& s = *shards_[static_cast<size_t>(slot)];
    runtime::MutexLock lock(&s.mu);
    drained = DrainIngress(s);
    MonitorEngine::Ticket t = s.engine->Predict(features, weight);
    p.shard = slot;
    p.id = t.id;
    p.label = t.predicted;
    p.scores = std::move(t.scores);
  }
  for (size_t i = 0; i < drained; ++i) NoteCompleted();
  return p;
}

void ShardedMonitor::Feed(const Instance& instance) {
  RequireMode(runtime::RoutingMode::kRoundRobin, "Feed(instance)",
              "Feed(key, instance)");
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    const int slot = router_.RouteNext();
    Shard& s = *shards_[static_cast<size_t>(slot)];
    runtime::MutexLock lock(&s.mu);
    drained = DrainIngress(s);
    s.engine->Feed(instance);
  }
  for (size_t i = 0; i < drained + 1; ++i) NoteCompleted();
}

bool ShardedMonitor::Label(int shard, uint64_t id, int true_label) {
  bool applied;
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    router_.RequireSlot(shard);
    Shard& s = *shards_[static_cast<size_t>(shard)];
    runtime::MutexLock lock(&s.mu);
    drained = DrainIngress(s);
    applied = s.engine->Label(id, true_label) == LabelOutcome::kApplied;
  }
  for (size_t i = 0; i < drained + (applied ? 1u : 0u); ++i) NoteCompleted();
  return applied;
}

bool ShardedMonitor::FeedAsync(uint64_t key, const Instance& instance) {
  RequireMode(runtime::RoutingMode::kHashKey, "FeedAsync(key, instance)",
              "Feed(key, instance)");
  runtime::ReaderLock table(&router_.TableMutex());
  const int slot = router_.RouteKey(key);
  Shard& s = *shards_[static_cast<size_t>(slot)];
  return s.ingress.TryPush(instance);
}

void ShardedMonitor::Flush() {
  const int n = router_.slots();
  for (int i = 0; i < n; ++i) {
    size_t drained;
    {
      runtime::ReaderLock table(&router_.TableMutex());
      Shard& s = *shards_[static_cast<size_t>(i)];
      runtime::MutexLock lock(&s.mu);
      drained = DrainIngress(s);
    }
    for (size_t k = 0; k < drained; ++k) NoteCompleted();
  }
}

void ShardedMonitor::FeedBatch(const std::vector<KeyedInstance>& batch) {
  RequireMode(runtime::RoutingMode::kHashKey, "FeedBatch(batch)",
              "Feed(instance) per element");
  size_t completed = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    // Partition by destination shard; per-shard order follows batch order.
    std::vector<std::vector<size_t>> by_slot;
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t slot =
          static_cast<size_t>(router_.RouteKey(batch[i].key));
      if (by_slot.size() <= slot) by_slot.resize(slot + 1);
      by_slot[slot].push_back(i);
    }
    for (size_t slot = 0; slot < by_slot.size(); ++slot) {
      if (by_slot[slot].empty()) continue;
      Shard& s = *shards_[slot];
      runtime::MutexLock lock(&s.mu);
      completed += DrainIngress(s);
      for (size_t i : by_slot[slot]) {
        s.engine->Feed(batch[i].instance);
        ++completed;
      }
    }
  }
  for (size_t i = 0; i < completed; ++i) NoteCompleted();
}

void ShardedMonitor::PredictBatch(const std::vector<KeyedInstance>& batch,
                                  std::vector<Prediction>* out) {
  RequireMode(runtime::RoutingMode::kHashKey, "PredictBatch(batch, out)",
              "Predict(key, features) per element");
  out->resize(batch.size());
  size_t drained = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    std::vector<std::vector<size_t>> by_slot;
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t slot =
          static_cast<size_t>(router_.RouteKey(batch[i].key));
      if (by_slot.size() <= slot) by_slot.resize(slot + 1);
      by_slot[slot].push_back(i);
    }
    MonitorEngine::Ticket t;  // Reused across elements.
    for (size_t slot = 0; slot < by_slot.size(); ++slot) {
      if (by_slot[slot].empty()) continue;
      Shard& s = *shards_[slot];
      runtime::MutexLock lock(&s.mu);
      drained += DrainIngress(s);
      for (size_t i : by_slot[slot]) {
        s.engine->Predict(batch[i].instance.features,
                          batch[i].instance.weight, &t);
        Prediction& p = (*out)[i];
        p.shard = static_cast<int>(slot);
        p.id = t.id;
        p.label = t.predicted;
        p.scores = t.scores;
      }
    }
  }
  for (size_t i = 0; i < drained; ++i) NoteCompleted();
}

void ShardedMonitor::LabelBatch(const std::vector<ShardLabel>& batch,
                                std::vector<LabelOutcome>* outcomes) {
  if (outcomes) outcomes->resize(batch.size());
  size_t completed = 0;
  {
    runtime::ReaderLock table(&router_.TableMutex());
    // Validate every index before applying anything: a bogus shard makes
    // the whole batch a no-op instead of a half-applied one.
    for (const ShardLabel& l : batch) router_.RequireSlot(l.shard);
    std::vector<std::vector<size_t>> by_slot;
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t slot = static_cast<size_t>(batch[i].shard);
      if (by_slot.size() <= slot) by_slot.resize(slot + 1);
      by_slot[slot].push_back(i);
    }
    for (size_t slot = 0; slot < by_slot.size(); ++slot) {
      if (by_slot[slot].empty()) continue;
      Shard& s = *shards_[slot];
      runtime::MutexLock lock(&s.mu);
      completed += DrainIngress(s);
      for (size_t i : by_slot[slot]) {
        const LabelOutcome outcome =
            s.engine->Label(batch[i].id, batch[i].label);
        if (outcome == LabelOutcome::kApplied) ++completed;
        if (outcomes) (*outcomes)[i] = outcome;
      }
    }
  }
  for (size_t i = 0; i < completed; ++i) NoteCompleted();
}

int ShardedMonitor::AddShard() {
  runtime::WriterLock table(&router_.TableMutex());
  // Strict throw-before-commit order: everything that can fail (component
  // construction, both allocations) happens before the router advertises
  // the new slot, so an exception leaves table and shard vector in step —
  // never a slot whose shards_ entry is missing.
  shards_.reserve(shards_.size() + 1);
  const int shard = static_cast<int>(shards_.size());
  std::unique_ptr<Shard> fresh = MakeShard(shard);
  router_.AddSlot(table);
  shards_.push_back(std::move(fresh));  // No-throw: capacity reserved.
  return shard;
}

void ShardedMonitor::DrainShard(int shard) {
  size_t drained = 0;
  {
    runtime::WriterLock table(&router_.TableMutex());
    router_.RequireSlot(shard);
    Shard& s = *shards_[static_cast<size_t>(shard)];
    // Under the exclusive table hold no push is in flight, but the slot
    // lock is still taken (uncontended) so every guarded access happens
    // under its declared capability.
    runtime::MutexLock lock(&s.mu);
    // Queued ingress entries belong to the outgoing engine's history:
    // apply them before the encode so the handoff is a consistent cut.
    drained = DrainIngress(s);
    // Encode (SaveState() throws for components without it), decode and
    // InstallImage's engine construction all run before the old shard is
    // touched, so a failed drain is a no-op: the shard keeps serving.
    InstallImage(s, shard, io::DecodeStateImage(EncodeShard(s, shard)));
  }
  for (size_t i = 0; i < drained; ++i) NoteCompleted();
}

int ShardedMonitor::shards() const { return router_.slots(); }

// ----------------------------------------------------------- durability

ShardedMonitor::ShardedMonitor(
    const StreamSchema& schema, const PrequentialConfig& config,
    std::string classifier_name, ParamMap classifier_params,
    std::string detector_name, ParamMap detector_params, uint64_t seed,
    size_t pending_capacity, runtime::RoutingMode mode, uint64_t merge_every,
    size_t ingress_capacity, ShardedHooks hooks, uint64_t completed_total,
    uint64_t generation, std::vector<io::StateImage>&& images)
    : schema_(schema),
      config_(config),
      classifier_name_(std::move(classifier_name)),
      classifier_params_(std::move(classifier_params)),
      detector_name_(std::move(detector_name)),
      detector_params_(std::move(detector_params)),
      seed_(seed),
      pending_capacity_(pending_capacity),
      merge_every_(merge_every),
      ingress_capacity_(ingress_capacity),
      hooks_(std::move(hooks)),
      router_(static_cast<int>(images.size()), mode),
      completed_total_(completed_total),
      generation_(generation) {
  shards_.reserve(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    auto slot = std::make_unique<Shard>(nullptr, nullptr, nullptr,
                                        ingress_capacity_);
    Shard& s = *slot;
    {
      // Unpublished and uncontended; taken so InstallImage's guarded
      // writes happen under their declared capability.
      runtime::MutexLock lock(&s.mu);
      InstallImage(s, static_cast<int>(i), std::move(images[i]));
    }
    shards_.push_back(std::move(slot));
  }
}

io::ShardIdentity ShardedMonitor::MakeShardIdentity(int shard) const {
  io::ShardIdentity id;
  id.schema = schema_;
  id.classifier = classifier_name_;
  id.classifier_params = classifier_params_.ToString();
  id.detector = detector_name_;
  id.detector_params = detector_params_.ToString();
  id.seed = seed_ + static_cast<uint64_t>(shard);
  id.config = config_;
  return id;
}

std::string ShardedMonitor::EncodeShard(const Shard& s, int shard) const {
  return io::EncodeStateImage(MakeShardIdentity(shard), s.engine->Snapshot(),
                              *s.classifier, s.detector.get());
}

void ShardedMonitor::InstallImage(Shard& s, int shard,
                                  io::StateImage&& image) {
  auto engine = std::make_unique<MonitorEngine>(
      schema_, image.classifier.get(), image.detector.get(), config_,
      MakeShardHooks(shard), pending_capacity_);
  engine->Restore(image.snapshot);  // Also clears any paused state.
  // Commit — no-throw moves, outgoing engine first.
  s.engine = std::move(engine);
  s.classifier = std::move(image.classifier);
  s.detector = std::move(image.detector);
}

void ShardedMonitor::Persist(const std::string& directory) {
  runtime::WriterLock table(&router_.TableMutex());
  // Apply queued ingress entries first: the persisted cut must reflect
  // every accepted FeedAsync (reopened queues start empty). The
  // merged-metrics cadence hook is not fired from inside the exclusive
  // persist window — only the counter advances, under NoteCompleted()'s
  // own enablement guard.
  {
    uint64_t drained = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      runtime::MutexLock lock(&s.mu);
      drained += DrainIngress(s);
    }
    if (merge_every_ != 0 && hooks_.on_merged_metrics) {
      completed_total_.fetch_add(drained, std::memory_order_relaxed);
    }
  }
  io::SnapshotStore store(directory);
  const uint64_t next_gen = generation_ + 1;

  io::Manifest manifest;
  manifest.schema = schema_;
  manifest.classifier = classifier_name_;
  manifest.classifier_params = classifier_params_.ToString();
  manifest.detector = detector_name_;
  manifest.detector_params = detector_params_.ToString();
  manifest.seed = seed_;
  manifest.config = config_;
  manifest.pending_capacity = pending_capacity_;
  manifest.mode = static_cast<uint8_t>(router_.mode());
  manifest.merge_every = merge_every_;
  manifest.completed_total = completed_total_.load(std::memory_order_relaxed);
  manifest.generation = next_gen;
  manifest.shards.reserve(shards_.size());

  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    runtime::MutexLock lock(&s.mu);
    const std::string bytes = EncodeShard(s, static_cast<int>(i));
    io::Manifest::ShardFile f;
    f.file = "shard-" + std::to_string(i) + "-g" + std::to_string(next_gen) +
             ".state";
    f.size = bytes.size();
    // Seeded with the shard index: a sealed envelope's whole-file CRC is
    // the fixed CRC-32 residue (the trailer is its own checksum), so an
    // unseeded digest could not tell shard files apart when swapped.
    f.crc = io::Crc32(bytes.data(), bytes.size(), static_cast<uint32_t>(i));
    store.Write(f.file, bytes);
    manifest.shards.push_back(std::move(f));
  }

  // Commit point: the manifest names only the new generation's files, and
  // its atomic rename flips the directory from old generation to new.
  store.Write(io::kManifestName, io::EncodeManifest(manifest));

  // Only now is the old generation (and any crash debris) garbage.
  for (const std::string& name : store.List()) {
    if (name == io::kManifestName) continue;
    bool live = false;
    for (const io::Manifest::ShardFile& f : manifest.shards) {
      if (f.file == name) {
        live = true;
        break;
      }
    }
    if (!live) store.Remove(name);
  }
  generation_ = next_gen;
}

ShardedMonitor ShardedMonitor::Open(const std::string& directory,
                                    ShardedHooks hooks) {
  io::SnapshotStore store(directory);
  io::Manifest m = io::DecodeManifest(store.Read(io::kManifestName));
  std::vector<io::StateImage> images;
  images.reserve(m.shards.size());
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const io::Manifest::ShardFile& f = m.shards[i];
    const std::string bytes = store.Read(f.file);
    if (bytes.size() != f.size ||
        io::Crc32(bytes.data(), bytes.size(), static_cast<uint32_t>(i)) !=
            f.crc) {
      throw io::WireError(
          store.Path(f.file), 0,
          "shard file does not match its manifest entry (size " +
              std::to_string(bytes.size()) + " vs " + std::to_string(f.size) +
              ", or CRC mismatch) — swapped or torn file");
    }
    io::StateImage image = io::DecodeStateImage(bytes);
    if (image.identity.schema.num_features != m.schema.num_features ||
        image.identity.schema.num_classes != m.schema.num_classes) {
      throw io::WireError(store.Path(f.file), 0,
                          "shard schema disagrees with the manifest");
    }
    images.push_back(std::move(image));
  }
  // Ingress queues are a serving knob, not persisted state (Persist()
  // drains them, so they are empty by construction): reopen at the
  // builder default.
  return ShardedMonitor(
      m.schema, m.config, m.classifier, ParamMap::Parse(m.classifier_params),
      m.detector, ParamMap::Parse(m.detector_params), m.seed,
      static_cast<size_t>(m.pending_capacity),
      static_cast<runtime::RoutingMode>(m.mode), m.merge_every,
      /*ingress_capacity=*/1024, std::move(hooks), m.completed_total,
      m.generation, std::move(images));
}

std::string ShardedMonitor::SerializeShard(int shard) const {
  runtime::ReaderLock table(&router_.TableMutex());
  router_.RequireSlot(shard);
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  runtime::MutexLock lock(&s.mu);
  return EncodeShard(s, shard);
}

std::string ShardedMonitor::ShipShard(int shard) {
  std::string bytes;
  size_t drained = 0;
  {
    runtime::WriterLock table(&router_.TableMutex());
    router_.RequireSlot(shard);
    Shard& s = *shards_[static_cast<size_t>(shard)];
    runtime::MutexLock lock(&s.mu);
    // Queued ingress entries must ship with the state — the source pauses
    // below and would otherwise strand them until a restore.
    drained = DrainIngress(s);
    bytes = EncodeShard(s, shard);
    // Encode succeeded — only now stop the source, so a failed ship
    // leaves the shard serving.
    s.engine->Pause();
  }
  for (size_t i = 0; i < drained; ++i) NoteCompleted();
  return bytes;
}

void ShardedMonitor::RestoreShard(int shard, const std::string& bytes) {
  // Decode (and thereby fully validate) before taking any lock or
  // touching the target shard: malformed or foreign bytes must leave it
  // serving — and must never reach a later Persist(), which would write
  // a generation Open() cannot read.
  io::StateImage image = io::DecodeStateImage(bytes);
  RejectForeignImage(image.identity, MakeShardIdentity(shard));
  runtime::WriterLock table(&router_.TableMutex());
  router_.RequireSlot(shard);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  runtime::MutexLock lock(&s.mu);
  InstallImage(s, shard, std::move(image));
}

EngineSnapshot ShardedMonitor::ShardSnapshot(int shard) const {
  runtime::ReaderLock table(&router_.TableMutex());
  router_.RequireSlot(shard);
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  runtime::MutexLock lock(&s.mu);
  return s.engine->Snapshot();
}

PrequentialResult ShardedMonitor::ShardResult(int shard) const {
  runtime::ReaderLock table(&router_.TableMutex());
  router_.RequireSlot(shard);
  const Shard& s = *shards_[static_cast<size_t>(shard)];
  runtime::MutexLock lock(&s.mu);
  return s.engine->Result();
}

std::vector<EngineSnapshot> ShardedMonitor::CollectSnapshots() const {
  // Slots are locked one at a time (table lock re-taken per slot), so
  // producers on other shards keep flowing while we sweep; each per-shard
  // snapshot is internally consistent, the fleet view is advisory. The
  // table never shrinks, so the count stays a valid lower bound.
  const int n = router_.slots();
  std::vector<EngineSnapshot> snapshots;
  snapshots.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    runtime::ReaderLock table(&router_.TableMutex());
    const Shard& s = *shards_[static_cast<size_t>(i)];
    runtime::MutexLock lock(&s.mu);
    snapshots.push_back(s.engine->Snapshot());
  }
  return snapshots;
}

EngineSnapshot ShardedMonitor::Snapshot() const {
  return MergeSnapshots(CollectSnapshots());
}

PrequentialResult ShardedMonitor::Result() const {
  return MergedResult(CollectSnapshots());
}

std::vector<ShardAlarm> ShardedMonitor::DriftLog() const {
  return MergeShardAlarms(CollectSnapshots());
}

uint64_t ShardedMonitor::SumOverShards(
    const std::function<uint64_t(const MonitorEngine&)>& read) const {
  uint64_t sum = 0;
  const int n = router_.slots();
  for (int i = 0; i < n; ++i) {
    runtime::ReaderLock table(&router_.TableMutex());
    const Shard& s = *shards_[static_cast<size_t>(i)];
    runtime::MutexLock lock(&s.mu);
    sum += read(*s.engine);
  }
  return sum;
}

uint64_t ShardedMonitor::position() const {
  return SumOverShards([](const MonitorEngine& e) { return e.position(); });
}

uint64_t ShardedMonitor::pending() const {
  return SumOverShards(
      [](const MonitorEngine& e) { return static_cast<uint64_t>(e.pending()); });
}

uint64_t ShardedMonitor::evicted() const {
  return SumOverShards([](const MonitorEngine& e) { return e.evicted(); });
}

uint64_t ShardedMonitor::unmatched_labels() const {
  return SumOverShards(
      [](const MonitorEngine& e) { return e.unmatched_labels(); });
}

void ShardedMonitor::NoteCompleted() {
  if (merge_every_ == 0 || !hooks_.on_merged_metrics) return;
  const uint64_t n =
      completed_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % merge_every_ != 0) return;
  const std::vector<EngineSnapshot> snapshots = CollectSnapshots();
  size_t window_total = 0;
  for (const EngineSnapshot& s : snapshots) window_total += s.window.size();
  const EngineSnapshot merged = MergeSnapshots(snapshots);
  MetricsSnapshot m;
  m.position = merged.position;
  m.window_size = window_total;
  if (merged.metric_samples > 0) {
    const double samples = static_cast<double>(merged.metric_samples);
    m.pmauc = merged.sum_pmauc / samples;
    m.pmgm = merged.sum_pmgm / samples;
    m.accuracy = merged.sum_accuracy / samples;
    m.kappa = merged.sum_kappa / samples;
  }
  hooks_.on_merged_metrics(m);
}

// -------------------------------------------------- ShardedMonitorBuilder

ShardedMonitorBuilder& ShardedMonitorBuilder::Schema(
    const StreamSchema& schema) {
  schema_ = schema;
  has_schema_ = true;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Schema(int num_features,
                                                     int num_classes) {
  return Schema(StreamSchema(num_features, num_classes, "sharded-monitor"));
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Classifier(
    const std::string& name, ParamMap params) {
  classifier_name_ = name;
  classifier_params_ = std::move(params);
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Detector(const std::string& name,
                                                       ParamMap params) {
  detector_name_ = name;
  detector_params_ = std::move(params);
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::NoDetector() {
  detector_name_.clear();
  detector_params_ = ParamMap();
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Seed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Protocol(
    const PrequentialConfig& config) {
  config_ = config;
  has_config_ = true;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::PendingCapacity(size_t capacity) {
  pending_capacity_ = capacity < 1 ? 1 : capacity;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Shards(int shards) {
  shards_ = shards;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Mode(runtime::RoutingMode mode) {
  mode_ = mode;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::MergeEvery(uint64_t n) {
  merge_every_ = n;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::IngressCapacity(size_t capacity) {
  ingress_capacity_ = capacity < 1 ? 1 : capacity;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::OnDrift(
    std::function<void(int, const DriftAlarm&, const MetricsSnapshot&)>
        callback) {
  hooks_.on_drift = std::move(callback);
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::OnWarning(
    std::function<void(int, uint64_t, const MetricsSnapshot&)> callback) {
  hooks_.on_warning = std::move(callback);
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::OnMetrics(
    std::function<void(int, const MetricsSnapshot&)> callback) {
  hooks_.on_metrics = std::move(callback);
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::OnMergedMetrics(
    std::function<void(const MetricsSnapshot&)> callback) {
  hooks_.on_merged_metrics = std::move(callback);
  return *this;
}

ShardedMonitor ShardedMonitorBuilder::Build() const {
  if (!has_schema_) {
    throw ApiError(
        "ShardedMonitorBuilder: no schema configured; call Schema(features, "
        "classes) before Build() — a push monitor has no stream to infer it "
        "from");
  }
  if (!schema_.Valid()) {
    throw ApiError(
        "ShardedMonitorBuilder: invalid schema (need num_features > 0 and "
        "num_classes >= 2)");
  }
  if (shards_ < 1) {
    throw ApiError("ShardedMonitorBuilder: Shards(" + std::to_string(shards_) +
                   ") is degenerate; a serving router needs >= 1 shard");
  }

  PrequentialConfig config;
  if (has_config_) {
    config = config_;
    try {
      ValidatePrequentialConfig(config);
    } catch (const std::invalid_argument& e) {
      throw ApiError(e.what());
    }
  } else {
    // The paper's protocol; timing off, as in MonitorBuilder — a serving
    // monitor wants alerts, not per-call stopwatches.
    config.metric_window = 1000;
    config.eval_interval = 250;
    config.warmup = 500;
    config.timing = false;
  }

  // Resolve the component names eagerly so an unknown name is an ApiError
  // at Build(), not inside the first AddShard() mid-serving.
  Classifiers().Require(classifier_name_);
  if (!detector_name_.empty()) Detectors().Require(detector_name_);

  return ShardedMonitor(schema_, config, classifier_name_, classifier_params_,
                        detector_name_, detector_params_, seed_,
                        pending_capacity_, shards_, mode_, merge_every_,
                        ingress_capacity_, hooks_);
}

}  // namespace api
}  // namespace ccd
