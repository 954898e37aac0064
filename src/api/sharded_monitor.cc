#include "api/sharded_monitor.h"

#include <stdexcept>
#include <utility>

#include "eval/admission.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "io/wire.h"

namespace ccd {
namespace api {

namespace {

/// The push primitive's partition scratch: one per pushing thread, reused
/// across calls, so a steady-state push does not allocate.
struct PushScratch {
  std::vector<int> shard;     ///< Element i's shard.
  std::vector<size_t> order;  ///< Element indices by shard, batch order within.
  /// Counting-sort bounds: after partitioning, shard s's elements are
  /// order[bound[s - 1], bound[s]) (from 0 for shard 0).
  std::vector<size_t> bound;
  bool active = false;  ///< A push is applying on this thread.
};

thread_local PushScratch t_push;

/// Marks the thread's scratch in use for one apply pass.
class ScratchClaim {
 public:
  explicit ScratchClaim(PushScratch* scratch) : scratch_(scratch) {
    scratch_->active = true;
  }
  ~ScratchClaim() { scratch_->active = false; }
  ScratchClaim(const ScratchClaim&) = delete;
  ScratchClaim& operator=(const ScratchClaim&) = delete;

 private:
  PushScratch* scratch_;
};

}  // namespace

// --------------------------------------------------------- ShardedMonitor

ShardedMonitor::ShardedMonitor(io::ShardIdentity identity,
                               size_t pending_capacity, int shards,
                               ShardedHooks hooks, uint64_t generation,
                               std::vector<io::StateImage>&& images)
    : identity_(std::move(identity)),
      pending_capacity_(pending_capacity),
      hooks_(std::move(hooks)),
      router_(shards),
      generation_(generation) {
  // Constructor: the monitor is not published yet, so the analysis (and
  // reality) exempt these guarded writes from the lock discipline.
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    if (images.empty()) {
      shards_.push_back(MakeShard(i));
      continue;
    }
    auto slot = std::make_unique<Shard>(nullptr, nullptr, nullptr);
    Shard& s = *slot;
    {
      // Uncontended; taken so InstallImage's guarded writes happen under
      // their declared capability.
      runtime::MutexLock lock(&s.mu);
      InstallImage(s, i, std::move(images[static_cast<size_t>(i)]));
    }
    shards_.push_back(std::move(slot));
  }
}

std::unique_ptr<ShardedMonitor::Shard> ShardedMonitor::MakeShard(
    int shard) const {
  const io::ShardIdentity& id = identity_;
  const uint64_t seed = id.seed + static_cast<uint64_t>(shard);
  std::unique_ptr<OnlineClassifier> classifier = Classifiers().Create(
      id.classifier, id.schema, seed, ParamMap::Parse(id.classifier_params));
  std::unique_ptr<DriftDetector> detector;
  if (!id.detector.empty()) {
    detector = Detectors().Create(id.detector, id.schema, seed,
                                  ParamMap::Parse(id.detector_params));
  }
  auto engine = std::make_unique<MonitorEngine>(
      id.schema, classifier.get(), detector.get(), id.config,
      MakeShardHooks(shard), pending_capacity_);
  return std::make_unique<Shard>(std::move(classifier), std::move(detector),
                                 std::move(engine));
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
  if (hooks_.on_metrics) {
    h.on_metrics = [this, shard](const MetricsSnapshot& m) {
      hooks_.on_metrics(shard, m);
    };
  }
  return h;
}

template <ShardedMonitor::Route kRoute, typename TargetFn, typename AdmitFn,
          typename ApplyFn>
void ShardedMonitor::Push(size_t n, TargetFn target, AdmitFn admit,
                          ApplyFn apply) {
  PushScratch& scratch = t_push;
  if (scratch.active) {
    throw std::logic_error(
        "ShardedMonitor: push from inside a callback; hooks must not call "
        "back into the monitor");
  }
  runtime::ReaderLock table(&router_.TableMutex());
  // Route and validate every element before applying any. Shipped state
  // changes only under the exclusive table lock, which this hold excludes.
  const size_t shards = shards_.size();
  scratch.shard.resize(n);
  scratch.bound.assign(shards, 0);
  for (size_t i = 0; i < n; ++i) {
    admit(i);
    int shard;
    if constexpr (kRoute == Route::kKey) {
      shard = router_.RouteKey(target(i));
      if (shards_[static_cast<size_t>(shard)]->shipped) {
        throw std::logic_error(
            "ShardedMonitor: shard " + std::to_string(shard) +
            " is shipped; Predict/Feed routed to it are refused until "
            "RestoreShard() or DrainShard()");
      }
    } else {
      shard = target(i);
      router_.RequireSlot(shard);
    }
    scratch.shard[i] = shard;
    ++scratch.bound[static_cast<size_t>(shard)];
  }
  // Counting sort: group element indices by shard, batch order within.
  size_t start = 0;
  for (size_t slot = 0; slot < shards; ++slot) {
    const size_t count = scratch.bound[slot];
    scratch.bound[slot] = start;
    start += count;
  }
  scratch.order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.order[scratch.bound[static_cast<size_t>(scratch.shard[i])]++] = i;
  }
  // Apply: each involved shard's lock once, ascending.
  const ScratchClaim claim(&scratch);
  size_t begin = 0;
  for (size_t slot = 0; slot < shards; ++slot) {
    const size_t end = scratch.bound[slot];
    if (begin == end) continue;
    Shard& s = *shards_[slot];
    runtime::MutexLock lock(&s.mu);
    for (size_t k = begin; k < end; ++k) {
      apply(*s.engine, scratch.order[k], static_cast<int>(slot));
    }
    begin = end;
  }
}

ShardedMonitor::Prediction ShardedMonitor::Predict(
    uint64_t key, const std::vector<double>& features, double weight) {
  Prediction p;
  Push<Route::kKey>(
      1, [key](size_t) { return key; },
      [&](size_t) { CheckRow(schema(), features, weight, std::nullopt); },
      [&](MonitorEngine& engine, size_t, int shard) {
        MonitorEngine::Ticket t = engine.Predict(features, weight);
        p.shard = shard;
        p.id = t.id;
        p.label = t.predicted;
        p.scores = std::move(t.scores);
      });
  return p;
}

void ShardedMonitor::Feed(uint64_t key, const Instance& instance) {
  Push<Route::kKey>(
      1, [key](size_t) { return key; },
      [&](size_t) {
        CheckRow(schema(), instance.features, instance.weight, instance.label);
      },
      [&instance](MonitorEngine& engine, size_t, int) {
        engine.Feed(instance);
      });
}

bool ShardedMonitor::Label(int shard, uint64_t id, int true_label) {
  bool applied = false;
  Push<Route::kShard>(
      1, [shard](size_t) { return shard; },
      [&](size_t) { CheckLabel(schema(), true_label); },
      [&](MonitorEngine& engine, size_t, int) {
        applied = engine.Label(id, true_label) == LabelOutcome::kApplied;
      });
  return applied;
}

void ShardedMonitor::FeedBatch(const std::vector<KeyedInstance>& batch) {
  Push<Route::kKey>(
      batch.size(), [&batch](size_t i) { return batch[i].key; },
      [&](size_t i) {
        const Instance& row = batch[i].instance;
        CheckRow(schema(), row.features, row.weight, row.label);
      },
      [&batch](MonitorEngine& engine, size_t i, int) {
        engine.Feed(batch[i].instance);
      });
}

void ShardedMonitor::PredictBatch(const std::vector<KeyedInstance>& batch,
                                  std::vector<Prediction>* out) {
  out->resize(batch.size());
  MonitorEngine::Ticket t;  // Reused across elements.
  Push<Route::kKey>(
      batch.size(), [&batch](size_t i) { return batch[i].key; },
      [&](size_t i) {
        const Instance& row = batch[i].instance;
        CheckRow(schema(), row.features, row.weight, std::nullopt);
      },
      [&](MonitorEngine& engine, size_t i, int shard) {
        engine.Predict(batch[i].instance.features, batch[i].instance.weight,
                       &t);
        Prediction& p = (*out)[i];
        p.shard = shard;
        p.id = t.id;
        p.label = t.predicted;
        p.scores = t.scores;
      });
}

void ShardedMonitor::LabelBatch(const std::vector<ShardLabel>& batch,
                                std::vector<LabelOutcome>* outcomes) {
  if (outcomes) outcomes->resize(batch.size());
  Push<Route::kShard>(
      batch.size(), [&batch](size_t i) { return batch[i].shard; },
      [&](size_t i) { CheckLabel(schema(), batch[i].label); },
      [&](MonitorEngine& engine, size_t i, int) {
        const LabelOutcome outcome = engine.Label(batch[i].id, batch[i].label);
        if (outcomes) (*outcomes)[i] = outcome;
      });
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
  runtime::WriterLock table(&router_.TableMutex());
  router_.RequireSlot(shard);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  // Under the exclusive table hold no push is in flight, but the slot
  // lock is still taken (uncontended) so every guarded access happens
  // under its declared capability.
  runtime::MutexLock lock(&s.mu);
  // Encode (SaveState() throws for components without it), decode and
  // InstallImage's engine construction all run before the old shard is
  // touched, so a failed drain is a no-op: the shard keeps serving.
  InstallImage(s, shard, io::DecodeStateImage(EncodeShard(s, shard)));
}

int ShardedMonitor::shards() const { return router_.slots(); }

// ----------------------------------------------------------- durability

io::ShardIdentity ShardedMonitor::MakeShardIdentity(int shard) const {
  io::ShardIdentity id = identity_;
  id.seed += static_cast<uint64_t>(shard);
  return id;
}

std::string ShardedMonitor::EncodeShard(const Shard& s, int shard) const {
  return io::EncodeStateImage(MakeShardIdentity(shard), s.engine->Snapshot(),
                              *s.classifier, s.detector.get());
}

void ShardedMonitor::InstallImage(Shard& s, int shard,
                                  io::StateImage&& image) {
  auto engine = std::make_unique<MonitorEngine>(
      identity_.schema, image.classifier.get(), image.detector.get(),
      identity_.config, MakeShardHooks(shard), pending_capacity_);
  engine->Restore(image.snapshot);
  // Commit — no-throw moves, outgoing engine first.
  s.engine = std::move(engine);
  s.classifier = std::move(image.classifier);
  s.detector = std::move(image.detector);
  s.shipped = false;
}

void ShardedMonitor::Persist(const std::string& directory) {
  runtime::WriterLock table(&router_.TableMutex());
  io::SnapshotStore store(directory);
  const uint64_t next_gen = generation_ + 1;

  io::Manifest manifest{identity_, pending_capacity_, next_gen, {}};
  manifest.shards.reserve(shards_.size());

  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    runtime::MutexLock lock(&s.mu);
    const std::string bytes = EncodeShard(s, static_cast<int>(i));
    io::Manifest::ShardFile f;
    f.file = "shard-" + std::to_string(i) + "-g" + std::to_string(next_gen) +
             ".state";
    f.size = bytes.size();
    f.crc = io::ShardFileCrc(bytes);
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
    images.push_back(io::ReadShardFile(store, m, i));
  }
  return ShardedMonitor(std::move(m.identity),
                        static_cast<size_t>(m.pending_capacity),
                        static_cast<int>(images.size()), std::move(hooks),
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
  runtime::WriterLock table(&router_.TableMutex());
  router_.RequireSlot(shard);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  runtime::MutexLock lock(&s.mu);
  std::string bytes = EncodeShard(s, shard);
  // Encode succeeded — only now stop the source, so a failed ship
  // leaves the shard serving.
  s.shipped = true;
  return bytes;
}

void ShardedMonitor::RestoreShard(int shard, const std::string& bytes) {
  // Decode (and thereby fully validate) before taking any lock or
  // touching the target shard: malformed or foreign bytes must leave it
  // serving — and must never reach a later Persist(), which would write
  // a generation Open() cannot read.
  io::StateImage image = io::DecodeStateImage(bytes);
  if (const auto why = io::ForeignImageReason(image.identity, identity_)) {
    throw ApiError("ShardedMonitor::RestoreShard: image " + *why);
  }
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

template <typename ReadFn>
void ShardedMonitor::SweepShards(ReadFn read) const {
  const int n = router_.slots();
  for (int i = 0; i < n; ++i) {
    runtime::ReaderLock table(&router_.TableMutex());
    const Shard& s = *shards_[static_cast<size_t>(i)];
    runtime::MutexLock lock(&s.mu);
    read(static_cast<const MonitorEngine&>(*s.engine));
  }
}

std::vector<EngineSnapshot> ShardedMonitor::CollectSnapshots() const {
  std::vector<EngineSnapshot> snapshots;
  SweepShards([&snapshots](const MonitorEngine& e) {
    snapshots.push_back(e.Snapshot());
  });
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

ShardedMonitor::Counters ShardedMonitor::SumCounters() const {
  Counters sum;
  SweepShards([&sum](const MonitorEngine& e) {
    sum.position += e.position();
    sum.pending += e.pending();
    sum.evicted += e.evicted();
    sum.unmatched_labels += e.unmatched_labels();
    sum.drifts += e.drifts();
  });
  return sum;
}

uint64_t ShardedMonitor::position() const { return SumCounters().position; }

uint64_t ShardedMonitor::pending() const { return SumCounters().pending; }

uint64_t ShardedMonitor::evicted() const { return SumCounters().evicted; }

uint64_t ShardedMonitor::unmatched_labels() const {
  return SumCounters().unmatched_labels;
}

uint64_t ShardedMonitor::drifts() const { return SumCounters().drifts; }

// -------------------------------------------------- ShardedMonitorBuilder

ShardedMonitorBuilder::ShardedMonitorBuilder() {
  identity_.classifier = "cs-ptree";
  identity_.seed = 42;
  // The paper's protocol; timing off — a serving monitor wants alerts,
  // not per-call stopwatches.
  identity_.config.timing = false;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Schema(
    const StreamSchema& schema) {
  identity_.schema = schema;
  has_schema_ = true;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Schema(int num_features,
                                                     int num_classes) {
  return Schema(StreamSchema(num_features, num_classes, "sharded-monitor"));
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Classifier(
    const std::string& name, ParamMap params) {
  identity_.classifier = name;
  identity_.classifier_params = params.ToString();
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Detector(const std::string& name,
                                                       ParamMap params) {
  identity_.detector = name;
  identity_.detector_params = params.ToString();
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::NoDetector() {
  identity_.detector.clear();
  identity_.detector_params.clear();
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Seed(uint64_t seed) {
  identity_.seed = seed;
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::Protocol(
    const PrequentialConfig& config) {
  identity_.config = config;
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

ShardedMonitorBuilder& ShardedMonitorBuilder::OnDrift(
    std::function<void(int, const DriftAlarm&, const MetricsSnapshot&)>
        callback) {
  hooks_.on_drift = std::move(callback);
  return *this;
}

ShardedMonitorBuilder& ShardedMonitorBuilder::OnMetrics(
    std::function<void(int, const MetricsSnapshot&)> callback) {
  hooks_.on_metrics = std::move(callback);
  return *this;
}

ShardedMonitor ShardedMonitorBuilder::Build() const {
  if (!has_schema_) {
    throw ApiError(
        "ShardedMonitorBuilder: no schema configured; call Schema(features, "
        "classes) before Build() — a push monitor has no stream to infer it "
        "from");
  }
  if (!identity_.schema.Valid()) {
    throw ApiError(
        "ShardedMonitorBuilder: invalid schema (need num_features > 0 and "
        "num_classes >= 2)");
  }
  if (shards_ < 1) {
    throw ApiError("ShardedMonitorBuilder: Shards(" + std::to_string(shards_) +
                   ") is degenerate; a serving router needs >= 1 shard");
  }

  try {
    ValidatePrequentialConfig(identity_.config);
  } catch (const std::invalid_argument& e) {
    throw ApiError(e.what());
  }

  // Resolve the component names eagerly so an unknown name is an ApiError
  // at Build(), not inside the first AddShard() mid-serving.
  Classifiers().Require(identity_.classifier);
  if (!identity_.detector.empty()) Detectors().Require(identity_.detector);

  return ShardedMonitor(identity_, pending_capacity_, shards_, hooks_,
                        /*generation=*/0, /*images=*/{});
}

}  // namespace api
}  // namespace ccd
