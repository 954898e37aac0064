#ifndef CCD_API_SHARDED_MONITOR_H_
#define CCD_API_SHARDED_MONITOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/component_registry.h"
#include "api/param_map.h"
#include "eval/engine.h"
#include "io/shard_identity.h"
#include "runtime/router.h"

namespace ccd {
namespace io {
// io/state_codec.h — only the .cc depends on the codecs.
struct StateImage;
class MonitorService;
}  // namespace io
namespace api {

/// Aggregate callbacks of a ShardedMonitor: the per-shard engine events
/// fan in here with the shard id attached. They fire synchronously on the
/// pushing thread *while that shard's lock is held*, so:
///
///  * callbacks from different shards run concurrently — handlers must be
///    thread-safe;
///  * callbacks must NOT call back into the monitor (any method): the
///    shard and routing locks are not reentrant, a push from inside a
///    callback throws std::logic_error, and the underlying engine
///    additionally rejects mutating reentry. Hand the event to a queue and
///    act on another thread instead.
struct ShardedHooks {
  /// A drift alarm from shard `shard`. The alarm position is shard-local
  /// (that engine's completed-instance count).
  std::function<void(int shard, const DriftAlarm&, const MetricsSnapshot&)>
      on_drift;
  /// A periodic per-shard metric sample.
  std::function<void(int shard, const MetricsSnapshot&)> on_metrics;
};

/// The serving type: K independent MonitorEngine shards — each with its
/// own classifier/detector — behind a runtime::Router, so pushes from many
/// threads land on disjoint engines and only serialize when they hit the
/// *same* shard. Push throughput scales with the shard count (see
/// bench/bench_serving); api::Monitor (api/monitor.h) is the one-shard
/// single-stream facade over it.
///
///   auto monitor = api::ShardedMonitorBuilder()
///                      .Schema(20, 5)
///                      .Classifier("naive-bayes")
///                      .Detector("DDM")
///                      .Shards(8)
///                      .OnDrift([](int shard, const ccd::DriftAlarm& a,
///                                  const ccd::MetricsSnapshot& m) {
///                        alert(shard, a.position, m.pmauc);
///                      })
///                      .Build();
///
///   auto p = monitor.Predict(user_id, features);  // same key, same shard
///   ...
///   monitor.Label(p.shard, p.id, observed_outcome);
///
/// Routing: Predict/Feed and their batch forms route each key by
/// runtime::Router::HashKey, so each key's instance sequence is handled by
/// one engine in push order. Per-key streams keep exact prequential
/// semantics — and with them RBM-IM's per-class drift signal — and a
/// single-threaded run is bit-identical to K independent MonitorEngines,
/// shard i's components seeded Seed() + i, fed the key-partitioned
/// substreams (tests/router_test.cc proves it, multi-threaded included).
/// Labels go to the shard their Prediction ticket names, which stays
/// valid across AddShard().
///
/// One push path: every push — Predict, Feed, Label and their batch
/// forms — is a batch (a per-instance call is a batch of one) handled by
/// one routine. Under one shared table hold it routes and validates every
/// element first (a row that fails admission, eval/admission.h, throws
/// AdmissionError, a bogus ticket shard throws std::out_of_range, a
/// Predict/Feed routed to a shipped shard throws std::logic_error), and
/// only then, for each involved shard in ascending order, takes that
/// shard's lock once and applies its elements in batch order. So a push
/// that throws applied nothing, per-shard results are bit-identical to
/// per-instance calls, and every state capture is a consistent cut.
///
/// Live resharding — the state image (io/state_codec.h) is the one
/// migration payload:
///  * DrainShard(i) encodes shard i's complete state (engine snapshot
///    incl. the pending-label buffer + the components' SaveState()
///    payloads), decodes it into fresh components and installs them
///    behind a fresh engine in the same slot. Serving continues exactly
///    where the drained engine stopped — results are bit-identical to
///    never having moved.
///  * ShipShard(i) / RestoreShard(i, bytes) move the same bytes between
///    monitors, also across processes.
///  * AddShard() grows the table with a fresh, empty shard; keyed routing
///    hashes over the grown table, so a slice of every old shard's *new*
///    traffic re-routes to it (histories stay where they are).
///
/// Shard i's components are built with seed `Seed() + i` — a documented
/// contract, so an external baseline can reconstruct any shard exactly.
///
/// Thread-safety: every public method is safe to call concurrently.
/// Aggregate accessors (Result(), Snapshot(), position(), ...) lock shards
/// one at a time, so they observe each shard consistently but not the
/// fleet atomically while producers keep pushing. The monitor is neither
/// copyable nor movable (engines hold routing state by address); it is
/// created in place by ShardedMonitorBuilder::Build().
class ShardedMonitor {
 public:
  /// What a Predict() call hands back: the shard that served it plus that
  /// engine's ticket. Ids are shard-local — Label() needs both.
  struct Prediction {
    int shard = 0;
    uint64_t id = 0;
    int label = 0;  ///< Argmax of `scores`.
    std::vector<double> scores;
  };

  /// One element of a keyed batch push (FeedBatch / PredictBatch).
  struct KeyedInstance {
    uint64_t key = 0;
    Instance instance;
  };

  /// One element of a batch label (LabelBatch): addressed like Label(),
  /// by the ticket's shard and shard-local id.
  struct ShardLabel {
    int shard = 0;
    uint64_t id = 0;
    int label = 0;
  };

  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;
  ShardedMonitor(ShardedMonitor&&) = delete;
  ShardedMonitor& operator=(ShardedMonitor&&) = delete;

  // --- Pushes (see "One push path" above: a push that throws applied
  // nothing and is safe to retry).

  /// Routes `key` to its shard and scores `features` there.
  Prediction Predict(uint64_t key, const std::vector<double>& features,
                     double weight = 1.0);
  /// Immediate-label fast path for `key`'s shard.
  void Feed(uint64_t key, const Instance& instance);
  /// Completes prediction `id` on shard `shard` (from the Prediction
  /// ticket). Returns false when the id is unknown there — evicted, never
  /// issued, or already labelled. A shipped shard still accepts labels.
  bool Label(int shard, uint64_t id, int true_label);

  /// Batch pushes: per-shard relative order equals batch order, so
  /// per-shard results are bit-identical to per-instance calls. `out` is
  /// resized to the batch size, element i answering batch[i].
  void FeedBatch(const std::vector<KeyedInstance>& batch);
  void PredictBatch(const std::vector<KeyedInstance>& batch,
                    std::vector<Prediction>* out);
  void LabelBatch(const std::vector<ShardLabel>& batch,
                  std::vector<LabelOutcome>* outcomes = nullptr);

  // --- Resharding and reads.

  /// Grows the table with a fresh, empty shard (components built with
  /// seed `Seed() + index`) and returns its index. Takes the table
  /// exclusively: blocks until in-flight pushes drain, then re-routes
  /// subsequent keyed traffic over the grown table.
  int AddShard();

  /// Moves shard `shard`'s complete state (pending-label buffer included)
  /// onto fresh components behind a fresh engine through the state-image
  /// codec: encode the live shard, decode, install — under the exclusive
  /// table lock. Hash routing does not change; the shard keeps its slot
  /// and its keys. Behavior afterwards is bit-identical to never having
  /// drained. Everything that can throw runs before the old shard is
  /// touched, so a failed drain leaves the shard serving. Throws
  /// std::out_of_range on a bogus index, std::logic_error naming a
  /// component that does not implement SaveState().
  void DrainShard(int shard);

  int shards() const;
  const StreamSchema& schema() const { return identity_.schema; }

  /// Per-shard run state / result (the engine's own, shard-local view).
  EngineSnapshot ShardSnapshot(int shard) const;
  PrequentialResult ShardResult(int shard) const;

  /// Cross-shard aggregates (MergeSnapshots / MergedResult over all
  /// shards; see eval/engine.h for the merge semantics).
  EngineSnapshot Snapshot() const;
  PrequentialResult Result() const;
  /// Every shard's drift alarms, shard-tagged, ascending by position.
  std::vector<ShardAlarm> DriftLog() const;

  uint64_t position() const;          ///< Completed labels, all shards.
  uint64_t pending() const;           ///< Parked predictions, all shards.
  uint64_t evicted() const;
  uint64_t unmatched_labels() const;
  uint64_t drifts() const;            ///< DriftLog().size(), no copies.

  // --- Durability (implemented on the io layer; see src/io/).

  /// Atomically persists the complete monitor into `directory`: one
  /// envelope-sealed state image per shard plus a manifest, written as a
  /// new generation (`shard-<i>-g<N>.state`) with the manifest renamed
  /// into place last — the commit point. A crash at any moment leaves the
  /// directory openable at either the previous or the new generation,
  /// never a torn mix; superseded generation files are deleted only after
  /// the new manifest is durable. Takes the table exclusively (blocks
  /// until in-flight pushes drain), so the persisted fleet is a
  /// consistent cut. Throws io::WireError on I/O failure,
  /// std::logic_error when a component does not implement SaveState().
  void Persist(const std::string& directory);

  /// Reopens a monitor persisted by Persist(): validates the manifest and
  /// every shard file (size + CRC before decoding a byte, then the
  /// image's identity against the manifest's, as RestoreShard() does),
  /// rebuilds the components through the registries and restores their
  /// learned state.
  /// Serving then continues bit-identically to the monitor that persisted
  /// — tests/io_store_test.cc proves it across a SIGKILL. Hooks are not
  /// persisted; pass them anew. Throws io::WireError on any corruption.
  static ShardedMonitor Open(const std::string& directory,
                             ShardedHooks hooks = {});

  /// Envelope-sealed state image of one shard — a consistent copy taken
  /// under the shard lock; the shard keeps serving. The bytes are what
  /// RestoreShard() accepts, also across processes (io::MonitorService
  /// SHIP/LOAD speak exactly this payload).
  std::string SerializeShard(int shard) const;

  /// SerializeShard() and marking the shard shipped, atomically under the
  /// exclusive table lock: the migration-source half of a shard handoff.
  /// The shipped shard stops serving (Predict/Feed routed to it throw
  /// std::logic_error; labels are still accepted) until the operator
  /// drains or restores it — exactly one side of the handoff may accept
  /// new work.
  std::string ShipShard(int shard);

  /// Replaces shard `shard` with the state image in `bytes` (the
  /// migration-target half; the shard's previous state is discarded).
  /// Validates the image before taking a lock: malformed bytes throw
  /// io::WireError; an image of another fleet — schema width, classifier
  /// or detector name, canonical params or PrequentialConfig differing
  /// from this monitor's — throws ApiError; either way the failed restore
  /// is a no-op. Seeds are not compared (LoadState() overwrites every RNG
  /// cursor). Resumes serving immediately (a shipped shard is serving
  /// again).
  void RestoreShard(int shard, const std::string& bytes);

 private:
  friend class ShardedMonitorBuilder;
  friend class io::MonitorService;  // STATS reads SumCounters().

  /// One slot of the striped-lock discipline: the slot mutex lives in the
  /// same struct as the engine it guards, so Thread Safety Analysis can
  /// tie them together (`CCD_GUARDED_BY(mu)` needs a syntactic path from
  /// the access to its capability — call sites bind `Shard& s = *shards_[i]`
  /// once and lock `s.mu`). Heap-allocated (Mutex is immovable) and never
  /// replaced once published, so a reference obtained under the table
  /// lock stays valid for the monitor's lifetime.
  struct Shard {
    Shard(std::unique_ptr<OnlineClassifier> c, std::unique_ptr<DriftDetector> d,
          std::unique_ptr<MonitorEngine> e)
        : classifier(std::move(c)), detector(std::move(d)),
          engine(std::move(e)) {}

    /// mutable: const sweeps (SerializeShard, Snapshot, ...) still lock.
    mutable runtime::Mutex mu;
    /// Set by ShipShard(), cleared by InstallImage(). Guarded by the table
    /// lock, not `mu`: it is written only under the exclusive table hold
    /// and read under a shared one, which is what lets a push validate
    /// every element before taking any slot lock. TSA cannot name the
    /// router's mutex from here, hence no annotation.
    bool shipped = false;
    // Declaration order matters: the engine holds raw pointers into the
    // components, so they must outlive it on destruction.
    std::unique_ptr<OnlineClassifier> classifier CCD_GUARDED_BY(mu);
    std::unique_ptr<DriftDetector> detector CCD_GUARDED_BY(mu);
    std::unique_ptr<MonitorEngine> engine CCD_GUARDED_BY(mu);
  };

  /// How the push primitive finds an element's shard.
  enum class Route {
    kKey,    ///< Router::RouteKey(key): Predict/Feed, refused when shipped.
    kShard,  ///< Router::RequireSlot(shard): a ticket's shard (Label).
  };

  /// Build() passes no `images` and gets `shards` fresh shards; Open()
  /// passes one decoded state image per shard, installed in its slot.
  ShardedMonitor(io::ShardIdentity identity, size_t pending_capacity,
                 int shards, ShardedHooks hooks, uint64_t generation,
                 std::vector<io::StateImage>&& images);

  /// The one push primitive behind every push (see "One push path"
  /// above). Element i of `n` goes to the shard `target(i)` names — a key
  /// for kKey, a shard index for kShard — after `admit(i)` has run its
  /// admission check, and `apply(engine, i, shard)` runs under that
  /// shard's lock. Throws before applying anything when any element fails
  /// validation. Defined in the .cc, its only user.
  template <Route kRoute, typename TargetFn, typename AdmitFn,
            typename ApplyFn>
  void Push(size_t n, TargetFn target, AdmitFn admit, ApplyFn apply);

  /// Calls `read(engine)` for every shard, locking one slot at a time
  /// (the table reader hold re-taken per slot), so producers on other
  /// shards keep flowing: each read is consistent, the fleet view
  /// advisory. The table never shrinks, so the count read up front stays
  /// a valid lower bound.
  template <typename ReadFn>
  void SweepShards(ReadFn read) const;

  /// The counters STATS reports, summed over the shards one sweep visits.
  /// Each shard's counters are read under one slot-lock hold, so they come
  /// from one cut of that shard: `drifts` counts exactly the alarms raised
  /// on the `position` instances it completed.
  struct Counters {
    uint64_t position = 0;
    uint64_t pending = 0;
    uint64_t evicted = 0;
    uint64_t unmatched_labels = 0;
    uint64_t drifts = 0;
  };
  Counters SumCounters() const;

  std::vector<EngineSnapshot> CollectSnapshots() const;

  /// The identity half of shard `shard`'s state image: identity_ with
  /// seed + shard.
  io::ShardIdentity MakeShardIdentity(int shard) const;
  /// Shard `shard`'s live state as a sealed state image. The components
  /// write themselves in place; nothing is copied.
  std::string EncodeShard(const Shard& s, int shard) const CCD_REQUIRES(s.mu);
  /// Turns a decoded image into shard `shard`'s serving state: builds an
  /// engine on the image's components and restores its snapshot — the
  /// steps that can throw — then commits with no-throw moves, outgoing
  /// engine first (it holds raw pointers into the outgoing components),
  /// and clears `shipped`. Callers hold the exclusive table lock (or own
  /// the unpublished monitor).
  void InstallImage(Shard& s, int shard, io::StateImage&& image)
      CCD_REQUIRES(s.mu);

  /// Builds shard `shard`'s fresh components + engine (seed + shard).
  std::unique_ptr<Shard> MakeShard(int shard) const;
  /// Engine hooks forwarding to hooks_ with `shard` attached; empty slots
  /// stay empty so uninstalled callbacks keep costing nothing.
  EngineHooks MakeShardHooks(int shard) const;

  /// The fleet's identity; `seed` is the base seed (shard i: seed + i).
  const io::ShardIdentity identity_;
  const size_t pending_capacity_;
  const ShardedHooks hooks_;

  runtime::Router router_;
  /// Parallel to the router's slot table: the vector itself is guarded by
  /// the table capability (readers index it, only the exclusive writer
  /// grows it), each entry's payload by its own Shard::mu. Lock order is
  /// table-then-slot, always.
  std::vector<std::unique_ptr<Shard>> shards_
      CCD_GUARDED_BY(router_.TableMutex());
  /// Generation of the last Persist() from this process (Open() resumes
  /// from the manifest's value).
  uint64_t generation_ CCD_GUARDED_BY(router_.TableMutex()) = 0;
};

/// Fluent composer of a ShardedMonitor, mirroring api::Experiment:
/// components resolved by registered name, paper-protocol defaults
/// (window 1000, sample every 250, warmup 500, reset on drift, timing
/// off), ApiError on invalid configuration. Defaults: 1 shard (a sanity
/// baseline — size real deployments with Shards(k)), classifier
/// "cs-ptree", no detector, pending capacity 1024 *per shard*.
class ShardedMonitorBuilder {
 public:
  ShardedMonitorBuilder();

  ShardedMonitorBuilder& Schema(const StreamSchema& schema);
  ShardedMonitorBuilder& Schema(int num_features, int num_classes);

  ShardedMonitorBuilder& Classifier(const std::string& name,
                                    ParamMap params = {});
  ShardedMonitorBuilder& Detector(const std::string& name, ParamMap params = {});
  ShardedMonitorBuilder& NoDetector();

  /// Base seed: shard i's components are created with seed + i.
  ShardedMonitorBuilder& Seed(uint64_t seed);
  ShardedMonitorBuilder& Protocol(const PrequentialConfig& config);
  /// Per-shard delayed-label buffer bound (clamped to >= 1).
  ShardedMonitorBuilder& PendingCapacity(size_t capacity);

  /// Initial shard count (>= 1; ApiError otherwise).
  ShardedMonitorBuilder& Shards(int shards);

  ShardedMonitorBuilder& OnDrift(
      std::function<void(int, const DriftAlarm&, const MetricsSnapshot&)>
          callback);
  ShardedMonitorBuilder& OnMetrics(
      std::function<void(int, const MetricsSnapshot&)> callback);

  /// Instantiates the shards and their engines. Throws ApiError on a
  /// missing/invalid schema, unknown component names, a degenerate
  /// protocol or shard count. The result is constructed in place
  /// (guaranteed copy elision) — bind it directly:
  ///   auto monitor = builder.Build();
  ShardedMonitor Build() const;

 private:
  io::ShardIdentity identity_;
  bool has_schema_ = false;
  size_t pending_capacity_ = 1024;
  int shards_ = 1;
  ShardedHooks hooks_;
};

}  // namespace api
}  // namespace ccd

#endif  // CCD_API_SHARDED_MONITOR_H_
