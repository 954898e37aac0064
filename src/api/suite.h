#ifndef CCD_API_SUITE_H_
#define CCD_API_SUITE_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "runtime/sync.h"
#include "stats/welford.h"

namespace ccd {
namespace api {

/// One cell of an experiment grid: a fully resolved (stream, detector,
/// classifier, repeat) combination. Cells are value types — each one owns
/// copies of its spec, options and parameter maps. On Suite's default
/// path the cells of one row (same stream entry and repeat) share that
/// row's read-only instance tape (detail::RowTape); a custom Runner()
/// gets the cell alone.
struct SuiteCell {
  /// Axis coordinates inside the expanded grid (stream-major order).
  size_t stream_index = 0;
  size_t detector_index = 0;
  size_t classifier_index = 0;
  int repeat = 0;

  StreamSpec spec;
  std::string stream_label;  ///< Display label; defaults to spec.name.
  /// Build options with the repeat already mixed into the seed
  /// (seed = axis seed + repeat), so every repeat is a distinct but
  /// reproducible run.
  BuildOptions options;
  std::string classifier;
  ParamMap classifier_params;
  std::string detector;  ///< Empty = pure-classifier baseline.
  ParamMap detector_params;
  std::string detector_label;  ///< Defaults to the name, or "none".
  bool has_config = false;
  PrequentialConfig config;
};

/// Outcome of one executed cell.
struct SuiteCellResult {
  SuiteCell cell;
  PrequentialResult result;
};

/// Mean ± std (Welford) over the repeats of one (stream, detector,
/// classifier) grid position.
struct SuiteAggregate {
  size_t stream_index = 0;
  size_t detector_index = 0;
  size_t classifier_index = 0;
  std::string stream_label;
  std::string detector_label;
  std::string classifier;
  uint64_t instances = 0;  ///< Instances of the first repeat.

  Welford pmauc;
  Welford pmgm;
  Welford accuracy;
  Welford kappa;
  Welford drifts;
  Welford detector_seconds;
  Welford classifier_seconds;
};

/// Everything a suite run produced, in deterministic grid order (streams
/// outermost, then detectors, classifiers, repeats) regardless of the
/// worker count or scheduling.
struct SuiteResult {
  std::vector<SuiteCellResult> cells;
  std::vector<SuiteAggregate> aggregates;
};

class Suite;

namespace detail {

/// Byte cap of one row tape (64 MiB), counted in RowTape::RowBytes. A
/// fixed constant, not a knob: rows over it fall back to per-cell
/// generation.
constexpr size_t kRowTapeCapBytes = size_t{64} << 20;

/// Suite::Run() with the row tapes' byte cap as a parameter — the seam
/// through which tests reach the over-cap fallback at small scales.
SuiteResult RunSuite(const Suite& suite, size_t tape_cap_bytes);

/// The shared, append-only instance tape of one grid row. The tape owns
/// the row's single generator. Readers ask for chunks in order; whichever
/// reader first needs a chunk not yet generated claims it and generates it
/// outside the lock, and a reader that needs a chunk still being generated
/// waits for it. A published chunk never changes, so readers feed its rows
/// by const reference. The last reader's Release() frees the generator and
/// every chunk.
class RowTape {
 public:
  static constexpr size_t kChunkRows = 1024;

  /// `readers` is the number of Release() calls that free the tape.
  explicit RowTape(size_t readers, size_t cap_bytes = kRowTapeCapBytes,
                   size_t chunk_rows = kChunkRows);

  /// Bytes one tape row of `num_features` features holds: the Instance
  /// and its feature array (allocator headers not counted).
  static size_t RowBytes(int num_features);

  /// Builds the row's stream from `cell` on the first call; every call
  /// answers alike. Returns false when length x RowBytes exceed the cap
  /// (the caller then generates its own stream) and rethrows the build's
  /// error to every caller. The length is the cell's `max_instances`, or
  /// the stream's realized length when that is 0 or the cell carries no
  /// protocol.
  bool Open(const SuiteCell& cell);

  /// The row's schema and length; valid once Open() returned true.
  const StreamSchema& schema() const { return schema_; }
  uint64_t length() const { return length_; }
  size_t chunks() const { return chunk_count_; }

  /// Rows [i x chunk_rows, min((i + 1) x chunk_rows, length)), generated
  /// on first demand; valid until the last Release(). Rethrows a
  /// generation failure to every reader.
  const std::vector<Instance>& Chunk(size_t i);

  /// Bytes the published chunks hold, in RowBytes.
  size_t retained_bytes() const;

  /// One reader is done; the last frees the generator and every chunk.
  void Release();

 private:
  using ChunkRows = std::vector<Instance>;

  const size_t cap_bytes_;
  const size_t chunk_rows_;
  // Written once, under mu_, by the first Open(); read-only afterwards.
  StreamSchema schema_;
  uint64_t length_ = 0;
  size_t chunk_count_ = 0;
  size_t row_bytes_ = 0;
  /// Used only by the reader that holds the generation claim.
  BuiltStream built_;

  mutable runtime::Mutex mu_;
  runtime::CondVar published_;
  size_t readers_ CCD_GUARDED_BY(mu_);
  bool opened_ CCD_GUARDED_BY(mu_) = false;
  bool fits_ CCD_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ CCD_GUARDED_BY(mu_);
  bool generating_ CCD_GUARDED_BY(mu_) = false;
  size_t ready_ CCD_GUARDED_BY(mu_) = 0;  ///< Chunks published so far.
  std::vector<std::unique_ptr<const ChunkRows>> chunks_ CCD_GUARDED_BY(mu_);
  size_t retained_bytes_ CCD_GUARDED_BY(mu_) = 0;
};

}  // namespace detail

/// Writes the whole result (cells with drift positions and alarms, plus
/// aggregates) as one JSON document at `path`. Returns false when the file
/// cannot be opened or fully written.
bool WriteJson(const SuiteResult& result, const std::string& path);

/// Deterministic parallel runner for grids of prequential experiments —
/// the paper's tables and figures are (stream × detector × seed) grids,
/// and Suite shards them across a fixed-size thread pool (runtime::
/// ThreadPool) instead of the serial loops the bench binaries used to
/// hand-roll:
///
///   api::SuiteResult res = api::Suite()
///                              .Streams({"RBF5", "RBF10"})
///                              .Detectors({"RBM-IM", "DDM-OCI"})
///                              .Scale(0.01)
///                              .Repeats(5)
///                              .Threads(8)
///                              .Run();
///   api::WriteJson(res, "results.json");
///
/// Determinism: every cell derives its seed from the grid coordinates
/// alone (axis seed + repeat), builds its own classifier/detector, and
/// writes only its own result slot — so the same grid produces
/// bit-identical per-cell PrequentialResults with 1 thread or with 64.
///
/// Cells default to the protocol of Experiment::Run() (stream →
/// classifier → optional detector, the paper's protocol), with one
/// saving: the cells of a row (same stream entry and repeat, so same
/// spec, options, seed and protocol) see the same instance sequence, so
/// the row generates it once into a shared read-only tape
/// (detail::RowTape) that all of them replay, and frees it when its last
/// cell finishes. A row whose instances would take more than
/// detail::kRowTapeCapBytes (length x the bytes of one Instance with its
/// features) runs each cell through Experiment::Run() on its own
/// generator instead.
/// Callers with a different per-cell protocol (e.g. stream audits,
/// detector micro-timing) keep the grid, sharding, seeding and
/// aggregation machinery by supplying a Runner(); a custom runner gets
/// no tape.
///
/// Submission order: the pool (FIFO) gets the grid row by row, heaviest
/// row first (longest processing time first), so the heaviest rows do not
/// start last and leave the other workers idle at the end. A row's
/// estimated cost is length x (num_features + num_classes), the length
/// being the protocol's max_instances when set and StreamLength()
/// otherwise; rows of equal cost keep grid order, and a row's cells stay
/// adjacent and in grid order. The order is a pure function of the grid
/// and holds for a custom Runner() too. Only the start times move: the
/// results, the aggregates and the rethrown error keep grid order.
class Suite {
 public:
  using CellRunner = std::function<PrequentialResult(const SuiteCell&)>;
  /// Progress callback; invoked serialized (under a lock) as cells finish,
  /// in completion order — heaviest rows first, and *not* deterministic
  /// across runs with more than one worker (with one, it is the
  /// submission order).
  using CellCallback =
      std::function<void(const SuiteCell&, const PrequentialResult&)>;

  Suite() = default;

  /// Appends one entry to the stream axis; by-name lookups throw ApiError
  /// listing the registered streams. The three-argument form carries
  /// per-entry build options (e.g. a drift/imbalance override sweep) and
  /// an optional display label.
  Suite& Stream(const std::string& name);
  Suite& Stream(const StreamSpec& spec);
  Suite& Stream(const StreamSpec& spec, const BuildOptions& options,
                std::string label = "");
  Suite& Streams(const std::vector<std::string>& names);

  /// Appends one entry to the detector axis. `label` distinguishes
  /// variants of the same component (e.g. ablations via ParamMap);
  /// it defaults to the detector name. Unknown names throw at Run() —
  /// before any cell executes — unless a custom Runner() is installed.
  Suite& Detector(const std::string& name, ParamMap params = {},
                  std::string label = "");
  Suite& Detectors(const std::vector<std::string>& names);
  /// Appends the pure-classifier baseline (label "none") to the detector
  /// axis. A suite with no detector entries runs baselines only.
  Suite& NoDetector();

  /// Appends one entry to the classifier axis; defaults to a single
  /// "cs-ptree" (the paper's base learner) when never called.
  Suite& Classifier(const std::string& name, ParamMap params = {});

  /// Base build options for stream entries added without their own.
  Suite& Options(const BuildOptions& options);
  Suite& Seed(uint64_t seed);
  Suite& Scale(double scale);

  /// Evaluation protocol override for every cell (validated at Run()).
  Suite& Prequential(const PrequentialConfig& config);

  /// Repeats per grid position; repeat r runs with seed (axis seed + r).
  /// Values < 1 are clamped to 1.
  Suite& Repeats(int repeats);

  /// Worker thread count; < 1 means runtime::ThreadPool::DefaultThreads().
  Suite& Threads(int threads);

  /// Replaces the per-cell protocol (default: Experiment::Run()).
  Suite& Runner(CellRunner runner);

  /// Installs a progress callback (see CellCallback).
  Suite& OnCellDone(CellCallback callback);

  /// The expanded grid in deterministic order, without running anything.
  std::vector<SuiteCell> Cells() const;

  /// Executes the grid on the thread pool, aggregates repeats, and returns
  /// everything. The first cell error (in grid order)
  /// is rethrown after all cells finish.
  SuiteResult Run() const;

 private:
  friend SuiteResult detail::RunSuite(const Suite& suite,
                                      size_t tape_cap_bytes);

  struct StreamEntry {
    StreamSpec spec;
    BuildOptions options;
    bool has_options = false;
    std::string label;
  };
  struct DetectorEntry {
    std::string name;  ///< Empty = baseline.
    ParamMap params;
    std::string label;
  };
  struct ClassifierEntry {
    std::string name;
    ParamMap params;
  };

  std::vector<StreamEntry> streams_;
  std::vector<DetectorEntry> detectors_;
  std::vector<ClassifierEntry> classifiers_;
  BuildOptions options_;
  bool has_config_ = false;
  PrequentialConfig config_;
  int repeats_ = 1;
  int threads_ = 0;
  CellRunner runner_;
  CellCallback on_cell_done_;
};

}  // namespace api
}  // namespace ccd

#endif  // CCD_API_SUITE_H_
