#ifndef CCD_API_SUITE_H_
#define CCD_API_SUITE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "stats/welford.h"

namespace ccd {
namespace api {

/// One cell of an experiment grid: a fully resolved (stream, detector,
/// classifier, repeat) combination. Cells are value types — each one owns
/// copies of its spec, options and parameter maps, so running them on
/// worker threads shares no mutable state.
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
/// alone (axis seed + repeat), builds its own stream/classifier/detector,
/// and writes only its own result slot — so the same grid produces
/// bit-identical per-cell PrequentialResults with 1 thread or with 64.
///
/// Cells default to Experiment::Run() (stream → classifier → optional
/// detector, the paper's protocol). Callers with a different per-cell
/// protocol (e.g. stream audits, detector micro-timing) keep the grid,
/// sharding, seeding and aggregation machinery by supplying a Runner().
class Suite {
 public:
  using CellRunner = std::function<PrequentialResult(const SuiteCell&)>;
  /// Progress callback; invoked serialized (under a lock) as cells finish,
  /// in completion order — which is *not* deterministic across runs.
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
