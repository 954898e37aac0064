#include "api/suite.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "eval/engine.h"
#include "runtime/thread_pool.h"

namespace ccd {
namespace api {
namespace {

/// Full-precision double for JSON (round-trips through strtod).
std::string FmtG(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

PrequentialResult RunDefaultCell(const SuiteCell& cell) {
  Experiment e;
  e.Stream(cell.spec)
      .Options(cell.options)
      .Classifier(cell.classifier, cell.classifier_params);
  if (!cell.detector.empty()) e.Detector(cell.detector, cell.detector_params);
  if (cell.has_config) e.Prequential(cell.config);
  return e.Run();
}

/// The instances a cell runs: the protocol's max_instances when it sets
/// one, else the stream's realized length. Throws what StreamLength
/// throws.
uint64_t CellLength(const SuiteCell& cell) {
  if (cell.has_config && cell.config.max_instances != 0) {
    return cell.config.max_instances;
  }
  return StreamLength(cell.spec, cell.options);
}

/// The estimated cost of a cell's row: length x (features + classes), as
/// the classifier's and the detectors' work per instance grows with both.
/// A row whose stream cannot be built costs 0; its cells fail at once.
double RowCost(const SuiteCell& cell) {
  try {
    return static_cast<double>(CellLength(cell)) *
           (static_cast<double>(cell.spec.num_features) +
            static_cast<double>(cell.spec.num_classes));
  } catch (const std::invalid_argument&) {
    return 0.0;
  }
}

/// RunDefaultCell on the row's shared tape: the same components and
/// protocol Experiment::Run() builds, fed the tape's rows in place of a
/// private generator. A row over the cap runs RunDefaultCell itself.
PrequentialResult RunTapeCell(const SuiteCell& cell, detail::RowTape* tape) {
  if (!tape->Open(cell)) return RunDefaultCell(cell);
  const StreamSchema& schema = tape->schema();
  std::unique_ptr<OnlineClassifier> classifier = Classifiers().Create(
      cell.classifier, schema, cell.options.seed, cell.classifier_params);
  std::unique_ptr<DriftDetector> detector;
  if (!cell.detector.empty()) {
    detector = Detectors().Create(cell.detector, schema, cell.options.seed,
                                  cell.detector_params);
  }
  PrequentialConfig config = cell.has_config ? cell.config
                                             : PrequentialConfig{};
  config.max_instances = tape->length();
  MonitorEngine engine(schema, classifier.get(), detector.get(), config);
  for (size_t c = 0; c < tape->chunks(); ++c) {
    for (const Instance& row : tape->Chunk(c)) engine.Feed(row);
  }
  return engine.Result();
}

}  // namespace

// -------------------------------------------------------------- row tape

namespace detail {

RowTape::RowTape(size_t readers, size_t cap_bytes, size_t chunk_rows)
    : cap_bytes_(cap_bytes),
      chunk_rows_(chunk_rows < 1 ? 1 : chunk_rows),
      readers_(readers) {}

size_t RowTape::RowBytes(int num_features) {
  return sizeof(Instance) + static_cast<size_t>(num_features) * sizeof(double);
}

bool RowTape::Open(const SuiteCell& cell) {
  runtime::MutexLock lock(&mu_);
  if (!opened_) {
    opened_ = true;
    try {
      BuiltStream built = BuildStream(cell.spec, cell.options);
      schema_ = built.stream->schema();
      length_ = CellLength(cell);
      row_bytes_ = RowBytes(schema_.num_features);
      fits_ = length_ <= cap_bytes_ / row_bytes_;
      if (fits_) {
        chunk_count_ = static_cast<size_t>((length_ + chunk_rows_ - 1) /
                                           chunk_rows_);
        chunks_.resize(chunk_count_);
        built_ = std::move(built);
      }
    } catch (const std::invalid_argument& e) {
      // Refused as Experiment::Build() refuses it.
      error_ = std::make_exception_ptr(ApiError(e.what()));
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  if (error_) std::rethrow_exception(error_);
  return fits_;
}

const std::vector<Instance>& RowTape::Chunk(size_t i) {
  for (;;) {
    size_t claim;
    {
      runtime::MutexLock lock(&mu_);
      while (!error_ && ready_ <= i && generating_) published_.Wait(mu_);
      if (error_) std::rethrow_exception(error_);
      if (i < ready_) return *chunks_[i];
      generating_ = true;
      claim = ready_;
    }
    // The claim makes this reader the generator's only user, so the rows
    // are drawn outside the lock while other readers replay older chunks.
    std::unique_ptr<ChunkRows> rows;
    try {
      const uint64_t begin = static_cast<uint64_t>(claim) * chunk_rows_;
      rows = std::make_unique<ChunkRows>(static_cast<size_t>(
          std::min<uint64_t>(chunk_rows_, length_ - begin)));
      for (Instance& row : *rows) built_.stream->NextInto(&row);
    } catch (...) {
      runtime::MutexLock lock(&mu_);
      error_ = std::current_exception();
      generating_ = false;
      published_.NotifyAll();
      throw;
    }
    runtime::MutexLock lock(&mu_);
    retained_bytes_ += rows->size() * row_bytes_;
    chunks_[claim] = std::move(rows);
    ++ready_;
    generating_ = false;
    published_.NotifyAll();
  }
}

size_t RowTape::retained_bytes() const {
  runtime::MutexLock lock(&mu_);
  return retained_bytes_;
}

void RowTape::Release() {
  runtime::MutexLock lock(&mu_);
  if (readers_ > 0 && --readers_ > 0) return;
  chunks_.clear();
  retained_bytes_ = 0;
  built_ = BuiltStream{};
}

}  // namespace detail

bool WriteJson(const SuiteResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"cells\": [";
  for (size_t i = 0; i < result.cells.size(); ++i) {
    const SuiteCellResult& c = result.cells[i];
    out << (i == 0 ? "" : ",") << "\n    {\"stream\": \""
        << JsonEscape(c.cell.stream_label) << "\", \"detector\": \""
        << JsonEscape(c.cell.detector_label) << "\", \"classifier\": \""
        << JsonEscape(c.cell.classifier) << "\", \"repeat\": " << c.cell.repeat
        << ", \"seed\": " << c.cell.options.seed
        << ", \"instances\": " << c.result.instances
        << ", \"pmauc\": " << FmtG(c.result.mean_pmauc)
        << ", \"pmgm\": " << FmtG(c.result.mean_pmgm)
        << ", \"accuracy\": " << FmtG(c.result.mean_accuracy)
        << ", \"kappa\": " << FmtG(c.result.mean_kappa)
        << ", \"drifts\": " << c.result.drifts << ", \"drift_positions\": [";
    for (size_t p = 0; p < c.result.drift_positions.size(); ++p) {
      out << (p == 0 ? "" : ", ") << c.result.drift_positions[p];
    }
    out << "], \"drift_events\": [";
    for (size_t p = 0; p < c.result.drift_events.size(); ++p) {
      const DriftAlarm& alarm = c.result.drift_events[p];
      out << (p == 0 ? "" : ", ") << "{\"position\": " << alarm.position
          << ", \"drifted_classes\": [";
      for (size_t k = 0; k < alarm.drifted_classes.size(); ++k) {
        out << (k == 0 ? "" : ", ") << alarm.drifted_classes[k];
      }
      out << "]}";
    }
    out << "], \"detector_seconds\": " << FmtG(c.result.detector_seconds)
        << ", \"classifier_seconds\": " << FmtG(c.result.classifier_seconds)
        << "}";
  }
  out << "\n  ],\n  \"aggregates\": [";
  for (size_t i = 0; i < result.aggregates.size(); ++i) {
    const SuiteAggregate& a = result.aggregates[i];
    out << (i == 0 ? "" : ",") << "\n    {\"stream\": \""
        << JsonEscape(a.stream_label) << "\", \"detector\": \""
        << JsonEscape(a.detector_label) << "\", \"classifier\": \""
        << JsonEscape(a.classifier) << "\", \"repeats\": " << a.pmauc.count()
        << ", \"instances\": " << a.instances
        << ", \"pmauc_mean\": " << FmtG(a.pmauc.mean())
        << ", \"pmauc_std\": " << FmtG(a.pmauc.StdDev())
        << ", \"pmgm_mean\": " << FmtG(a.pmgm.mean())
        << ", \"pmgm_std\": " << FmtG(a.pmgm.StdDev())
        << ", \"drifts_mean\": " << FmtG(a.drifts.mean())
        << ", \"drifts_std\": " << FmtG(a.drifts.StdDev()) << "}";
  }
  out << "\n  ]\n}\n";
  out.close();
  return !out.fail();
}

// ----------------------------------------------------------------- suite

Suite& Suite::Stream(const std::string& name) {
  const StreamSpec* spec = FindStreamSpec(name);
  if (spec == nullptr) {
    std::string msg = "unknown stream '" + name + "'; registered streams:";
    for (const StreamSpec& s : AllStreamSpecs()) msg += " " + s.name;
    throw ApiError(msg);
  }
  return Stream(*spec);
}

Suite& Suite::Stream(const StreamSpec& spec) {
  streams_.push_back(StreamEntry{spec, BuildOptions{}, false, spec.name});
  return *this;
}

Suite& Suite::Stream(const StreamSpec& spec, const BuildOptions& options,
                     std::string label) {
  streams_.push_back(StreamEntry{
      spec, options, true, label.empty() ? spec.name : std::move(label)});
  return *this;
}

Suite& Suite::Streams(const std::vector<std::string>& names) {
  for (const std::string& name : names) Stream(name);
  return *this;
}

Suite& Suite::Detector(const std::string& name, ParamMap params,
                       std::string label) {
  detectors_.push_back(DetectorEntry{
      name, std::move(params), label.empty() ? name : std::move(label)});
  return *this;
}

Suite& Suite::Detectors(const std::vector<std::string>& names) {
  for (const std::string& name : names) Detector(name);
  return *this;
}

Suite& Suite::NoDetector() {
  detectors_.push_back(DetectorEntry{"", ParamMap(), "none"});
  return *this;
}

Suite& Suite::Classifier(const std::string& name, ParamMap params) {
  classifiers_.push_back(ClassifierEntry{name, std::move(params)});
  return *this;
}

Suite& Suite::Options(const BuildOptions& options) {
  options_ = options;
  return *this;
}

Suite& Suite::Seed(uint64_t seed) {
  options_.seed = seed;
  return *this;
}

Suite& Suite::Scale(double scale) {
  options_.scale = scale;
  return *this;
}

Suite& Suite::Prequential(const PrequentialConfig& config) {
  config_ = config;
  has_config_ = true;
  return *this;
}

Suite& Suite::Repeats(int repeats) {
  repeats_ = repeats < 1 ? 1 : repeats;
  return *this;
}

Suite& Suite::Threads(int threads) {
  threads_ = threads;
  return *this;
}

Suite& Suite::Runner(CellRunner runner) {
  runner_ = std::move(runner);
  return *this;
}

Suite& Suite::OnCellDone(CellCallback callback) {
  on_cell_done_ = std::move(callback);
  return *this;
}

std::vector<SuiteCell> Suite::Cells() const {
  if (streams_.empty()) {
    throw ApiError(
        "Suite: no streams configured; call Stream()/Streams() before "
        "Cells()/Run()");
  }
  // Missing axes fall back to singleton defaults, mirroring Experiment.
  std::vector<DetectorEntry> detectors = detectors_;
  if (detectors.empty()) detectors.push_back(DetectorEntry{"", {}, "none"});
  std::vector<ClassifierEntry> classifiers = classifiers_;
  if (classifiers.empty()) {
    classifiers.push_back(ClassifierEntry{"cs-ptree", {}});
  }

  std::vector<SuiteCell> cells;
  cells.reserve(streams_.size() * detectors.size() * classifiers.size() *
                static_cast<size_t>(repeats_));
  for (size_t s = 0; s < streams_.size(); ++s) {
    const StreamEntry& se = streams_[s];
    for (size_t d = 0; d < detectors.size(); ++d) {
      for (size_t c = 0; c < classifiers.size(); ++c) {
        for (int r = 0; r < repeats_; ++r) {
          SuiteCell cell;
          cell.stream_index = s;
          cell.detector_index = d;
          cell.classifier_index = c;
          cell.repeat = r;
          cell.spec = se.spec;
          cell.stream_label = se.label;
          cell.options = se.has_options ? se.options : options_;
          // Deterministic per-repeat seeding: a pure function of the grid
          // coordinates, never of scheduling.
          cell.options.seed += static_cast<uint64_t>(r);
          cell.classifier = classifiers[c].name;
          cell.classifier_params = classifiers[c].params;
          cell.detector = detectors[d].name;
          cell.detector_params = detectors[d].params;
          cell.detector_label = detectors[d].label;
          cell.has_config = has_config_;
          cell.config = config_;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

SuiteResult Suite::Run() const {
  return detail::RunSuite(*this, detail::kRowTapeCapBytes);
}

SuiteResult detail::RunSuite(const Suite& suite, size_t tape_cap_bytes) {
  std::vector<SuiteCell> cells = suite.Cells();
  const size_t repeats = static_cast<size_t>(suite.repeats_);
  const size_t rows = suite.streams_.size() * repeats;
  auto row_of = [&cells, repeats](size_t i) {
    return cells[i].stream_index * repeats +
           static_cast<size_t>(cells[i].repeat);
  };

  // Submission order: rows by descending estimated cost (longest
  // processing time first), so the heaviest rows do not start last and
  // leave the other workers idle at the end of the run. Ties keep grid
  // order, and a row's cells stay adjacent and in grid order. A pure
  // function of the grid; results stay in grid order whatever it is.
  std::vector<double> row_cost(rows, 0.0);
  for (size_t i = 0; i < cells.size(); ++i) {
    row_cost[row_of(i)] = RowCost(cells[i]);
  }
  std::vector<size_t> order(cells.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t ra = row_of(a);
    const size_t rb = row_of(b);
    if (row_cost[ra] != row_cost[rb]) return row_cost[ra] > row_cost[rb];
    return ra < rb;
  });

  // Fail fast on the whole grid before any evaluation work starts: a typo
  // must not surface hours into a sweep. (A custom runner may interpret
  // names its own way, so only the default Experiment path is validated.)
  // The default path shares one tape per row (stream entry, repeat).
  std::vector<std::unique_ptr<RowTape>> tapes;
  if (!suite.runner_) {
    for (const Suite::DetectorEntry& d : suite.detectors_) {
      if (!d.name.empty()) Detectors().Require(d.name);
    }
    for (const Suite::ClassifierEntry& c : suite.classifiers_) {
      Classifiers().Require(c.name);
    }
    if (suite.has_config_) {
      try {
        ValidatePrequentialConfig(suite.config_);
      } catch (const std::invalid_argument& e) {
        throw ApiError(e.what());
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      tapes.push_back(std::make_unique<RowTape>(cells.size() / rows,
                                                tape_cap_bytes));
    }
  }

  SuiteResult out;
  out.cells.resize(cells.size());
  std::vector<std::exception_ptr> errors(cells.size());
  runtime::Mutex callback_mutex;
  {
    runtime::ThreadPool pool(suite.threads_ < 1
                                 ? runtime::ThreadPool::DefaultThreads()
                                 : suite.threads_);
    for (size_t i : order) {
      pool.Submit([&, i] {
        RowTape* tape = tapes.empty() ? nullptr : tapes[row_of(i)].get();
        try {
          PrequentialResult r = tape != nullptr
                                    ? RunTapeCell(cells[i], tape)
                                    : suite.runner_(cells[i]);
          if (suite.on_cell_done_) {
            runtime::MutexLock lock(&callback_mutex);
            suite.on_cell_done_(cells[i], r);
          }
          out.cells[i] = SuiteCellResult{std::move(cells[i]), std::move(r)};
        } catch (...) {
          errors[i] = std::current_exception();
        }
        if (tape != nullptr) tape->Release();
      });
    }
    pool.Wait();
  }
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Collapse the repeats of each grid position (cells are grid-ordered, so
  // every consecutive run of `repeats` cells shares its axes).
  for (size_t i = 0; i < out.cells.size(); i += repeats) {
    const SuiteCell& first = out.cells[i].cell;
    SuiteAggregate agg;
    agg.stream_index = first.stream_index;
    agg.detector_index = first.detector_index;
    agg.classifier_index = first.classifier_index;
    agg.stream_label = first.stream_label;
    agg.detector_label = first.detector_label;
    agg.classifier = first.classifier;
    agg.instances = out.cells[i].result.instances;
    for (size_t r = 0; r < repeats; ++r) {
      const PrequentialResult& res = out.cells[i + r].result;
      agg.pmauc.Add(res.mean_pmauc);
      agg.pmgm.Add(res.mean_pmgm);
      agg.accuracy.Add(res.mean_accuracy);
      agg.kappa.Add(res.mean_kappa);
      agg.drifts.Add(static_cast<double>(res.drifts));
      agg.detector_seconds.Add(res.detector_seconds);
      agg.classifier_seconds.Add(res.classifier_seconds);
    }
    out.aggregates.push_back(std::move(agg));
  }

  return out;
}

}  // namespace api
}  // namespace ccd
