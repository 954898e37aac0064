#include "api/suite.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <utility>

#include "runtime/sync.h"
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

}  // namespace

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
  std::vector<SuiteCell> cells = Cells();

  // Fail fast on the whole grid before any evaluation work starts: a typo
  // must not surface hours into a sweep. (A custom runner may interpret
  // names its own way, so only the default Experiment path is validated.)
  if (!runner_) {
    for (const DetectorEntry& d : detectors_) {
      if (!d.name.empty()) ::ccd::api::Detectors().Require(d.name);
    }
    for (const ClassifierEntry& c : classifiers_) {
      ::ccd::api::Classifiers().Require(c.name);
    }
    if (has_config_) {
      try {
        ValidatePrequentialConfig(config_);
      } catch (const std::invalid_argument& e) {
        throw ApiError(e.what());
      }
    }
  }

  const CellRunner runner = runner_ ? runner_ : CellRunner(RunDefaultCell);

  SuiteResult out;
  out.cells.resize(cells.size());
  std::vector<std::exception_ptr> errors(cells.size());
  runtime::Mutex callback_mutex;
  {
    runtime::ThreadPool pool(threads_ < 1
                                 ? runtime::ThreadPool::DefaultThreads()
                                 : threads_);
    for (size_t i = 0; i < cells.size(); ++i) {
      pool.Submit([&, i] {
        try {
          PrequentialResult r = runner(cells[i]);
          if (on_cell_done_) {
            runtime::MutexLock lock(&callback_mutex);
            on_cell_done_(cells[i], r);
          }
          out.cells[i] = SuiteCellResult{std::move(cells[i]), std::move(r)};
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.Wait();
  }
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Collapse the repeats of each grid position (cells are grid-ordered, so
  // every consecutive run of `repeats_` cells shares its axes).
  for (size_t i = 0; i < out.cells.size(); i += static_cast<size_t>(repeats_)) {
    const SuiteCell& first = out.cells[i].cell;
    SuiteAggregate agg;
    agg.stream_index = first.stream_index;
    agg.detector_index = first.detector_index;
    agg.classifier_index = first.classifier_index;
    agg.stream_label = first.stream_label;
    agg.detector_label = first.detector_label;
    agg.classifier = first.classifier;
    agg.instances = out.cells[i].result.instances;
    for (int r = 0; r < repeats_; ++r) {
      const PrequentialResult& res = out.cells[i + static_cast<size_t>(r)].result;
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
