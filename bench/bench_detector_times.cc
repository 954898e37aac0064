// Microbenchmarks for the bottom rows of Table III: the per-observation
// monitoring ("test") cost of each detector as a function of the number of
// classes and features. The absolute numbers are machine-specific; the
// paper's *shape* claim is that the statistical detectors (WSTD/RDDM/
// FHDDM) are cheapest, while among the skew-aware detectors RBM-IM tests
// faster than PerfSim / DDM-OCI at high K despite being trainable.
//
// The (workload x detector) grid runs on api::Suite with a custom cell
// runner that replays a pre-generated (instance, prediction, scores)
// buffer through DriftDetector::Observe — so the timed loop contains no
// stream or classifier work. --threads shards the grid; note that timing
// cells in parallel on a loaded machine perturbs the absolute ns/op
// (default is 1 thread for quiet numbers).
//
// Usage: bench_detector_times [--iters 200000] [--threads 1]
//                             [--detectors WSTD,...] [--csv times.csv]
//                             [--json times.json]

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "stream/stream.h"
#include "utils/cli.h"
#include "utils/rng.h"
#include "utils/table.h"

namespace {

/// Pre-generates a buffer of (instance, prediction, scores) outcomes so the
/// timed loop measures only DriftDetector::Observe.
struct Workload {
  ccd::StreamSchema schema;
  std::vector<ccd::Instance> instances;
  std::vector<int> predictions;
  std::vector<std::vector<double>> scores;

  Workload(int d, int k, size_t n, uint64_t seed) : schema(d, k, "bench") {
    ccd::Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> x(static_cast<size_t>(d));
      for (double& v : x) v = rng.NextDouble();
      int y = rng.UniformInt(0, k - 1);
      instances.emplace_back(std::move(x), y);
      predictions.push_back(rng.Bernoulli(0.7) ? y : rng.UniformInt(0, k - 1));
      std::vector<double> s(static_cast<size_t>(k), 1.0 / k);
      s[static_cast<size_t>(predictions.back())] += 0.5;
      scores.push_back(std::move(s));
    }
  }
};

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  const uint64_t iters =
      static_cast<uint64_t>(cli.GetInt("iters", 200000));
  std::vector<std::string> detectors = ccd::bench::SplitCsv(
      cli.GetString("detectors", "WSTD,RDDM,FHDDM,PerfSim,DDM-OCI,RBM-IM"));
  ccd::bench::RequireDetectors(detectors);

  // (classes, features) pairs matching the artificial benchmark scales,
  // encoded as synthetic stream-axis specs so the Suite grid machinery
  // (sharding, deterministic seeding, WriteJson) applies unchanged.
  ccd::api::Suite suite;
  suite.Threads(cli.GetInt("threads", 1)).Detectors(detectors);
  for (auto [k, d] : {std::pair<int, int>{5, 20}, {10, 40}, {20, 80}}) {
    ccd::StreamSpec spec;
    spec.name = "K=" + std::to_string(k) + ",d=" + std::to_string(d);
    spec.num_classes = k;
    spec.num_features = d;
    suite.Stream(spec);
  }
  suite.Seed(7);
  suite.Runner([iters](const ccd::api::SuiteCell& cell) {
    Workload w(cell.spec.num_features, cell.spec.num_classes, 4096,
               /*seed=*/99);
    auto detector = ccd::api::MakeDetector(cell.detector, w.schema,
                                           cell.options.seed,
                                           cell.detector_params);
    ccd::PrequentialResult r;
    r.instances = iters;
    auto t0 = std::chrono::steady_clock::now();
    size_t i = 0;
    for (uint64_t n = 0; n < iters; ++n) {
      detector->Observe(w.instances[i], w.predictions[i], w.scores[i]);
      if (detector->state() == ccd::DetectorState::kDrift) ++r.drifts;
      i = (i + 1) % w.instances.size();
    }
    r.detector_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return r;
  });

  ccd::api::SuiteResult res = suite.Run();

  ccd::Table table;
  table.SetHeader({"Workload", "Detector", "iters", "ns/op", "Mitems/s"});
  for (const ccd::api::SuiteCellResult& cell : res.cells) {
    double seconds = cell.result.detector_seconds;
    double ns_per_op = seconds / static_cast<double>(iters) * 1e9;
    double mitems = seconds > 0.0
                        ? static_cast<double>(iters) / seconds / 1e6
                        : 0.0;
    table.AddRow({cell.cell.stream_label, cell.cell.detector_label,
                  std::to_string(iters), ccd::Table::Num(ns_per_op, 1),
                  ccd::Table::Num(mitems)});
  }
  std::printf("Detector Observe() cost per workload\n\n%s\n",
              table.ToText().c_str());
  int status = 0;
  const std::string json = cli.GetString("json", "");
  if (!json.empty()) {
    status |= ccd::bench::ReportWrite(ccd::api::WriteJson(res, json), json);
  }
  std::string csv = cli.GetString("csv", "");
  if (!csv.empty()) status |= ccd::bench::ReportWrite(table.WriteCsv(csv), csv);
  return status;
} catch (const ccd::api::ApiError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ccd::CliError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
