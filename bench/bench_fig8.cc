// Reproduces Fig. 8 of the paper (Experiment 2): pmAUC of each detector as
// a function of the number of classes affected by *local* concept drift,
// on the 12 artificial benchmarks. Drift is injected starting from the
// smallest minority class, adding classes by increasing size (the paper's
// protocol), so the leftmost points are the hardest.
//
// Usage:
//   bench_fig8 [--scale 0.005] [--seed 42] [--threads N]
//              [--streams RBF5,...]
//              [--detectors ...] [--csv fig8.csv] [--json fig8.json]
//
// The (stream, drifted-class-count, detector) grid runs on api::Suite;
// --threads shards it across workers (0 = all cores).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "utils/cli.h"
#include "utils/table.h"

namespace {

using ccd::bench::SplitCsv;

/// Class counts swept per stream (matching the paper's x-axes: every count
/// for K=5, odd counts for K=20 to bound runtime).
std::vector<int> SweepCounts(int num_classes) {
  std::vector<int> out;
  int step = num_classes > 10 ? 4 : (num_classes > 5 ? 2 : 1);
  for (int c = 1; c <= num_classes; c += step) out.push_back(c);
  if (out.back() != num_classes) out.push_back(num_classes);
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  double scale = cli.GetDouble("scale", 0.005);
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  std::vector<std::string> detectors =
      SplitCsv(cli.GetString("detectors", "WSTD,RDDM,FHDDM,PerfSim,DDM-OCI,RBM-IM"));
  std::vector<std::string> stream_filter = SplitCsv(cli.GetString("streams", ""));
  ccd::bench::RequireDetectors(detectors);
  ccd::bench::RequireStreams(stream_filter, /*artificial_only=*/true);

  ccd::Table table;
  std::vector<std::string> header = {"Dataset", "classes_with_drift"};
  for (const auto& d : detectors) header.push_back(d);
  table.SetHeader(header);

  // Stream axis: one entry per (stream, drifted-class-count) point, each
  // carrying its own BuildOptions. Rows are rebuilt from the entry list.
  struct Point {
    std::string stream;
    int classes;
  };
  std::vector<Point> points;
  ccd::api::Suite suite;
  suite.Detectors(detectors)
      .Threads(cli.GetInt("threads", 0));
  for (const ccd::StreamSpec& spec : ccd::ArtificialStreamSpecs()) {
    if (!stream_filter.empty()) {
      bool keep = false;
      for (const auto& f : stream_filter) keep |= spec.name == f;
      if (!keep) continue;
    }
    for (int c : SweepCounts(spec.num_classes)) {
      ccd::BuildOptions options;
      options.scale = scale;
      options.seed = seed;
      options.local_drift_classes = c;
      suite.Stream(spec, options, spec.name + "#" + std::to_string(c));
      points.push_back({spec.name, c});
    }
  }
  std::vector<std::string> entry_streams;
  for (const Point& p : points) entry_streams.push_back(p.stream);
  ccd::bench::InstallStreamProgress(suite, entry_streams, detectors.size());

  ccd::api::SuiteResult res = suite.Run();
  for (size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row = {points[p].stream,
                                    std::to_string(points[p].classes)};
    for (size_t d = 0; d < detectors.size(); ++d) {
      const ccd::api::SuiteAggregate& agg =
          res.aggregates[p * detectors.size() + d];
      row.push_back(ccd::Table::Num(100.0 * agg.pmauc.mean()));
    }
    table.AddRow(row);
  }

  std::printf(
      "Fig. 8 - pmAUC vs number of classes affected by local drift\n"
      "(smallest classes drift first; scale=%.4f)\n\n%s\n",
      scale, table.ToText().c_str());
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
