// Reproduces Fig. 9 of the paper (Experiment 3): pmAUC of each detector as
// the multi-class imbalance ratio sweeps over {50, 100, 200, 300, 400, 500}
// on the 12 artificial benchmarks — the robustness-to-extreme-skew test.
//
// Usage:
//   bench_fig9 [--scale 0.005] [--seed 42] [--threads N]
//              [--streams RBF5,...] [--detectors ...] [--csv fig9.csv]
//              [--json fig9.json]
//
// The (stream, IR, detector) grid runs on api::Suite; --threads shards it
// across workers (0 = all cores).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "utils/cli.h"
#include "utils/table.h"

namespace {

using ccd::bench::SplitCsv;

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

  const std::vector<double> kIrLevels = {50, 100, 200, 300, 400, 500};

  ccd::Table table;
  std::vector<std::string> header = {"Dataset", "IR"};
  for (const auto& d : detectors) header.push_back(d);
  table.SetHeader(header);

  // Stream axis: one entry per (stream, IR) point with its own options.
  struct Point {
    std::string stream;
    double ir;
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
    for (double ir : kIrLevels) {
      ccd::BuildOptions options;
      options.scale = scale;
      options.seed = seed;
      options.ir_override = ir;
      suite.Stream(spec, options,
                   spec.name + "@IR" + ccd::Table::Num(ir, 0));
      points.push_back({spec.name, ir});
    }
  }
  std::vector<std::string> entry_streams;
  for (const Point& p : points) entry_streams.push_back(p.stream);
  ccd::bench::InstallStreamProgress(suite, entry_streams, detectors.size());

  ccd::api::SuiteResult res = suite.Run();
  for (size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row = {points[p].stream,
                                    ccd::Table::Num(points[p].ir, 0)};
    for (size_t d = 0; d < detectors.size(); ++d) {
      const ccd::api::SuiteAggregate& agg =
          res.aggregates[p * detectors.size() + d];
      row.push_back(ccd::Table::Num(100.0 * agg.pmauc.mean()));
    }
    table.AddRow(row);
  }

  std::printf(
      "Fig. 9 - pmAUC vs multi-class imbalance ratio (scale=%.4f)\n\n%s\n",
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
