// Ablation study of the RBM-IM design choices called out in DESIGN.md.
// Not a paper table — it regenerates the evidence behind the paper's
// design arguments:
//   * trigger rule: combined (default) vs z-jump-only vs ADWIN-only vs
//     trend/Granger-only (Sec. V-B decision stage),
//   * skew-insensitive loss: class-balanced on vs off (Eq. 13), evaluated
//     on a high-IR stream where the difference should matter.
//
// Each variant is the same registered "RBM-IM" component with ParamMap
// overrides — the ablation needs no dedicated detector names.
//
// Usage: bench_ablation [--scale 0.01] [--seed 42] [--threads N]
//                       [--csv ablation.csv] [--json ablation.json]
//
// The (stream, IR, variant) grid runs on api::Suite: each variant is a
// labeled detector-axis entry; --threads shards the cells (0 = all cores).

#include <cstdio>
#include <string>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "utils/cli.h"
#include "utils/table.h"

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  double scale = cli.GetDouble("scale", 0.01);
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  struct Variant {
    std::string label;
    ccd::api::ParamMap params;
  };
  const std::vector<Variant> variants = {
      {"RBM-IM", {}},  // combined trigger, class-balanced (default)
      {"RBM-IM-granger", {"trigger=granger"}},  // trend/Granger path only
      {"RBM-IM-adwin", {"trigger=adwin"}},      // per-class ADWIN only
      // Combined trigger, plain (skew-sensitive) loss.
      {"RBM-IM-nobalance", {"class_balanced=false"}},
  };
  const std::vector<std::string> streams = {"RBF5", "RBF10", "RBF20",
                                            "Aggrawal10", "Hyperplane10"};

  ccd::Table table;
  std::vector<std::string> header = {"Dataset", "IR"};
  for (const auto& v : variants) header.push_back(v.label + ":pmAUC");
  for (const auto& v : variants) header.push_back(v.label + ":drifts");
  table.SetHeader(header);

  // Detector axis: the four labeled RBM-IM variants. Stream axis: one
  // entry per (stream, IR) point with its own options.
  struct Point {
    std::string stream;
    double ir;
  };
  std::vector<Point> points;
  ccd::api::Suite suite;
  suite.Threads(cli.GetInt("threads", 0));
  for (const auto& v : variants) suite.Detector("RBM-IM", v.params, v.label);
  for (const std::string& stream_name : streams) {
    const ccd::StreamSpec* spec = ccd::FindStreamSpec(stream_name);
    if (spec == nullptr) continue;
    for (double ir : {spec->imbalance_ratio, 400.0}) {
      ccd::BuildOptions options;
      options.scale = scale;
      options.seed = seed;
      options.ir_override = ir;
      suite.Stream(*spec, options,
                   stream_name + "@IR" + ccd::Table::Num(ir, 0));
      points.push_back({stream_name, ir});
    }
  }
  std::vector<std::string> entry_streams;
  for (const Point& p : points) entry_streams.push_back(p.stream);
  ccd::bench::InstallStreamProgress(suite, entry_streams, variants.size());

  ccd::api::SuiteResult res = suite.Run();
  for (size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row = {points[p].stream,
                                    ccd::Table::Num(points[p].ir, 0)};
    for (size_t v = 0; v < variants.size(); ++v) {
      const ccd::api::SuiteAggregate& agg =
          res.aggregates[p * variants.size() + v];
      row.push_back(ccd::Table::Num(100.0 * agg.pmauc.mean()));
    }
    for (size_t v = 0; v < variants.size(); ++v) {
      const ccd::api::SuiteAggregate& agg =
          res.aggregates[p * variants.size() + v];
      row.push_back(ccd::Table::Num(agg.drifts.mean(), 0));
    }
    table.AddRow(row);
  }

  std::printf("RBM-IM ablation (scale=%.4f)\n\n%s\n", scale,
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
