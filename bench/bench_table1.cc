// Reproduces Table I of the paper: properties of the 24 benchmark streams.
//
// For each registered stream the harness instantiates it at --scale, draws
// the instances and reports the *realized* properties (instances, features,
// classes, measured max/min class ratio, drift type) so the synthetic
// substitutes can be audited against the paper's numbers.
//
// The audit runs on api::Suite with a custom cell runner — no classifier
// or detector is involved, but the grid sharding (--threads, 0 = all
// cores) and deterministic per-cell seeding are shared with the
// experiment benches.
//
// Usage: bench_table1 [--scale 0.02] [--seed 42] [--threads N]
//                     [--csv out.csv]

#include <cstdio>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "generators/registry.h"
#include "utils/cli.h"
#include "utils/table.h"

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  double scale = cli.GetDouble("scale", 0.02);
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  ccd::BuildOptions options;
  options.scale = scale;
  options.seed = seed;

  ccd::api::Suite suite;
  suite.Options(options)
      .NoDetector()
      .Threads(cli.GetInt("threads", 0));
  for (const ccd::StreamSpec& spec : ccd::AllStreamSpecs()) suite.Stream(spec);
  // Audit cells: draw the realized stream and count class frequencies —
  // no classifier, no detector, just the generator.
  suite.Runner([](const ccd::api::SuiteCell& cell) {
    ccd::BuiltStream built = ccd::BuildStream(cell.spec, cell.options);
    ccd::PrequentialResult r;
    r.instances = built.length;
    r.class_counts.assign(static_cast<size_t>(cell.spec.num_classes), 0);
    for (uint64_t i = 0; i < built.length; ++i) {
      ccd::Instance inst = built.stream->Next();
      if (inst.label >= 0 && inst.label < cell.spec.num_classes) {
        ++r.class_counts[static_cast<size_t>(inst.label)];
      }
    }
    return r;
  });

  ccd::api::SuiteResult res = suite.Run();

  ccd::Table table;
  table.SetHeader({"Dataset", "Instances", "Features", "Classes", "IR(spec)",
                   "IR(measured)", "Drift", "Events"});
  for (const ccd::api::SuiteCellResult& cell : res.cells) {
    const ccd::StreamSpec& spec = cell.cell.spec;
    uint64_t max_c = 0, min_c = UINT64_MAX;
    for (uint64_t c : cell.result.class_counts) {
      max_c = c > max_c ? c : max_c;
      min_c = c < min_c ? c : min_c;
    }
    double measured_ir =
        min_c > 0 ? static_cast<double>(max_c) / static_cast<double>(min_c)
                  : static_cast<double>(max_c);

    table.AddRow({spec.name, std::to_string(cell.result.instances),
                  std::to_string(spec.num_features),
                  std::to_string(spec.num_classes),
                  ccd::Table::Num(spec.imbalance_ratio),
                  ccd::Table::Num(measured_ir),
                  ccd::DriftTypeName(spec.drift_type),
                  std::to_string(spec.drift_events)});
  }

  std::printf("Table I — benchmark stream properties (scale=%.3f)\n\n%s\n",
              scale, table.ToText().c_str());
  std::printf(
      "Note: the measured IR is the time-average of a *dynamic* imbalance\n"
      "schedule oscillating in [IR/2, IR], so it sits below the spec peak.\n");
  std::string csv = cli.GetString("csv", "");
  if (!csv.empty()) return ccd::bench::ReportWrite(table.WriteCsv(csv), csv);
  return 0;
} catch (const ccd::api::ApiError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ccd::CliError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
