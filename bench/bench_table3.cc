// Reproduces Table III of the paper (pmAUC and pmGM of the six drift
// detectors on all 24 benchmark streams, plus average ranks and detector
// test/update times) and the derived statistical artifacts:
//   * Fig. 4 / Fig. 5 — Friedman + Bonferroni-Dunn critical-difference
//     diagrams for pmAUC / pmGM,
//   * Fig. 6 / Fig. 7 — Bayesian signed test of RBM-IM vs PerfSim and
//     vs DDM-OCI,
//   * Table II     — the detector parameter grids (--grids).
//
// Usage:
//   bench_table3 [--scale 0.01] [--seed 42] [--threads N] [--repeats R]
//                [--streams RBF5,RBF10]
//                [--detectors WSTD,RDDM,FHDDM,PerfSim,DDM-OCI,RBM-IM]
//                [--csv table3.csv] [--json table3.json] [--grids]
//
// --scale is the stream-length multiplier versus the paper (default 0.01
// keeps the full 24x6 matrix under a few minutes on a laptop; see
// EXPERIMENTS.md for shape stability across scales). The grid runs on
// api::Suite: --threads shards the (stream x detector) cells across
// workers (0 = all cores) and --repeats averages R seeded repetitions per
// cell — both without changing any reported number at the defaults.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "stats/ranking.h"
#include "utils/cli.h"
#include "utils/table.h"

namespace {

using ccd::bench::SplitCsv;

void PrintGrids() {
  std::printf(
      "Table II - detector parameter grids (defaults in brackets)\n"
      "  WSTD     window {25,50[x],75,100}  warn alpha {.01[x],.03,.05,.07}\n"
      "           drift alpha {.0005[x],.001,.003,.005}  max old {1000,2000[x],3000,4000}\n"
      "  RDDM     warn {1.773[x]} drift {2.258[x]} min errors {10,30[x],50,70}\n"
      "           min inst {3000[x],...}  max inst {10000,20000,30000[x],40000}  warn limit {800,1000,1200[x],1400}\n"
      "  FHDDM    window {25,50,75,100[x]}  delta {1e-6[x],1e-5,1e-4,1e-3}\n"
      "  PerfSim  lambda {0.1,0.2[x],0.3,0.4}  min errors {10,30[x],50,70}\n"
      "  DDM-OCI  warn {0.90,0.92,0.95[x],0.98}  drift {0.80,0.85,0.90[x],0.95}  min errors {10,30[x],50,70}\n"
      "  RBM-IM   batch M {25,50[x],75,100}  hidden {0.25V,0.5V[x],0.75V,V}\n"
      "           lr {0.01,0.03,0.05[x],0.07}  CD-k {1[x],2,3,4}\n");
}

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  if (cli.Has("grids")) {
    PrintGrids();
    return 0;
  }
  double scale = cli.GetDouble("scale", 0.01);
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  std::vector<std::string> detectors =
      SplitCsv(cli.GetString("detectors", "WSTD,RDDM,FHDDM,PerfSim,DDM-OCI,RBM-IM"));
  std::vector<std::string> stream_filter = SplitCsv(cli.GetString("streams", ""));
  ccd::bench::RequireDetectors(detectors);
  ccd::bench::RequireStreams(stream_filter);

  std::vector<ccd::StreamSpec> streams;
  for (const ccd::StreamSpec& spec : ccd::AllStreamSpecs()) {
    if (stream_filter.empty()) {
      streams.push_back(spec);
    } else {
      for (const auto& f : stream_filter) {
        if (spec.name == f) streams.push_back(spec);
      }
    }
  }

  ccd::Table table;
  std::vector<std::string> header = {"Dataset"};
  for (const auto& d : detectors) header.push_back(d + ":pmAUC");
  for (const auto& d : detectors) header.push_back(d + ":pmGM");
  table.SetHeader(header);

  ccd::BuildOptions options;
  options.scale = scale;
  options.seed = seed;

  const int repeats = std::max(1, cli.GetInt("repeats", 1));
  ccd::api::Suite suite;
  suite.Options(options)
      .Detectors(detectors)
      .Repeats(repeats)
      .Threads(cli.GetInt("threads", 0));
  std::vector<std::string> stream_names;
  for (const ccd::StreamSpec& spec : streams) {
    suite.Stream(spec);
    stream_names.push_back(spec.name);
  }
  ccd::bench::InstallStreamProgress(
      suite, stream_names, detectors.size() * static_cast<size_t>(repeats));

  ccd::api::SuiteResult res = suite.Run();

  // scores[metric][stream][detector] for the rank / Bayesian analyses.
  // Aggregates arrive in grid order: stream-major, detectors inner.
  std::vector<std::vector<double>> auc_rows, gm_rows;
  std::vector<double> test_seconds(detectors.size(), 0.0);
  for (size_t s = 0; s < streams.size(); ++s) {
    std::vector<std::string> row = {streams[s].name};
    std::vector<double> aucs, gms;
    for (size_t d = 0; d < detectors.size(); ++d) {
      const ccd::api::SuiteAggregate& agg =
          res.aggregates[s * detectors.size() + d];
      aucs.push_back(100.0 * agg.pmauc.mean());
      gms.push_back(100.0 * agg.pmgm.mean());
      test_seconds[d] += agg.detector_seconds.mean();
    }
    for (double v : aucs) row.push_back(ccd::Table::Num(v));
    for (double v : gms) row.push_back(ccd::Table::Num(v));
    table.AddRow(row);
    auc_rows.push_back(aucs);
    gm_rows.push_back(gms);
  }

  // Rank rows (paper's "ranks" line).
  ccd::FriedmanResult fr_auc = ccd::FriedmanTest(auc_rows, true);
  ccd::FriedmanResult fr_gm = ccd::FriedmanTest(gm_rows, true);
  std::vector<std::string> rank_row = {"ranks"};
  for (double r : fr_auc.average_ranks) rank_row.push_back(ccd::Table::Num(r));
  for (double r : fr_gm.average_ranks) rank_row.push_back(ccd::Table::Num(r));
  table.AddRow(rank_row);
  std::vector<std::string> time_row = {"avg test time [s]"};
  for (size_t d = 0; d < detectors.size(); ++d) {
    time_row.push_back(ccd::Table::Num(test_seconds[d] / streams.size(), 3));
  }
  table.AddRow(time_row);

  std::printf("Table III - pmAUC / pmGM per detector (scale=%.4f, seed=%llu)\n\n%s\n",
              scale, static_cast<unsigned long long>(seed),
              table.ToText().c_str());

  // Figs. 4-5: Bonferroni-Dunn critical difference diagrams.
  std::printf("Fig. 4 - Bonferroni-Dunn (pmAUC)\n%s\n",
              ccd::RenderCriticalDifferenceDiagram(detectors, fr_auc).c_str());
  std::printf("Fig. 5 - Bonferroni-Dunn (pmGM)\n%s\n",
              ccd::RenderCriticalDifferenceDiagram(detectors, fr_gm).c_str());

  // Figs. 6-7: Bayesian signed test RBM-IM vs the two skew-insensitive
  // baselines (rope = 1 percentage point, per the paper's plots).
  auto index_of = [&detectors](const std::string& name) -> int {
    for (size_t i = 0; i < detectors.size(); ++i) {
      if (detectors[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  int i_rbm = index_of("RBM-IM");
  for (const char* rival : {"PerfSim", "DDM-OCI"}) {
    int i_rival = index_of(rival);
    if (i_rbm < 0 || i_rival < 0) continue;
    for (const char* metric : {"pmAUC", "pmGM"}) {
      const auto& rows = std::string(metric) == "pmAUC" ? auc_rows : gm_rows;
      std::vector<double> a, b;
      for (const auto& row : rows) {
        a.push_back(row[static_cast<size_t>(i_rbm)]);
        b.push_back(row[static_cast<size_t>(i_rival)]);
      }
      ccd::BayesianSignedResult bs = ccd::BayesianSignedTest(a, b, 1.0);
      std::printf(
          "Fig. 6/7 - Bayesian signed test RBM-IM vs %s (%s): "
          "P(RBM-IM)=%.3f P(rope)=%.3f P(%s)=%.3f\n",
          rival, metric, bs.p_left, bs.p_rope, rival, bs.p_right);
    }
  }

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
