// api::Suite — the deterministic parallel experiment-suite runner: grid
// expansion, per-repeat seeding, thread-count-independent results, Welford
// aggregation, the JSON writer, and error propagation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/api.h"

namespace ccd {
namespace {

PrequentialConfig ShortConfig() {
  PrequentialConfig cfg;
  cfg.max_instances = 1500;
  cfg.metric_window = 500;
  cfg.eval_interval = 100;
  cfg.warmup = 200;
  cfg.timing = false;  // Wall-clock fields are inherently nondeterministic.
  return cfg;
}

api::Suite MakeGrid(int threads) {
  api::Suite suite;
  suite.Streams({"RBF5", "Aggrawal5"})
      .Detectors({"FHDDM", "DDM"})
      .Scale(0.001)
      .Seed(42)
      .Prequential(ShortConfig())
      .Repeats(2)
      .Threads(threads);
  return suite;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The acceptance bar of the subsystem: the same grid with 1 worker and
// with 8 workers yields bit-identical per-experiment results — same
// metrics, same drift count, same drift positions, same series.
TEST(SuiteTest, SameGridIsBitIdenticalAcrossThreadCounts) {
  api::SuiteResult a = MakeGrid(1).Run();
  api::SuiteResult b = MakeGrid(8).Run();
  ASSERT_EQ(a.cells.size(), 8u);  // 2 streams x 2 detectors x 2 repeats.
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const api::SuiteCellResult& ca = a.cells[i];
    const api::SuiteCellResult& cb = b.cells[i];
    EXPECT_EQ(ca.cell.stream_label, cb.cell.stream_label);
    EXPECT_EQ(ca.cell.detector_label, cb.cell.detector_label);
    EXPECT_EQ(ca.cell.repeat, cb.cell.repeat);
    EXPECT_EQ(ca.cell.options.seed, cb.cell.options.seed);
    EXPECT_EQ(ca.result.instances, cb.result.instances);
    EXPECT_EQ(ca.result.mean_pmauc, cb.result.mean_pmauc);
    EXPECT_EQ(ca.result.mean_pmgm, cb.result.mean_pmgm);
    EXPECT_EQ(ca.result.mean_accuracy, cb.result.mean_accuracy);
    EXPECT_EQ(ca.result.mean_kappa, cb.result.mean_kappa);
    EXPECT_EQ(ca.result.drifts, cb.result.drifts);
    EXPECT_EQ(ca.result.drift_positions, cb.result.drift_positions);
    EXPECT_EQ(ca.result.pmauc_series, cb.result.pmauc_series);
    EXPECT_EQ(ca.result.class_counts, cb.result.class_counts);
  }
}

TEST(SuiteTest, GridExpandsStreamMajorWithPerRepeatSeeds) {
  std::vector<api::SuiteCell> cells = MakeGrid(1).Cells();
  ASSERT_EQ(cells.size(), 8u);
  // Stream-major, detectors inner, repeats innermost.
  EXPECT_EQ(cells[0].stream_label, "RBF5");
  EXPECT_EQ(cells[0].detector_label, "FHDDM");
  EXPECT_EQ(cells[0].repeat, 0);
  EXPECT_EQ(cells[1].repeat, 1);
  EXPECT_EQ(cells[2].detector_label, "DDM");
  EXPECT_EQ(cells[4].stream_label, "Aggrawal5");
  // Repeat r runs with seed (axis seed + r) — deterministic, scheduling
  // never involved.
  EXPECT_EQ(cells[0].options.seed, 42u);
  EXPECT_EQ(cells[1].options.seed, 43u);
}

TEST(SuiteTest, PerEntryStreamOptionsAndLabelsAreHonored) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions sweep;
  sweep.scale = 0.001;
  sweep.seed = 7;
  sweep.ir_override = 400.0;
  api::Suite suite;
  suite.Scale(0.5).Stream(*spec, sweep, "RBF5@IR400");
  std::vector<api::SuiteCell> cells = suite.Cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].stream_label, "RBF5@IR400");
  EXPECT_DOUBLE_EQ(cells[0].options.ir_override, 400.0);
  EXPECT_DOUBLE_EQ(cells[0].options.scale, 0.001);  // Entry, not base.
  EXPECT_EQ(cells[0].options.seed, 7u);
  // Missing axes fall back to the Experiment defaults.
  EXPECT_EQ(cells[0].detector_label, "none");
  EXPECT_EQ(cells[0].classifier, "cs-ptree");
}

TEST(SuiteTest, AggregatesCollapseRepeatsWithWelford) {
  api::SuiteResult res = MakeGrid(4).Run();
  ASSERT_EQ(res.aggregates.size(), 4u);  // Repeats collapsed.
  for (size_t g = 0; g < res.aggregates.size(); ++g) {
    const api::SuiteAggregate& agg = res.aggregates[g];
    EXPECT_EQ(agg.pmauc.count(), 2u);
    double manual = 0.5 * (res.cells[2 * g].result.mean_pmauc +
                           res.cells[2 * g + 1].result.mean_pmauc);
    EXPECT_NEAR(agg.pmauc.mean(), manual, 1e-12);
    EXPECT_GE(agg.pmauc.StdDev(), 0.0);
  }
  // Grid order: aggregate g maps to cells [2g, 2g+1].
  EXPECT_EQ(res.aggregates[0].stream_label, "RBF5");
  EXPECT_EQ(res.aggregates[3].detector_label, "DDM");
}

TEST(SuiteTest, CustomRunnerKeepsGridAndOrdering) {
  api::Suite suite;
  suite.Streams({"RBF5", "RBF10"}).Detector("anything-goes").Threads(8);
  suite.Runner([](const api::SuiteCell& cell) {
    PrequentialResult r;
    r.mean_pmauc = static_cast<double>(cell.stream_index) +
                   0.1 * static_cast<double>(cell.detector_index);
    r.instances = 1;
    return r;
  });
  api::SuiteResult res = suite.Run();  // Unknown detector: not validated.
  ASSERT_EQ(res.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(res.cells[0].result.mean_pmauc, 0.0);
  EXPECT_DOUBLE_EQ(res.cells[1].result.mean_pmauc, 1.0);
}

TEST(SuiteTest, WriteJsonWritesTheCompletedRun) {
  const std::string json = ::testing::TempDir() + "ccd_suite.json";
  api::SuiteResult res = MakeGrid(4).Run();
  ASSERT_TRUE(api::WriteJson(res, json));

  std::string json_text = Slurp(json);
  EXPECT_NE(json_text.find("\"cells\""), std::string::npos);
  EXPECT_NE(json_text.find("\"aggregates\""), std::string::npos);
  EXPECT_NE(json_text.find("\"drift_positions\""), std::string::npos);
  EXPECT_NE(json_text.find("\"drift_events\""), std::string::npos);
  EXPECT_NE(json_text.find("\"drifted_classes\""), std::string::npos);
  // One object per cell and per aggregate: 8 cells, 4 aggregates.
  size_t objects = 0;
  for (size_t at = json_text.find("{\"stream\""); at != std::string::npos;
       at = json_text.find("{\"stream\"", at + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, 12u);
  std::remove(json.c_str());
}

TEST(SuiteTest, WriteJsonReportsAnUnwritablePath) {
  api::SuiteResult res;
  EXPECT_FALSE(api::WriteJson(
      res, ::testing::TempDir() + "ccd_no_such_dir/sub/result.json"));
}

TEST(SuiteTest, UnknownComponentFailsBeforeAnyCellRuns) {
  api::Suite suite;
  suite.Stream("RBF5").Scale(0.001).Detector("NotADetector");
  try {
    suite.Run();
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("NotADetector"), std::string::npos);
    EXPECT_NE(msg.find("RBM-IM"), std::string::npos) << msg;
  }
}

TEST(SuiteTest, UnknownStreamNameThrowsAtAddTime) {
  api::Suite suite;
  EXPECT_THROW(suite.Stream("RBF7"), api::ApiError);
}

TEST(SuiteTest, EmptyGridIsAnError) {
  EXPECT_THROW(api::Suite().Run(), api::ApiError);
}

TEST(SuiteTest, DegenerateProtocolRejectedBeforeRunning) {
  PrequentialConfig bad = ShortConfig();
  bad.eval_interval = 0;
  api::Suite suite;
  suite.Stream("RBF5").Scale(0.001).Prequential(bad);
  EXPECT_THROW(suite.Run(), api::ApiError);
}

TEST(SuiteTest, CellErrorPropagatesAfterSiblingsFinish) {
  api::Suite suite;
  suite.Streams({"RBF5", "RBF10", "RBF20"}).Threads(4);
  suite.Runner([](const api::SuiteCell& cell) {
    if (cell.stream_index == 1) throw std::runtime_error("cell exploded");
    return PrequentialResult{};
  });
  EXPECT_THROW(suite.Run(), std::runtime_error);
}

}  // namespace
}  // namespace ccd
