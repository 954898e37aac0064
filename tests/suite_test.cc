// api::Suite — the deterministic parallel experiment-suite runner: grid
// expansion, per-repeat seeding, thread-count-independent results, Welford
// aggregation, the JSON writer, error propagation, and the row tapes the
// default path shares (detail::RowTape) against the per-cell Experiment
// runs they replace.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "testing_util.h"

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

// ------------------------------------------------------------ row tapes

/// The bytes a tape of `length` rows of `stream` holds.
size_t TapeBytes(const std::string& stream, uint64_t length) {
  return static_cast<size_t>(length) *
         api::detail::RowTape::RowBytes(FindStreamSpec(stream)->num_features);
}

/// Two streams of different width, two classifiers, a baseline and two
/// detectors, two repeats: every row has six cells. Under the cap the
/// differential passes, RBF5 (20 features) fits and Hyperplane10 (40) does
/// not, so one row of each kind runs.
api::Suite MakeTapeGrid(int threads, bool protocol) {
  api::Suite suite;
  suite.Streams({"RBF5", "Hyperplane10"})
      .Detectors({"FHDDM", "RBM-IM"})
      .NoDetector()
      .Classifier("naive-bayes")
      .Classifier("cs-ptree")
      .Scale(0.001)
      .Seed(11)
      .Repeats(2)
      .Threads(threads);
  if (protocol) suite.Prequential(ShortConfig());
  return suite;
}

void ExpectSameCells(const api::SuiteResult& got,
                     const api::SuiteResult& want) {
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t i = 0; i < got.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " " +
                 got.cells[i].cell.stream_label + "/" +
                 got.cells[i].cell.detector_label + "/" +
                 got.cells[i].cell.classifier + " repeat " +
                 std::to_string(got.cells[i].cell.repeat));
    EXPECT_EQ(got.cells[i].cell.stream_label, want.cells[i].cell.stream_label);
    EXPECT_EQ(got.cells[i].cell.detector_label,
              want.cells[i].cell.detector_label);
    EXPECT_EQ(got.cells[i].cell.classifier, want.cells[i].cell.classifier);
    EXPECT_EQ(got.cells[i].cell.repeat, want.cells[i].cell.repeat);
    test_util::ExpectBitIdentical(got.cells[i].result, want.cells[i].result);
  }
}

// The tentpole's differential: a grid through the shared row tapes equals
// the same grid through a custom runner that calls Experiment::Run() per
// cell (the old default), in every PrequentialResult field but the
// seconds, at 1, 3 and 8 workers. The cap puts one stream's rows over it,
// so the fallback runs beside the tapes; the second protocol (none set:
// the stream's full realized length) reaches the tape's own length rule.
TEST(SuiteTapeTest, SharedTapesMatchPerCellExperimentRuns) {
  for (bool protocol : {true, false}) {
    // Scale 0.001 realizes the 4000-instance floor.
    const uint64_t length = protocol ? ShortConfig().max_instances : 4000;
    const size_t cap = TapeBytes("RBF5", length);
    ASSERT_GT(TapeBytes("Hyperplane10", length), cap);
    api::Suite oracle = MakeTapeGrid(4, protocol);
    oracle.Runner(test_util::RunExperimentCell);
    const api::SuiteResult want = oracle.Run();
    ASSERT_EQ(want.cells.size(), 24u);
    for (int threads : {1, 3, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (protocol ? " short protocol" : " full length"));
      ExpectSameCells(
          api::detail::RunSuite(MakeTapeGrid(threads, protocol), cap), want);
    }
  }
}

// The default cap fits every row of a small grid; Run() gives the same
// results as the per-cell oracle through it too.
TEST(SuiteTapeTest, RunUsesTheDefaultCap) {
  api::Suite oracle = MakeGrid(2);
  oracle.Runner(test_util::RunExperimentCell);
  ExpectSameCells(MakeGrid(3).Run(), oracle.Run());
}

// The tape replays the frozen generators: for every realization of
// tests/golden/generator_streams.txt, a tape of its first 2000 rows,
// read chunk by chunk with a chunk size that does not divide the length,
// hashes to the golden line.
TEST(SuiteTapeTest, TapeRowsMatchFrozenGenerators) {
  std::vector<std::string> got;
  for (const test_util::GoldenStream& g : test_util::GoldenStreams()) {
    api::detail::RowTape tape(1, api::detail::kRowTapeCapBytes, 300);
    ASSERT_TRUE(tape.Open(
        test_util::GoldenStreamCell(g, test_util::kGoldenStreamRows)));
    ASSERT_EQ(tape.length(), test_util::kGoldenStreamRows);
    ASSERT_EQ(tape.chunks(), 7u);
    test_util::RowHash hash;
    for (size_t c = 0; c < tape.chunks(); ++c) {
      for (const Instance& row : tape.Chunk(c)) hash.Add(row);
    }
    got.push_back(test_util::GoldenStreamLine(g, hash));
    tape.Release();
  }
  test_util::ExpectLinesMatchGolden(
      got, test_util::GoldenLines(test_util::GeneratorGoldenPath()),
      "generator_streams.tape.actual.txt");
}

// Retained bytes are the published rows, never above the cap, and the last
// of the tape's readers frees them; a row one byte over the cap is refused
// without generating anything.
TEST(SuiteTapeTest, RetainedBytesStayUnderTheCapAndTheLastReaderFrees) {
  const test_util::GoldenStream g = test_util::GoldenStreams()[0];
  const uint64_t rows = 1000;
  const size_t row_bytes = api::detail::RowTape::RowBytes(g.spec.num_features);
  const size_t cap = static_cast<size_t>(rows) * row_bytes;

  const api::SuiteCell cell = test_util::GoldenStreamCell(g, rows);
  api::detail::RowTape tape(3, cap, 256);
  ASSERT_TRUE(tape.Open(cell));
  EXPECT_EQ(tape.retained_bytes(), 0u);  // Nothing is drawn before a read.
  size_t seen = 0;
  for (size_t c = 0; c < tape.chunks(); ++c) {
    seen += tape.Chunk(c).size();
    EXPECT_EQ(tape.retained_bytes(), seen * row_bytes);
    EXPECT_LE(tape.retained_bytes(), cap);
  }
  EXPECT_EQ(seen, rows);
  tape.Release();
  tape.Release();
  EXPECT_EQ(tape.retained_bytes(), cap);  // One reader left.
  tape.Release();
  EXPECT_EQ(tape.retained_bytes(), 0u);

  api::detail::RowTape over(1, cap - 1, 256);
  EXPECT_FALSE(over.Open(cell));
  EXPECT_FALSE(over.Open(cell));  // Every caller, alike.
  EXPECT_EQ(over.retained_bytes(), 0u);
}

/// Expects `fn` to throw an ApiError whose message names `field`.
void ExpectApiErrorNaming(const std::function<void()>& fn,
                          const std::string& field) {
  try {
    fn();
    ADD_FAILURE() << "expected an ApiError naming " << field;
  } catch (const api::ApiError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

// A stream that cannot be built fails every cell of its row, on the
// shared path as on the per-cell one, and the grid still finishes: the
// error of the first cell in grid order is rethrown, the ApiError that
// Experiment::Build() throws for the spec.
TEST(SuiteTapeTest, StreamBuildErrorReachesEveryCellOfItsRow) {
  StreamSpec broken = *FindStreamSpec("RBF5");
  broken.name = "Broken";
  broken.num_classes = -1;  // BuildStream refuses it.
  for (bool shared : {true, false}) {
    api::Suite suite;
    suite.Stream("RBF5").Stream(broken).Detectors({"FHDDM", "DDM"});
    suite.Scale(0.001).Prequential(ShortConfig()).Threads(3);
    if (!shared) suite.Runner(test_util::RunExperimentCell);
    ExpectApiErrorNaming([&suite] { suite.Run(); }, "num_classes");
  }
  api::detail::RowTape tape(2);
  api::SuiteCell cell;
  cell.spec = broken;
  ExpectApiErrorNaming([&] { tape.Open(cell); }, "num_classes");
  // The second reader.
  ExpectApiErrorNaming([&] { tape.Open(cell); }, "num_classes");
  tape.Release();
  tape.Release();
}

// A component error inside a shared row (bad detector params) surfaces as
// the ApiError of the first failing cell, after every cell has released
// its tape (a leaked reader would leave the run hanging).
TEST(SuiteTapeTest, CellErrorOnASharedRowPropagates) {
  api::Suite suite;
  suite.Streams({"RBF5", "RBF10"})
      .Detector("FHDDM")
      .Detector("DDM", {"no_such_param=1"})
      .Scale(0.001)
      .Prequential(ShortConfig())
      .Threads(3);
  try {
    suite.Run();
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_param"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ submission order

std::string CellName(const api::SuiteCell& cell) {
  return cell.stream_label + "/" + cell.detector_label + "/" +
         std::to_string(cell.repeat);
}

/// Runs `suite` and appends each cell's CellName to `done` in the order
/// OnCellDone saw it.
api::SuiteResult RunRecording(api::Suite suite,
                              std::vector<std::string>* done) {
  suite.OnCellDone([done](const api::SuiteCell& cell,
                          const PrequentialResult&) {
    done->push_back(CellName(cell));
  });
  return suite.Run();
}

// One worker completes the cells in the order they were submitted:
// heaviest row first by length x (features + classes). At scale 0.004
// RBF20 has 8000 instances x (80 + 20), Gas 4000 x (128 + 6) and RBF5
// 4000 x (20 + 5), so the order is RBF20, Gas, RBF5 (by length alone, Gas
// and RBF5 would tie and keep grid order). A row's cells stay together in
// grid order, the results keep grid order and equal the per-cell
// Experiment runs, and a custom Runner() is submitted in the same order.
TEST(SuiteTest, HeaviestRowsRunFirstAndResultsKeepGridOrder) {
  auto make = [](bool oracle) {
    api::Suite suite;
    suite.Streams({"RBF5", "Gas", "RBF20"})
        .Detectors({"FHDDM", "DDM"})
        .Classifier("naive-bayes")
        .Scale(0.004)
        .Seed(5)
        .Threads(1);
    if (oracle) suite.Runner(test_util::RunExperimentCell);
    return suite;
  };
  const std::vector<std::string> heaviest_first = {
      "RBF20/FHDDM/0", "RBF20/DDM/0", "Gas/FHDDM/0",
      "Gas/DDM/0",     "RBF5/FHDDM/0", "RBF5/DDM/0"};
  std::vector<std::string> shared_done;
  std::vector<std::string> oracle_done;
  const api::SuiteResult got = RunRecording(make(false), &shared_done);
  const api::SuiteResult want = RunRecording(make(true), &oracle_done);
  EXPECT_EQ(shared_done, heaviest_first);
  EXPECT_EQ(oracle_done, heaviest_first);

  ExpectSameCells(got, want);
  const std::vector<std::string> grid_order = {
      "RBF5/FHDDM/0", "RBF5/DDM/0",    "Gas/FHDDM/0",
      "Gas/DDM/0",    "RBF20/FHDDM/0", "RBF20/DDM/0"};
  std::vector<std::string> result_order;
  for (const api::SuiteCellResult& c : got.cells) {
    result_order.push_back(CellName(c.cell));
  }
  EXPECT_EQ(result_order, grid_order);
  ASSERT_EQ(got.aggregates.size(), 6u);
  EXPECT_EQ(got.aggregates[0].stream_label, "RBF5");
  EXPECT_EQ(got.aggregates[5].stream_label, "RBF20");
}

// Rows of equal estimated cost keep grid order: RBF5 and Hyperplane5 both
// cost 1M x (20 + 5) at scale 1, RBF10 1M x (40 + 10). Each repeat is a
// row of its own, with its cells together.
TEST(SuiteTest, EqualCostRowsKeepGridOrder) {
  api::Suite suite;
  suite.Streams({"RBF5", "Hyperplane5", "RBF10"})
      .Detectors({"a", "b"})
      .Repeats(2)
      .Threads(1)
      .Runner([](const api::SuiteCell&) { return PrequentialResult{}; });
  std::vector<std::string> done;
  RunRecording(suite, &done);
  const std::vector<std::string> want = {
      "RBF10/a/0",       "RBF10/b/0",       "RBF10/a/1",
      "RBF10/b/1",       "RBF5/a/0",        "RBF5/b/0",
      "RBF5/a/1",        "RBF5/b/1",        "Hyperplane5/a/0",
      "Hyperplane5/b/0", "Hyperplane5/a/1", "Hyperplane5/b/1"};
  EXPECT_EQ(done, want);
}

// The rethrown error is the first in grid order, not the first to happen:
// RBF20's row is heavier, so it runs and fails before RBF5's row.
TEST(SuiteTest, FirstErrorInGridOrderIsRethrown) {
  std::vector<std::string> started;
  api::Suite suite;
  suite.Streams({"RBF5", "RBF10", "RBF20"}).Threads(1);
  suite.Runner([&started](const api::SuiteCell& cell) -> PrequentialResult {
    started.push_back(cell.stream_label);
    if (cell.stream_label == "RBF10") return PrequentialResult{};
    throw std::runtime_error("row " + cell.stream_label + " failed");
  });
  try {
    suite.Run();
    FAIL() << "expected the RBF5 row's error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "row RBF5 failed");
  }
  EXPECT_EQ(started, (std::vector<std::string>{"RBF20", "RBF10", "RBF5"}));
}

}  // namespace
}  // namespace ccd
