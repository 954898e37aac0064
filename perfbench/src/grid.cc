// paper-grid: the Table III grid (24 streams x WSTD, RDDM, FHDDM, PerfSim,
// DDM-OCI, RBM-IM, with cs-ptree) through api::Suite on 4 workers, repeated
// pass after pass for the run length. One operation is one grid cell.

#include <cinttypes>
#include <cmath>
#include <fstream>
#include <sstream>

#include "api/api.h"
#include "common.h"
#include "generators/registry.h"
#include "layers.h"
#include "traced.h"

namespace perfbench {
namespace {

/// Streams of 1M+ instances get 5000 to 11099; shorter ones stay at
/// BuildStream's 4000-instance floor, so lengths still differ by stream.
constexpr double kScale = 0.005;
constexpr int kWorkers = 4;
const char* const kDetectors[] = {"WSTD",    "RDDM",    "FHDDM",
                                  "PerfSim", "DDM-OCI", "RBM-IM"};
/// The cell whose prequential triples feed the isolated eval replay.
const char* const kReplayStream = "RBF10";

struct CellOut {
  std::string stream;
  std::string detector;
  uint64_t instances = 0;
  double pmauc = 0.0;
  double pmgm = 0.0;
  uint64_t drifts = 0;
  uint64_t digest = 0;
};

struct Pass {
  std::vector<CellOut> cells;
  double wall_s = 0.0;
  uint64_t instances = 0;
  double busy_ns = 0.0;  // Sum of cell latencies.
  std::vector<double> cell_us;  // Each cell's latency, in completion order.
};

/// Forwards a generated stream, timing each Next() as generator work.
class TracedStream : public ccd::InstanceStream {
 public:
  explicit TracedStream(ccd::InstanceStream* inner) : inner_(inner) {}
  const ccd::StreamSchema& schema() const override { return inner_->schema(); }
  ccd::Instance Next() override {
    trace::Scope span(trace::kGenNext);
    return inner_->Next();
  }
  uint64_t position() const override { return inner_->position(); }

 private:
  ccd::InstanceStream* inner_;
};

ccd::api::Suite MakeSuite(uint64_t seed, bool traced) {
  ccd::BuildOptions options;
  options.scale = kScale;
  options.seed = seed;
  ccd::api::Suite suite;
  suite.Options(options).Threads(kWorkers);
  suite.Classifier(traced ? Traced("cs-ptree") : "cs-ptree");
  for (const char* d : kDetectors) {
    suite.Detector(traced ? Traced(d) : d, {}, d);
  }
  for (const ccd::StreamSpec& spec : ccd::AllStreamSpecs()) suite.Stream(spec);
  return suite;
}

/// Set-up: build the suite and construct every cell's stream, classifier
/// and detector once, which resolves and validates the whole grid.
void SetupOnce(uint64_t seed) {
  ccd::api::Suite suite = MakeSuite(seed, false);
  size_t built = 0;
  for (const ccd::api::SuiteCell& cell : suite.Cells()) {
    ccd::api::Experiment e;
    e.Stream(cell.spec).Options(cell.options).Classifier(cell.classifier);
    e.Detector(cell.detector);
    ccd::api::Experiment::Built b = e.Build();
    built += b.stream.length > 0 ? 1 : 0;
  }
  if (built != 24 * 6) std::fprintf(stderr, "setup: %zu cells\n", built);
}

/// One pass over the grid. Cell latency is the time between consecutive
/// completions on the same worker (the pool runs cells back to back).
/// A traced pass given `triples` records the RBF10 x RBM-IM cell's
/// prequential outcomes into it, for the isolated eval replay.
Pass RunPass(uint64_t seed, bool traced, Histogram* cell_latency,
             std::vector<Triple>* triples) {
  ccd::api::Suite suite = MakeSuite(seed, traced);
  Pass pass;
  static int pass_counter = 0;
  const int pass_id = ++pass_counter;
  const uint64_t start = NowNs();
  // Runs serialized under the suite's callback lock, on the worker thread.
  suite.OnCellDone([&](const ccd::api::SuiteCell&,
                       const ccd::PrequentialResult&) {
    thread_local int last_pass = 0;
    thread_local uint64_t last_done = 0;
    const uint64_t now = NowNs();
    const uint64_t begin = last_pass == pass_id ? last_done : start;
    last_pass = pass_id;
    last_done = now;
    cell_latency->Record(now - begin);
    pass.busy_ns += static_cast<double>(now - begin);
    pass.cell_us.push_back(static_cast<double>(now - begin) * 1e-3);
  });
  if (traced) {
    suite.Runner([triples](const ccd::api::SuiteCell& cell) {
      trace::Scope span(trace::kCell);
      ccd::api::Experiment::Built b;
      {
        trace::Scope build(trace::kBuild);
        ccd::api::Experiment e;
        e.Stream(cell.spec)
            .Options(cell.options)
            .Classifier(cell.classifier, cell.classifier_params);
        e.Detector(cell.detector, cell.detector_params);
        b = e.Build();
      }
      TracedStream stream(b.stream.stream.get());
      // Exactly one cell of the grid records, so no other worker touches
      // `triples`.
      const bool record = triples != nullptr &&
                          cell.spec.name == kReplayStream &&
                          cell.detector_label == "RBM-IM";
      if (record) ArmTripleRecorder(triples, 100000);
      ccd::PrequentialResult r = ccd::RunPrequential(
          &stream, b.classifier.get(), b.detector.get(), b.config);
      if (record) DisarmTripleRecorder();
      return r;
    });
  }
  ccd::api::SuiteResult res = suite.Run();
  pass.wall_s = SecondsSince(start);
  for (const ccd::api::SuiteCellResult& c : res.cells) {
    CellOut o;
    o.stream = c.cell.stream_label;
    o.detector = c.cell.detector_label;
    o.instances = c.result.instances;
    o.pmauc = c.result.mean_pmauc;
    o.pmgm = c.result.mean_pmgm;
    o.drifts = c.result.drifts;
    o.digest = ResultDigest(c.result);
    pass.instances += o.instances;
    pass.cells.push_back(std::move(o));
  }
  return pass;
}

/// Pass p of a run evaluates the grid with its own seed, so one run
/// averages over several stream realizations; pass 0 uses the run seed.
uint64_t PassSeed(uint64_t seed, int pass) {
  return seed + static_cast<uint64_t>(pass) * 7919;
}

uint64_t ExpectedLength(const ccd::StreamSpec& spec) {
  const uint64_t scaled =
      static_cast<uint64_t>(static_cast<double>(spec.full_length) * kScale);
  return scaled < 4000 ? 4000 : scaled;
}

bool SameCell(const CellOut& a, const CellOut& b) {
  return a.stream == b.stream && a.detector == b.detector &&
         a.instances == b.instances && a.pmauc == b.pmauc &&
         a.pmgm == b.pmgm && a.drifts == b.drifts && a.digest == b.digest;
}

/// Output checks of one pass: grid shape, exact instance counts, finite
/// metrics in range, equality with `baseline` (an earlier pass or the
/// untraced run) and, when given, with the committed reference.
void CheckPass(const std::vector<CellOut>& got,
               const std::vector<CellOut>* baseline,
               const std::vector<CellOut>* reference, Outcome* out) {
  const std::vector<ccd::StreamSpec>& specs = ccd::AllStreamSpecs();
  const size_t nd = sizeof(kDetectors) / sizeof(kDetectors[0]);
  if (!out->Check(got.size() == specs.size() * nd, "grid has 144 cells")) {
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const CellOut& c = got[i];
    const std::string where = c.stream + "/" + c.detector;
    out->Check(c.stream == specs[i / nd].name && c.detector == kDetectors[i % nd],
               where + " in grid order");
    out->Check(c.instances == ExpectedLength(specs[i / nd]),
               where + " instance count");
    out->Check(std::isfinite(c.pmauc) && c.pmauc >= 0.0 && c.pmauc <= 1.0,
               where + " pmAUC finite in [0,1]");
    out->Check(std::isfinite(c.pmgm) && c.pmgm >= 0.0 && c.pmgm <= 1.0,
               where + " pmGM finite in [0,1]");
    out->Check(c.drifts <= c.instances, where + " drift count");
    if (baseline != nullptr) {
      out->Check(i < baseline->size() && SameCell(c, (*baseline)[i]),
                 where + " equals the baseline pass");
    }
    if (reference != nullptr) {
      out->Check(i < reference->size() && SameCell(c, (*reference)[i]),
                 where + " equals the committed reference");
    }
  }
}

std::string ReferencePath(const Options& o) {
  return o.reference_dir + "/paper-grid.seed" + std::to_string(kReferenceSeed) +
         ".tsv";
}

void WriteReference(const std::string& path, const std::vector<CellOut>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "stream\tdetector\tinstances\tpmauc\tpmgm\tdrifts\tdigest\n");
  for (const CellOut& c : cells) {
    std::fprintf(f, "%s\t%s\t%" PRIu64 "\t%.17g\t%.17g\t%" PRIu64 "\t%016" PRIx64
                 "\n",
                 c.stream.c_str(), c.detector.c_str(), c.instances, c.pmauc,
                 c.pmgm, c.drifts, c.digest);
  }
  std::fclose(f);
}

bool ReadReference(const std::string& path, std::vector<CellOut>* cells) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return false;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    CellOut c;
    std::string pmauc, pmgm, digest;
    if (!(row >> c.stream >> c.detector >> c.instances >> pmauc >> pmgm >>
          c.drifts >> digest)) {
      return false;
    }
    c.pmauc = std::strtod(pmauc.c_str(), nullptr);
    c.pmgm = std::strtod(pmgm.c_str(), nullptr);
    c.digest = std::strtoull(digest.c_str(), nullptr, 16);
    cells->push_back(std::move(c));
  }
  return true;
}

/// Proves each check fires on a tampered copy of a real pass.
void TamperSelfTest(const std::vector<CellOut>& real,
                    const std::vector<CellOut>* reference, Outcome* out) {
  auto expect_caught = [&](const char* what, auto mutate, bool with_baseline) {
    std::vector<CellOut> bad = real;
    mutate(&bad);
    Outcome probe;
    probe.quiet = true;
    CheckPass(bad, with_baseline ? &real : nullptr,
              with_baseline ? nullptr : reference, &probe);
    out->ExpectTamperCaught(probe, std::string("paper-grid ") + what);
  };
  const size_t last = real.size() - 1;
  expect_caught("pmAUC off by one ulp",
                [&](std::vector<CellOut>* c) {
                  (*c)[last].pmauc = std::nextafter((*c)[last].pmauc, 2.0);
                },
                true);
  expect_caught("drift count +1",
                [&](std::vector<CellOut>* c) { (*c)[0].drifts += 1; }, true);
  expect_caught("instance count -1",
                [&](std::vector<CellOut>* c) { (*c)[7].instances -= 1; }, false);
  expect_caught("pmGM not finite",
                [&](std::vector<CellOut>* c) { (*c)[9].pmgm = std::nan(""); },
                false);
  expect_caught("missing cell",
                [&](std::vector<CellOut>* c) { c->pop_back(); }, false);
  if (reference != nullptr) {
    expect_caught("reference digest mismatch",
                  [&](std::vector<CellOut>* c) { (*c)[3].digest ^= 1; }, false);
  }
}

}  // namespace

Outcome RunPaperGrid(const Options& options) {
  Outcome out;
  std::vector<CellOut> reference;
  const bool use_reference =
      options.seed == kReferenceSeed && !options.write_reference;
  if (use_reference) {
    out.Check(ReadReference(ReferencePath(options), &reference),
              "reference file " + ReferencePath(options) + " readable");
  }
  const std::vector<CellOut>* ref =
      use_reference && !reference.empty() ? &reference : nullptr;

  if (options.write_reference) {
    Histogram h;
    Pass p = RunPass(options.seed, false, &h, nullptr);
    WriteReference(ReferencePath(options), p.cells);
    std::printf("wrote %s\n", ReferencePath(options).c_str());
    out.Metric("cells", static_cast<double>(p.cells.size()), "count");
    out.attempted = p.cells.size();
    return out;
  }

  if (!options.trace) {
    SetupTimer setup(5, [&] { SetupOnce(options.seed); });

    Histogram cell_latency;
    std::vector<double> rates, walls, p50s, p99s;
    const uint64_t t0 = NowNs();
    do {
      const int pass = static_cast<int>(rates.size());
      Pass p = RunPass(PassSeed(options.seed, pass), false, &cell_latency,
                       nullptr);
      // A pass has only 144 cells, so its percentiles come exactly from
      // the cell latencies rather than from histogram buckets.
      p50s.push_back(Quantile(p.cell_us, 0.5));
      p99s.push_back(Quantile(p.cell_us, 0.99));
      out.attempted += p.cells.size();
      rates.push_back(static_cast<double>(p.instances) / p.wall_s);
      walls.push_back(p.wall_s);
      CheckPass(p.cells, nullptr, pass == 0 ? ref : nullptr, &out);
      if (pass == 0) TamperSelfTest(p.cells, ref, &out);
    } while (SecondsSince(t0) < options.seconds);

    std::sort(walls.begin(), walls.end());
    std::printf("paper-grid passes=%zu pass_s min=%.4f median=%.4f max=%.4f "
                "cells=%llu, pass cell p99_us min=%.3f median=%.3f max=%.3f\n",
                walls.size(), walls.front(), Median(walls), walls.back(),
                static_cast<unsigned long long>(cell_latency.count()),
                Quantile(p99s, 0), Median(p99s), Quantile(p99s, 1));
    PrintLatency("paper-grid", "cell", cell_latency);
    out.Metric("setup_s", setup.Finish(), "s");
    out.Metric("inst_per_s", FastQuartileRate(rates), "1/s");
    out.Metric("op_p50_us", FastQuartileTime(p50s), "us");
    out.Metric("op_p99_us", FastQuartileTime(p99s), "us");
    return out;
  }

  // Traced run: an untraced leg, then a traced leg over the same pass
  // seeds, so each traced pass is compared bit for bit with its untraced
  // twin and the overhead is measured on identical work.
  Histogram untraced_latency;
  double untraced_wall = 0.0, untraced_busy = 0.0;
  std::vector<std::vector<CellOut>> untraced;
  const uint64_t t0 = NowNs();
  do {
    Pass p = RunPass(PassSeed(options.seed, static_cast<int>(untraced.size())),
                     false, &untraced_latency, nullptr);
    out.attempted += p.cells.size();
    untraced_wall += p.wall_s;
    untraced_busy += p.busy_ns;
    untraced.push_back(std::move(p.cells));
  } while (SecondsSince(t0) < options.seconds * 0.5);
  const int passes = static_cast<int>(untraced.size());

  RegisterTracedComponents();
  trace::Reset();
  trace::Enable(true);
  Histogram traced_latency;
  std::vector<Triple> triples;
  double traced_wall = 0.0;
  uint64_t traced_instances = 0;
  double first_batches = 0.0;
  for (int i = 0; i < passes; ++i) {
    Pass p = RunPass(PassSeed(options.seed, i), true, &traced_latency,
                     i == 0 ? &triples : nullptr);
    out.attempted += p.cells.size();
    traced_wall += p.wall_s;
    traced_instances += p.instances;
    CheckPass(p.cells, &untraced[static_cast<size_t>(i)],
              i == 0 ? ref : nullptr, &out);
    if (i == 0) {
      first_batches =
          static_cast<double>(trace::Collect()[trace::kRbmBatchClose].count);
    }
  }
  double first_alarms = 0.0;
  for (const CellOut& c : untraced.front()) {
    if (c.detector == "RBM-IM") first_alarms += static_cast<double>(c.drifts);
  }
  trace::Enable(false);
  const trace::Table t = trace::Collect();

  Layers layers;
  layers.gen_ns_per_inst = MeanNs(t[trace::kGenNext]);
  layers.FromComponents(t, kWorkers * traced_wall * 1e9);
  layers.rbm_batches = first_batches;
  layers.rbm_alarms = first_alarms;
  layers.engine_self_ns =
      static_cast<double>(t[trace::kCell].self_ns) / traced_instances;
  layers.pool_idle_frac = 1.0 - untraced_busy / (kWorkers * untraced_wall * 1e9);
  const std::pair<double, double> replay = ReplayMetrics(triples, 10);
  layers.metrics_add_ns = replay.first;
  layers.pmauc_tick_us = replay.second;
  layers.trace_overhead_frac = traced_wall / untraced_wall - 1.0;
  layers.Emit(&out);

  const std::string spans = options.work_dir + "/trace-paper-grid-seed" +
                            std::to_string(options.seed) + ".tsv";
  std::printf("paper-grid traced passes=%d overhead=%.4f spans=%ld (%s) "
              "dropped=%llu triples=%zu\n",
              passes, layers.trace_overhead_frac, trace::WriteSpans(spans),
              spans.c_str(),
              static_cast<unsigned long long>(trace::DroppedSpans()),
              triples.size());
  return out;
}

}  // namespace perfbench
