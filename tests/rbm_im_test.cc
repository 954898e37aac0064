#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rbm_im.h"
#include "generators/drifting_stream.h"
#include "generators/rbf.h"
#include "generators/registry.h"
#include "io/wire.h"
#include "testing_util.h"

namespace ccd {
namespace {

RbmIm::Params DetectorParams(int d, int k) {
  RbmIm::Params p;
  p.num_features = d;
  p.num_classes = k;
  return p;
}

std::unique_ptr<DriftingClassStream> MakeStream(
    int d, int k, double ir, std::vector<DriftEvent> events, uint64_t seed,
    uint64_t concept_seed_b = 2) {
  RbfConcept::Options co;
  co.num_features = d;
  co.num_classes = k;
  std::vector<std::unique_ptr<Concept>> cs;
  cs.push_back(std::make_unique<RbfConcept>(co, 1));
  for (size_t i = 0; i < events.size(); ++i) {
    cs.push_back(std::make_unique<RbfConcept>(co, concept_seed_b + i));
  }
  ImbalanceSchedule::Options io;
  io.num_classes = k;
  io.base_ir = ir;
  return std::make_unique<DriftingClassStream>(std::move(cs), std::move(events),
                                               ImbalanceSchedule(io), seed);
}

struct RunStats {
  int detections = 0;
  int hits = 0;  ///< Detections within [drift, drift + slack).
  long long first_delay = -1;
  std::vector<int> last_flagged;
};

RunStats Drive(DriftingClassStream* stream, RbmIm* det, uint64_t n,
               uint64_t drift_at, uint64_t slack) {
  RunStats out;
  for (uint64_t i = 0; i < n; ++i) {
    Instance inst = stream->Next();
    det->Observe(inst, inst.label, {});
    if (det->state() == DetectorState::kDrift) {
      ++out.detections;
      out.last_flagged = det->drifted_classes();
      if (i >= drift_at && i < drift_at + slack) {
        ++out.hits;
        if (out.first_delay < 0) {
          out.first_delay = static_cast<long long>(i - drift_at);
        }
      }
    }
  }
  return out;
}

TEST(RbmImTest, QuietOnStationaryStream) {
  auto stream = MakeStream(10, 4, 15.0, {}, 7);
  RbmIm det(DetectorParams(10, 4), 7);
  RunStats s = Drive(stream.get(), &det, 40000, 1 << 30, 0);
  // The CUSUM stage trades a small stationary false-alarm rate (here ~1 per
  // 13k instances) for sensitivity to minority-class drift; see DESIGN.md.
  EXPECT_LE(s.detections, 5);
}

TEST(RbmImTest, DetectsSuddenGlobalDrift) {
  DriftEvent ev;
  ev.start = 15000;
  ev.type = DriftType::kSudden;
  auto stream = MakeStream(12, 5, 20.0, {ev}, 7);
  RbmIm det(DetectorParams(12, 5), 7);
  RunStats s = Drive(stream.get(), &det, 30000, 15000, 5000);
  EXPECT_GE(s.hits, 1);
  EXPECT_LT(s.first_delay, 2000);
  EXPECT_LE(s.detections - s.hits, 2);  // Few false alarms.
}

TEST(RbmImTest, DetectsLocalDriftOnSingleMinorityClass) {
  DriftEvent ev;
  ev.start = 15000;
  ev.type = DriftType::kSudden;
  ev.affected = {4};  // Smallest class only (geometric ladder).
  auto stream = MakeStream(12, 5, 20.0, {ev}, 7);
  RbmIm det(DetectorParams(12, 5), 7);
  // Collect the flagged classes of every detection inside the drift window.
  std::vector<int> flagged;
  int hits = 0;
  for (uint64_t i = 0; i < 30000; ++i) {
    Instance inst = stream->Next();
    det.Observe(inst, inst.label, {});
    if (det.state() == DetectorState::kDrift && i >= 15000 && i < 23000) {
      ++hits;
      for (int k : det.drifted_classes()) flagged.push_back(k);
    }
  }
  ASSERT_GE(hits, 1);
  // The flagged set of in-window detections must include the drifted class.
  bool found = false;
  for (int k : flagged) found |= (k == 4);
  EXPECT_TRUE(found);
}

TEST(RbmImTest, LocalizationNamesAffectedNotStableClasses) {
  DriftEvent ev;
  ev.start = 12000;
  ev.type = DriftType::kSudden;
  ev.affected = {3, 4};
  auto stream = MakeStream(10, 5, 10.0, {ev}, 11);
  RbmIm det(DetectorParams(10, 5), 11);
  std::vector<int> flagged_during_drift;
  for (uint64_t i = 0; i < 30000; ++i) {
    Instance inst = stream->Next();
    det.Observe(inst, inst.label, {});
    if (det.state() == DetectorState::kDrift && i >= 12000 && i < 20000) {
      for (int k : det.drifted_classes()) flagged_during_drift.push_back(k);
    }
  }
  ASSERT_FALSE(flagged_during_drift.empty());
  int on_target = 0;
  for (int k : flagged_during_drift) on_target += (k == 3 || k == 4);
  // Majority of flags point at the truly drifted classes.
  EXPECT_GE(on_target * 2, static_cast<int>(flagged_during_drift.size()));
}

TEST(RbmImTest, HandlesExtremeImbalance) {
  DriftEvent ev;
  ev.start = 20000;
  ev.type = DriftType::kSudden;
  auto stream = MakeStream(10, 5, 400.0, {ev}, 13);
  RbmIm det(DetectorParams(10, 5), 13);
  RunStats s = Drive(stream.get(), &det, 40000, 20000, 10000);
  EXPECT_GE(s.hits, 1);  // Still reactive at IR=400.
}

TEST(RbmImTest, RearmsForRepeatedDrifts) {
  DriftEvent e1, e2;
  e1.start = 12000;
  e1.type = DriftType::kSudden;
  e2.start = 24000;
  e2.type = DriftType::kSudden;
  auto stream = MakeStream(10, 4, 10.0, {e1, e2}, 17);
  RbmIm det(DetectorParams(10, 4), 17);
  int hits1 = 0, hits2 = 0;
  for (uint64_t i = 0; i < 36000; ++i) {
    Instance inst = stream->Next();
    det.Observe(inst, inst.label, {});
    if (det.state() == DetectorState::kDrift) {
      if (i >= 12000 && i < 18000) ++hits1;
      if (i >= 24000 && i < 30000) ++hits2;
    }
  }
  EXPECT_GE(hits1, 1);
  EXPECT_GE(hits2, 1);
}

TEST(RbmImTest, DriftStateIsStickyForOneObservation) {
  DriftEvent ev;
  ev.start = 10000;
  ev.type = DriftType::kSudden;
  auto stream = MakeStream(10, 3, 5.0, {ev}, 19);
  RbmIm det(DetectorParams(10, 3), 19);
  for (uint64_t i = 0; i < 20000; ++i) {
    Instance inst = stream->Next();
    det.Observe(inst, inst.label, {});
    if (det.state() == DetectorState::kDrift) {
      EXPECT_FALSE(det.drifted_classes().empty());
      Instance next = stream->Next();
      det.Observe(next, next.label, {});
      // One more observation clears the sticky signal (a fresh drift on the
      // very next batch boundary is possible but requires a batch to
      // complete; mid-batch the state must be stable).
      if ((det.batches_processed() * 50) % 50 != 0) {
        EXPECT_NE(det.state(), DetectorState::kDrift);
      }
      break;
    }
  }
}

TEST(RbmImTest, ResetReinitializesEverything) {
  auto stream = MakeStream(8, 3, 5.0, {}, 21);
  RbmIm det(DetectorParams(8, 3), 21);
  for (uint64_t i = 0; i < 5000; ++i) {
    Instance inst = stream->Next();
    det.Observe(inst, inst.label, {});
  }
  EXPECT_GT(det.batches_processed(), 0u);
  det.Reset();
  EXPECT_EQ(det.batches_processed(), 0u);
  EXPECT_EQ(det.state(), DetectorState::kStable);
}

TEST(RbmImTest, TriggerVariantsAllFunctional) {
  for (RbmIm::Trigger trig :
       {RbmIm::Trigger::kCombined, RbmIm::Trigger::kZScore,
        RbmIm::Trigger::kAdwinOnly, RbmIm::Trigger::kGranger}) {
    DriftEvent ev;
    ev.start = 15000;
    ev.type = DriftType::kSudden;
    auto stream = MakeStream(10, 4, 10.0, {ev}, 23);
    RbmIm::Params p = DetectorParams(10, 4);
    p.trigger = trig;
    RbmIm det(p, 23);
    RunStats s = Drive(stream.get(), &det, 30000, 15000, 10000);
    // Every variant must run clean; the sensitive variants must also hit.
    if (trig == RbmIm::Trigger::kCombined || trig == RbmIm::Trigger::kZScore) {
      EXPECT_GE(s.hits, 1) << "trigger variant " << static_cast<int>(trig);
    }
  }
}

TEST(RbmImTest, BatchSizeGridFunctional) {
  // Table II: M in {25, 50, 75, 100} — all batch sizes must detect.
  for (int batch : {25, 50, 75, 100}) {
    DriftEvent ev;
    ev.start = 15000;
    ev.type = DriftType::kSudden;
    auto stream = MakeStream(10, 4, 10.0, {ev}, 29);
    RbmIm::Params p = DetectorParams(10, 4);
    p.batch_size = batch;
    RbmIm det(p, 29);
    RunStats s = Drive(stream.get(), &det, 30000, 15000, 10000);
    EXPECT_GE(s.hits, 1) << "batch size " << batch;
  }
}

TEST(RbmImTest, WorksOnRegistryStream) {
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions o;
  o.scale = 0.03;
  o.seed = 31;
  BuiltStream built = BuildStream(*spec, o);
  RbmIm det(DetectorParams(spec->num_features, spec->num_classes), 31);
  int in_window = 0, total = 0;
  for (uint64_t i = 0; i < built.length; ++i) {
    Instance inst = built.stream->Next();
    det.Observe(inst, inst.label, {});
    if (det.state() == DetectorState::kDrift) {
      ++total;
      for (const DriftEvent& ev : built.stream->events()) {
        if (i >= ev.start && i < ev.start + built.length / 8) {
          ++in_window;
          break;
        }
      }
    }
  }
  EXPECT_GE(in_window, 1);
  EXPECT_LE(total - in_window, 3);
}

TEST(RbmImTest, RejectsInstanceWiderThanDeclaredSchema) {
  // Regression: RBM-IM feeds raw stream features to its MinMaxNormalizer,
  // which is sized for Params::num_features — a wider instance used to
  // read and write past the bounds arrays; it now throws.
  RbmIm det(DetectorParams(4, 3), /*seed=*/1);
  Instance ok(std::vector<double>(4, 0.5), 0);
  det.Observe(ok, 0, {});
  Instance bad(std::vector<double>(7, 0.5), 0);
  EXPECT_THROW(det.Observe(bad, 0, {}), std::invalid_argument);
}

TEST(RbmImTest, RejectsOutOfDomainParams) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* field;
    std::function<void(RbmIm::Params*)> set;
  };
  const Case cases[] = {
      {"rbm_im.num_features", [](RbmIm::Params* p) { p->num_features = 0; }},
      {"rbm_im.num_classes", [](RbmIm::Params* p) { p->num_classes = 0; }},
      {"rbm_im.batch_size", [](RbmIm::Params* p) { p->batch_size = 0; }},
      {"rbm_im.eval_pool", [](RbmIm::Params* p) { p->eval_pool = 0; }},
      // cd_steps = 0 used to reach Rbm::TrainBatch at the first batch
      // boundary and read the Gibbs chain's empty visible scratch (an
      // ASan SEGV).
      {"rbm_im.cd_steps", [](RbmIm::Params* p) { p->cd_steps = 0; }},
      {"rbm_im.hidden_ratio", [](RbmIm::Params* p) { p->hidden_ratio = 0.0; }},
      {"rbm_im.hidden_ratio", [](RbmIm::Params* p) { p->hidden_ratio = kNan; }},
      {"rbm_im.learning_rate",
       [](RbmIm::Params* p) { p->learning_rate = -0.05; }},
      {"rbm_im.learning_rate",
       [](RbmIm::Params* p) { p->learning_rate = kNan; }},
      // beta = 1 made the Eq. 13 weight (1 - 1^n) / (1 - 1) NaN, so every
      // reconstruction error was NaN and no drift test could ever fire.
      {"rbm_im.beta", [](RbmIm::Params* p) { p->beta = 1.0; }},
      {"rbm_im.beta", [](RbmIm::Params* p) { p->beta = 0.0; }},
  };
  for (const Case& c : cases) {
    RbmIm::Params p = DetectorParams(6, 3);
    c.set(&p);
    try {
      RbmIm det(p, 1);
      ADD_FAILURE() << "expected ParamError for " << c.field;
    } catch (const ParamError& e) {
      EXPECT_EQ(e.field(), c.field) << e.what();
    }
  }
}

std::string Save(const RbmIm& det) {
  io::Writer w;
  det.SaveState(w);
  return w.data();
}

std::string SaveRbm(const Rbm& rbm) {
  io::Writer w;
  rbm.SaveState(w);
  return w.data();
}

// A close owes its CD-k training to the observations after it, which pay
// it in slices; SaveState() and rbm() settle what is left. `eager` is
// captured after every Observe, so it always settles at once, the order of
// training the whole batch at its close. `lazy` is read only at every
// close and at one point inside each batch's slicing that moves from batch
// to batch, and after a drift in the middle of the boost passes. Its reads
// alternate between SaveState() and rbm(), and each must give `eager`'s
// bytes. The streams are prefixes; RBF10's holds its first drift. At
// batch size 25 a boost batch owes 25 slices to 24 observations, so the
// next close itself must settle the last one; that case reads `lazy` only
// at closes that raise no drift, since any read from the drift on would
// settle the boost first.
TEST(RbmImTest, SlicedTrainingMatchesTrainingAtTheClose) {
  struct Case {
    const char* stream;
    uint64_t length;
    int batch_size;
    bool drifts;     ///< Whether a drift must fire within the prefix.
    bool mid_reads;  ///< Whether `lazy` is read inside batches and at
                     ///< drifting closes too.
  };
  for (const Case& c : {Case{"RBF10", 1600, 50, true, true},
                        Case{"RBF10", 1600, 25, true, false},
                        Case{"RBF20", 500, 50, false, true},
                        Case{"IntelSensors", 600, 50, false, true}}) {
    SCOPED_TRACE(std::string(c.stream) + " batch_size " +
                 std::to_string(c.batch_size));
    const StreamSpec* spec = FindStreamSpec(c.stream);
    ASSERT_NE(spec, nullptr);
    BuildOptions o;
    o.scale = 0.002;
    o.seed = 37;
    BuiltStream built = BuildStream(*spec, o);
    ASSERT_GE(built.length, c.length);
    RbmIm::Params p = DetectorParams(spec->num_features, spec->num_classes);
    p.batch_size = c.batch_size;
    int drifts = 0;
    RbmIm eager(p, 37);
    RbmIm lazy(p, 37);
    const uint64_t batch = static_cast<uint64_t>(p.batch_size);
    const uint64_t slice = (batch + 9) / 10;  // Instances per slice.
    uint64_t read_at = 0;  // Offset into the batch of the next read.
    for (uint64_t i = 0; i < c.length; ++i) {
      const Instance inst = built.stream->Next();
      eager.Observe(inst, inst.label, {});
      lazy.Observe(inst, inst.label, {});
      ASSERT_EQ(eager.state(), lazy.state()) << "instance " << i;
      const std::string want = Save(eager);
      const uint64_t offset = (i + 1) % batch;
      const uint64_t b = (i + 1) / batch;
      const bool drifted = lazy.state() == DetectorState::kDrift;
      if (offset == 0) {
        // A close: read before any slice runs, then pick the next read.
        // After a drift it falls halfway through the second of the three
        // passes; otherwise inside the one pass, a different slice each
        // batch.
        if (drifted) {
          ++drifts;
          read_at = (3 * batch / 2) / slice;
        } else {
          read_at = 1 + (b * 3) % (batch / slice + 2);
        }
        if (drifted && !c.mid_reads) continue;
      } else if (!c.mid_reads || offset != read_at) {
        continue;
      }
      if (b % 2 == 0) {
        ASSERT_EQ(Save(lazy), want) << "SaveState at instance " << i;
      } else {
        ASSERT_EQ(SaveRbm(lazy.rbm()), SaveRbm(eager.rbm()))
            << "rbm() at instance " << i;
        ASSERT_EQ(Save(lazy), want) << "instance " << i;
      }
    }
    if (c.drifts) {
      EXPECT_GE(drifts, 1) << "no drift fired, so the boost path never ran";
    }
  }
}

// ---- Frozen oracle of the batch close. tests/golden/rbm_im_closes.txt
// was recorded from the close that ran the whole monitor pass itself: for
// each case, one line per close with the batch index, the state, the
// drifted classes and every class's last_r/last_z as bit patterns, then
// a hash of the SaveState bytes; the last line of a case hashes the
// capture after the final instance, mid-batch. The close now sums errors
// cached while the batch filled, and every figure must match to the bit.
struct CloseCase {
  const char* stream;
  uint64_t length;
  int batch_size;
  int eval_pool;
  int cd_steps;
};

// RBF5/10/20 prefixes at batch sizes 25/50/100, eval pools 4 (clamped
// and evicting) and 16, CD-1 and CD-2. The first case drifts, so its
// boost passes run.
constexpr CloseCase kCloseCases[] = {
    {"RBF10", 1600, 50, 16, 1}, {"RBF10", 1600, 25, 4, 1},
    {"RBF10", 1600, 100, 16, 2}, {"RBF5", 1200, 50, 4, 2},
    {"RBF5", 1200, 25, 16, 1},  {"RBF20", 1000, 100, 4, 1},
    {"RBF20", 1000, 50, 16, 2},
};

std::string CaseName(const CloseCase& c) {
  return std::string(c.stream) + "/b" + std::to_string(c.batch_size) +
         "/p" + std::to_string(c.eval_pool) + "/k" +
         std::to_string(c.cd_steps);
}

std::string Hex(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

std::string Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// The decision of the close that just ran, as one golden-line fragment.
std::string CloseDecision(const RbmIm& det, int num_classes) {
  static const char* const kStates[] = {"stable", "warning", "drift"};
  std::string out = "batch=" + std::to_string(det.batches_processed()) +
                    " state=" + kStates[static_cast<int>(det.state())] +
                    " drifted=";
  for (int k : det.drifted_classes()) out += std::to_string(k) + ",";
  out += " r=";
  for (int k = 0; k < num_classes; ++k) {
    out += Hex(det.last_reconstruction(k)) + ",";
  }
  out += " z=";
  for (int k = 0; k < num_classes; ++k) out += Hex(det.last_z(k)) + ",";
  return out;
}

struct CloseRun {
  BuiltStream built;
  RbmIm::Params params;
};

CloseRun StartCloseCase(const CloseCase& c) {
  const StreamSpec* spec = FindStreamSpec(c.stream);
  EXPECT_NE(spec, nullptr) << c.stream;
  BuildOptions o;
  o.scale = 0.002;
  o.seed = 37;
  CloseRun run{BuildStream(*spec, o),
               DetectorParams(spec->num_features, spec->num_classes)};
  EXPECT_GE(run.built.length, c.length);
  run.params.batch_size = c.batch_size;
  run.params.eval_pool = c.eval_pool;
  run.params.cd_steps = c.cd_steps;
  return run;
}

std::vector<std::string> GoldenCloses() {
  return test_util::GoldenLines(std::string(CCD_GOLDEN_DIR) +
                                "/rbm_im_closes.txt");
}

// `live` is never read between closes, so it pays its training in slices
// and caches its errors exactly as a serving detector does. `saved` is
// captured at every close, which settles its training at the close, so
// its caching starts at the first observation of each batch. Both must
// decide exactly what the oracle decided; `saved`'s captures pin the
// whole state at every close.
TEST(RbmImTest, ClosesMatchFrozenOracle) {
  std::vector<std::string> got;
  int drifts = 0;
  for (const CloseCase& c : kCloseCases) {
    SCOPED_TRACE(CaseName(c));
    CloseRun run = StartCloseCase(c);
    RbmIm live(run.params, 37);
    RbmIm saved(run.params, 37);
    const uint64_t batch = static_cast<uint64_t>(c.batch_size);
    for (uint64_t i = 0; i < c.length; ++i) {
      const Instance inst = run.built.stream->Next();
      live.Observe(inst, inst.label, {});
      saved.Observe(inst, inst.label, {});
      if ((i + 1) % batch != 0) continue;
      const std::string decision =
          CloseDecision(saved, run.params.num_classes);
      ASSERT_EQ(CloseDecision(live, run.params.num_classes), decision)
          << "instance " << i;
      if (saved.state() == DetectorState::kDrift) ++drifts;
      got.push_back(CaseName(c) + " " + decision +
                    " save=" + Fnv1a(Save(saved)));
    }
    got.push_back(CaseName(c) + " end save=" + Fnv1a(Save(live)));
  }
  EXPECT_GE(drifts, 1) << "no drift fired, so the boost passes never ran";
  test_util::ExpectLinesMatchGolden(got, GoldenCloses(),
                                    "rbm_im_closes.actual.txt");
}

// A capture in the middle of a batch restored into a fresh detector must
// not move a later close: at offset 1 training is still owed, at 12 it
// has settled but nothing is cached yet (at batch size 50 and 100), and
// at 30 and 48 part of the batch is cached. After a drift the boost
// passes keep offsets 12 and 30 inside training too. Every batch swaps
// the detector once, at one of these offsets in turn.
TEST(RbmImTest, ClosesMatchFrozenOracleAcrossMidBatchRestores) {
  constexpr uint64_t kOffsets[] = {1, 12, 30, 48};
  const std::vector<std::string> golden = GoldenCloses();
  std::vector<std::string> got;
  std::vector<std::string> want;
  for (const CloseCase& c : kCloseCases) {
    SCOPED_TRACE(CaseName(c));
    const std::string prefix = CaseName(c) + " ";
    for (const std::string& line : golden) {
      if (line.compare(0, prefix.size(), prefix) != 0) continue;
      // A close's capture would settle the next batch's training at the
      // close, so closes compare decisions only; the final capture
      // compares whole.
      const bool end = line.compare(prefix.size(), 4, "end ") == 0;
      want.push_back(end ? line : line.substr(0, line.rfind(" save=")));
    }
    CloseRun run = StartCloseCase(c);
    auto det = std::make_unique<RbmIm>(run.params, 37);
    const uint64_t batch = static_cast<uint64_t>(c.batch_size);
    for (uint64_t i = 0; i < c.length; ++i) {
      const Instance inst = run.built.stream->Next();
      det->Observe(inst, inst.label, {});
      const uint64_t offset = (i + 1) % batch;
      const uint64_t b = (i + 1) / batch;
      if (offset == 0) {
        got.push_back(prefix + CloseDecision(*det, run.params.num_classes));
      } else if (offset == kOffsets[b % 4]) {
        const std::string bytes = Save(*det);
        // The seed is on the wire; the fresh one's must not matter.
        auto fresh = std::make_unique<RbmIm>(run.params, 1);
        io::Reader r(bytes);
        fresh->LoadState(r);
        det = std::move(fresh);
      }
    }
    got.push_back(prefix + "end save=" + Fnv1a(Save(*det)));
  }
  test_util::ExpectLinesMatchGolden(got, want,
                                    "rbm_im_closes_restored.actual.txt");
}

// RBM-IM's params travel only in the shard identity: an image whose
// identity claims out-of-domain params fails when the registry builds the
// detector from them, before a byte of its payload is read.
TEST(RbmImTest, LoadStateRejectsOutOfDomainParams) {
  const StreamSchema schema(6, 3);
  test_util::ExpectIdentityParamsRejected(schema, "RBM-IM", "cd_steps=0",
                                          "rbm_im.cd_steps");
  test_util::ExpectIdentityParamsRejected(schema, "RBM-IM", "beta=1",
                                          "rbm_im.beta");
}

// LoadState checks the payload's shapes against the params the target was
// built with, instead of resizing to whatever the bytes say.
TEST(RbmImTest, LoadStateRejectsPayloadOfOtherParams) {
  const auto params = [](int k, int batch_size, int eval_pool) {
    RbmIm::Params p = DetectorParams(6, k);
    p.batch_size = batch_size;
    p.eval_pool = eval_pool;
    return p;
  };
  // One close pools about 7 instances per class; 10 stay pending.
  RbmIm det(params(3, 20, 16), 1);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.NextDouble();
    det.Observe(Instance(x, i % 3), 0, {});
  }
  const std::string bytes = Save(det);
  const auto load_error = [&bytes](const RbmIm::Params& p) -> std::string {
    RbmIm target(p, 1);
    io::Reader r(bytes);
    try {
      target.LoadState(r);
    } catch (const io::WireError& e) {
      return e.field();
    }
    return "";
  };
  EXPECT_EQ(load_error(params(3, 20, 16)), "");
  EXPECT_EQ(load_error(params(3, 10, 16)), "rbm_im.pending");
  EXPECT_EQ(load_error(params(3, 20, 4)), "rbm_im.monitor.recent");
  EXPECT_EQ(load_error(params(4, 20, 16)), "rbm.w");
}

}  // namespace
}  // namespace ccd
