#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "detectors/adwin.h"
#include "detectors/ddm.h"
#include "detectors/ddm_oci.h"
#include "detectors/detector.h"
#include "detectors/eddm.h"
#include "detectors/fhddm.h"
#include "detectors/hddm.h"
#include "detectors/perfsim.h"
#include "detectors/rddm.h"
#include "detectors/ecdd.h"
#include "detectors/page_hinkley.h"
#include "detectors/wstd.h"
#include "io/codecs.h"
#include "io/wire.h"
#include "utils/param_error.h"
#include "utils/rng.h"
#include "testing_util.h"
#include "wilcoxon_oracle.h"

namespace ccd {
namespace {

/// Drives an error-rate detector with a Bernoulli error stream whose rate
/// jumps from p0 to p1 at `change_at`. Returns the first detection index
/// (or -1) and the number of detections before the change (false alarms).
struct DriveResult {
  long long first_detection = -1;
  int false_alarms = 0;
  int total_detections = 0;
};

DriveResult DriveErrorStream(ErrorRateDetector* detector, double p0, double p1,
                             int change_at, int total, uint64_t seed) {
  Rng rng(seed);
  DriveResult out;
  for (int i = 0; i < total; ++i) {
    double p = i < change_at ? p0 : p1;
    detector->AddError(rng.Bernoulli(p));
    if (detector->state() == DetectorState::kDrift) {
      ++out.total_detections;
      if (i < change_at) {
        ++out.false_alarms;
      } else if (out.first_detection < 0) {
        out.first_detection = i - change_at;
      }
    }
  }
  return out;
}

// ------------------------------------------------------------- shared tests
// Parameterized over all error-rate detectors: each must (a) stay quiet on
// a stationary error stream and (b) fire after a large error-rate jump.
using DetectorFactory = std::function<std::unique_ptr<ErrorRateDetector>()>;

struct NamedFactory {
  std::string name;
  DetectorFactory make;
};

class ErrorDetectorSuite : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(ErrorDetectorSuite, QuietOnStationaryStream) {
  auto detector = GetParam().make();
  DriveResult r =
      DriveErrorStream(detector.get(), 0.2, 0.2, 20000, 20000, 42);
  // Allow a small number of spurious alarms over 20k stationary instances
  // (detectors test repeatedly, so nominal significance accumulates).
  EXPECT_LE(r.total_detections, 5) << GetParam().name;
}

TEST_P(ErrorDetectorSuite, DetectsLargeErrorJump) {
  auto detector = GetParam().make();
  DriveResult r = DriveErrorStream(detector.get(), 0.1, 0.6, 10000, 20000, 42);
  EXPECT_GE(r.first_detection, 0) << GetParam().name;
  EXPECT_LT(r.first_detection, 2500) << GetParam().name;
}

TEST_P(ErrorDetectorSuite, ResetRestoresStableState) {
  auto detector = GetParam().make();
  DriveErrorStream(detector.get(), 0.1, 0.9, 500, 1500, 42);
  detector->Reset();
  EXPECT_EQ(detector->state(), DetectorState::kStable) << GetParam().name;
}

TEST_P(ErrorDetectorSuite, SurvivesAllErrorAndAllCorrectRuns) {
  auto detector = GetParam().make();
  for (int i = 0; i < 500; ++i) detector->AddError(true);
  for (int i = 0; i < 500; ++i) detector->AddError(false);
  SUCCEED();  // No crash / no NaN poisoning.
}

INSTANTIATE_TEST_SUITE_P(
    AllErrorDetectors, ErrorDetectorSuite,
    ::testing::Values(
        NamedFactory{"DDM", [] { return std::make_unique<Ddm>(); }},
        NamedFactory{"EDDM",
                     [] {
                       // EDDM is tuned for slow drifts; default betas are
                       // noisy on abrupt synthetic streams, so relax them.
                       Eddm::Params p;
                       p.beta = 0.85;
                       p.alpha = 0.90;
                       return std::make_unique<Eddm>(p);
                     }},
        NamedFactory{"RDDM", [] { return std::make_unique<Rddm>(); }},
        NamedFactory{"ADWIN", [] { return std::make_unique<Adwin>(); }},
        NamedFactory{"HDDM-A", [] { return std::make_unique<HddmA>(); }},
        NamedFactory{"FHDDM", [] { return std::make_unique<Fhddm>(); }},
        NamedFactory{"PageHinkley",
                     [] { return std::make_unique<PageHinkley>(); }},
        NamedFactory{"ECDD", [] { return std::make_unique<Ecdd>(); }},
        NamedFactory{"WSTD", [] { return std::make_unique<Wstd>(); }}),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --------------------------------------------------------------- DDM basics
TEST(DdmTest, WarningPrecedesDrift) {
  Ddm ddm;
  Rng rng(3);
  bool saw_warning = false;
  for (int i = 0; i < 5000; ++i) {
    ddm.AddError(rng.Bernoulli(0.05));
  }
  for (int i = 0; i < 5000; ++i) {
    ddm.AddError(rng.Bernoulli(0.5));
    if (ddm.state() == DetectorState::kWarning) saw_warning = true;
    if (ddm.state() == DetectorState::kDrift) break;
  }
  EXPECT_TRUE(saw_warning);
}

TEST(DdmTest, SelfRearmsAfterDrift) {
  Ddm ddm;
  Rng rng(3);
  int drifts = 0;
  // Two separate jumps; the detector must fire for each.
  for (int phase = 0; phase < 2; ++phase) {
    for (int i = 0; i < 3000; ++i) ddm.AddError(rng.Bernoulli(0.05));
    for (int i = 0; i < 3000; ++i) {
      ddm.AddError(rng.Bernoulli(0.7));
      if (ddm.state() == DetectorState::kDrift) {
        ++drifts;
        break;
      }
    }
  }
  EXPECT_EQ(drifts, 2);
}

// ------------------------------------------------------------------- ADWIN
TEST(AdwinTest, TracksWindowMean) {
  Adwin adwin;
  for (int i = 0; i < 1000; ++i) adwin.AddValue(0.5);
  EXPECT_NEAR(adwin.mean(), 0.5, 1e-9);
  EXPECT_EQ(adwin.width(), 1000);
}

TEST(AdwinTest, ShrinksWindowOnChange) {
  Adwin adwin;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) adwin.AddValue(rng.Gaussian(0.2, 0.05));
  long long width_before = adwin.width();
  bool detected = false;
  for (int i = 0; i < 3000; ++i) {
    adwin.AddValue(rng.Gaussian(0.8, 0.05));
    if (adwin.state() == DetectorState::kDrift) detected = true;
  }
  EXPECT_TRUE(detected);
  EXPECT_LT(adwin.width(), width_before + 3000);
  EXPECT_NEAR(adwin.mean(), 0.8, 0.1);  // Window converges to new regime.
}

TEST(AdwinTest, RealValuedSignalsSupported) {
  // ADWIN must handle non-binary signals (RBM-IM feeds reconstruction
  // errors): mean shift of a continuous signal.
  Adwin adwin;
  Rng rng(7);
  bool detected = false;
  for (int i = 0; i < 2000; ++i) adwin.AddValue(rng.Uniform(0.3, 0.4));
  for (int i = 0; i < 2000; ++i) {
    adwin.AddValue(rng.Uniform(0.5, 0.6));
    if (adwin.state() == DetectorState::kDrift) detected = true;
  }
  EXPECT_TRUE(detected);
}

// ------------------------------------------------------------------- FHDDM
TEST(FhddmTest, ExactThresholdBehaviour) {
  Fhddm::Params p;
  p.window_size = 100;
  p.delta = 1e-6;
  Fhddm f(p);
  // Perfect accuracy then sharp degradation: eps = sqrt(ln(1e6)/200) ~ 0.26.
  for (int i = 0; i < 200; ++i) f.AddError(false);
  int flips = 0;
  while (f.state() != DetectorState::kDrift && flips < 100) {
    f.AddError(true);
    ++flips;
  }
  // Needs ~27 errors in the window to drop p below p_max - eps.
  EXPECT_GT(flips, 15);
  EXPECT_LT(flips, 40);
}

// ----------------------------------------------------------------- PerfSim
PerfSim::Params PerfSimParams(int classes) {
  PerfSim::Params p;
  p.num_classes = classes;
  p.chunk_size = 200;
  p.differentiation_weight = 0.2;
  p.min_errors = 0;
  return p;
}

TEST(PerfSimTest, StableConfusionNoDrift) {
  PerfSim ps(PerfSimParams(3));
  Rng rng(3);
  int drifts = 0;
  for (int i = 0; i < 10000; ++i) {
    int y = rng.UniformInt(0, 2);
    int pred = rng.Bernoulli(0.8) ? y : rng.UniformInt(0, 2);
    ps.Observe(Instance({0.0}, y), pred, {});
    if (ps.state() == DetectorState::kDrift) ++drifts;
  }
  EXPECT_EQ(drifts, 0);
}

TEST(PerfSimTest, ConfusionShiftDetected) {
  PerfSim ps(PerfSimParams(3));
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    int y = rng.UniformInt(0, 2);
    ps.Observe(Instance({0.0}, y), y, {});  // Perfect predictions.
  }
  // Class 2 collapses onto class 0: its confusion row shifts entirely.
  bool detected = false;
  std::vector<int> flagged;
  for (int i = 0; i < 5000 && !detected; ++i) {
    int y = rng.UniformInt(0, 2);
    int pred = y == 2 ? 0 : y;
    ps.Observe(Instance({0.0}, y), pred, {});
    if (ps.state() == DetectorState::kDrift) {
      detected = true;
      flagged = ps.drifted_classes();
    }
  }
  EXPECT_TRUE(detected);
  bool has2 = false;
  for (int k : flagged) has2 |= (k == 2);
  EXPECT_TRUE(has2);
}

// ----------------------------------------------------------------- DDM-OCI
DdmOci::Params OciParams(int classes) {
  DdmOci::Params p;
  p.num_classes = classes;
  return p;
}

TEST(DdmOciTest, TracksPerClassRecall) {
  DdmOci::Params params = OciParams(2);
  params.min_class_count = 100000;  // Observe only: no detection resets.
  DdmOci oci(params);
  // Class 0 always right, class 1 always wrong.
  for (int i = 0; i < 200; ++i) {
    oci.Observe(Instance({0.0}, 0), 0, {});
    oci.Observe(Instance({0.0}, 1), 0, {});
  }
  EXPECT_GT(oci.recall(0), 0.9);
  EXPECT_LT(oci.recall(1), 0.4);
}

TEST(DdmOciTest, MinorityRecallDropFiresAndNamesClass) {
  DdmOci oci(OciParams(3));
  Rng rng(3);
  // Warm phase: 90% recall everywhere, class 2 is rare (5%).
  for (int i = 0; i < 20000; ++i) {
    int y = rng.Bernoulli(0.05) ? 2 : rng.UniformInt(0, 1);
    int pred = rng.Bernoulli(0.9) ? y : (y + 1) % 3;
    oci.Observe(Instance({0.0}, y), pred, {});
  }
  // Class 2's recall collapses; majority classes unaffected.
  bool detected = false;
  std::vector<int> flagged;
  for (int i = 0; i < 40000 && !detected; ++i) {
    int y = rng.Bernoulli(0.05) ? 2 : rng.UniformInt(0, 1);
    int pred = y == 2 ? 0 : (rng.Bernoulli(0.9) ? y : (y + 1) % 3);
    oci.Observe(Instance({0.0}, y), pred, {});
    if (oci.state() == DetectorState::kDrift) {
      detected = true;
      flagged = oci.drifted_classes();
    }
  }
  ASSERT_TRUE(detected);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 2);
}

TEST(DdmOciTest, StableRecallStaysQuiet) {
  DdmOci oci(OciParams(4));
  Rng rng(5);
  int drifts = 0;
  for (int i = 0; i < 30000; ++i) {
    int y = rng.UniformInt(0, 3);
    int pred = rng.Bernoulli(0.8) ? y : rng.UniformInt(0, 3);
    oci.Observe(Instance({0.0}, y), pred, {});
    if (oci.state() == DetectorState::kDrift) ++drifts;
  }
  EXPECT_LE(drifts, 2);
}

// ---------------------------------------------------------------- WSTD
/// The pre-rewrite WSTD, verbatim but for the test it calls: a deque of
/// 0.0/1.0 errors, copied into two vectors and handed to the pooled-sort
/// Wilcoxon rank-sum oracle at every check.
class OracleWstd {
 public:
  explicit OracleWstd(const Wstd::Params& params) : params_(params) {}

  DetectorState state() const { return state_; }

  void AddError(bool error) {
    if (state_ == DetectorState::kDrift) Reset();

    history_.push_back(error ? 1.0 : 0.0);
    size_t cap = static_cast<size_t>(params_.max_old_instances) +
                 static_cast<size_t>(params_.window_size);
    while (history_.size() > cap) history_.pop_front();

    if (history_.size() < static_cast<size_t>(2 * params_.window_size)) {
      state_ = DetectorState::kStable;
      return;
    }
    if (++since_check_ < params_.check_interval) return;
    since_check_ = 0;

    size_t recent_begin =
        history_.size() - static_cast<size_t>(params_.window_size);
    std::vector<double> older(
        history_.begin(), history_.begin() + static_cast<long>(recent_begin));
    std::vector<double> recent(
        history_.begin() + static_cast<long>(recent_begin), history_.end());
    oracle::RankTestResult r = oracle::WilcoxonRankSum(older, recent);
    if (!r.valid) {
      state_ = DetectorState::kStable;
      return;
    }
    if (r.p_value < params_.drift_significance) {
      state_ = DetectorState::kDrift;
    } else if (r.p_value < params_.warning_significance) {
      state_ = DetectorState::kWarning;
    } else {
      state_ = DetectorState::kStable;
    }
  }

 private:
  void Reset() {
    state_ = DetectorState::kStable;
    history_.clear();
    since_check_ = 0;
  }

  Wstd::Params params_;
  DetectorState state_ = DetectorState::kStable;
  std::deque<double> history_;
  int since_check_ = 0;
};

TEST(WstdTest, MatchesPooledSortOracleAcrossParamsAndRoundTrip) {
  // The O(1) closed-form check must classify every step exactly as the
  // pooled-sort rank-sum test does: same p-value bits, same thresholds.
  // The streams switch error rate every 700 steps so warnings and drifts
  // (and the post-drift reset) occur; halfway, the detector is saved and
  // reloaded into a fresh instance, which must carry on in lockstep.
  struct Case {
    int window_size, max_old_instances, check_interval;
    double warning, drift;
  };
  const Case cases[] = {
      {50, 2000, 8, 0.01, 0.0005},  // The defaults.
      {2, 2, 1, 0.2, 0.1},          // Smallest legal history.
      {5, 40, 1, 0.05, 0.05},       // warning == drift.
      {30, 30, 3, 0.1, 0.01},       // Ring full from the first check.
      {64, 500, 8, 0.01, 0.001},    // Word-aligned window.
      {17, 333, 5, 0.3, 0.02},
  };
  const double rates[] = {0.05, 0.5, 0.0, 1.0, 0.2, 0.9};
  for (const Case& c : cases) {
    Wstd::Params p;
    p.window_size = c.window_size;
    p.max_old_instances = c.max_old_instances;
    p.check_interval = c.check_interval;
    p.warning_significance = c.warning;
    p.drift_significance = c.drift;
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("window=" + std::to_string(c.window_size) + " max_old=" +
                   std::to_string(c.max_old_instances) +
                   " seed=" + std::to_string(seed));
      auto wstd = std::make_unique<Wstd>(p);
      OracleWstd oracle(p);
      Rng rng(seed);
      const int steps = 6000;
      int drifts = 0;
      for (int i = 0; i < steps; ++i) {
        if (i == steps / 2) {
          io::Writer w;
          wstd->SaveState(w);
          wstd = std::make_unique<Wstd>(p);
          io::Reader r(w.data());
          wstd->LoadState(r);
          ASSERT_TRUE(r.AtEnd());
        }
        const bool error = rng.Bernoulli(rates[(i / 700 + seed) % 6]);
        wstd->AddError(error);
        oracle.AddError(error);
        ASSERT_EQ(wstd->state(), oracle.state()) << "step " << i;
        drifts += oracle.state() == DetectorState::kDrift ? 1 : 0;
      }
      EXPECT_GT(drifts, 0);
    }
  }
}

TEST(WstdTest, OutOfDomainParamsThrowNamingTheField) {
  // Reproduced before validation existed: an error stream jumping from 0
  // to 1 at step 3000 alarms with the defaults but never with
  // max_old_instances = -1 (the size_t cast wrapped the cap to 49) or 1:
  // the history could never reach two windows.
  auto drifts = [](const Wstd::Params& p) {
    Wstd wstd(p);
    int alarms = 0;
    for (int i = 0; i < 6000; ++i) {
      wstd.AddError(i >= 3000);
      alarms += wstd.state() == DetectorState::kDrift ? 1 : 0;
    }
    return alarms;
  };
  EXPECT_EQ(drifts(Wstd::Params()), 1);

  struct Bad {
    const char* field;
    void (*mutate)(Wstd::Params*);
  };
  const Bad bad[] = {
      {"wstd.window_size", [](Wstd::Params* p) { p->window_size = 1; }},
      {"wstd.max_old_instances",
       [](Wstd::Params* p) { p->max_old_instances = -1; }},
      {"wstd.max_old_instances",
       [](Wstd::Params* p) { p->max_old_instances = 1; }},
      {"wstd.max_old_instances",
       [](Wstd::Params* p) { p->max_old_instances = (1 << 24) + 1; }},
      {"wstd.check_interval", [](Wstd::Params* p) { p->check_interval = 0; }},
      {"wstd.warning_significance",
       [](Wstd::Params* p) { p->warning_significance = 1.0; }},
      {"wstd.drift_significance",
       [](Wstd::Params* p) { p->drift_significance = 0.0; }},
      {"wstd.drift_significance",
       [](Wstd::Params* p) { p->drift_significance = 0.02; }},
  };
  for (const Bad& b : bad) {
    Wstd::Params p;
    b.mutate(&p);
    try {
      Wstd wstd(p);
      ADD_FAILURE() << "expected ParamError for " << b.field;
    } catch (const ParamError& e) {
      EXPECT_EQ(e.field(), b.field) << e.what();
    }
  }
}

// Each of these used to build a detector that broke at its first
// observations: RDDM {min_instances=0} took `% 0` of an empty ring (a
// SIGSEGV), ADWIN {max_buckets=0} merged buckets out of rows that never
// shrank and grew until it was killed, and FHDDM {window_size=0} never
// filled its window, so it never tested. Construction now refuses them,
// directly and through the registry. Construction only: at the old code
// the ADWIN case exhausts memory once it observes.
TEST(DetectorParamsTest, ZeroSizedBuffersAreRefusedAtConstruction) {
  const auto field_of = [](const std::function<void()>& build) {
    try {
      build();
    } catch (const ParamError& e) {
      return e.field();
    }
    return std::string("<accepted>");
  };
  Rddm::Params rddm;
  rddm.min_instances = 0;
  EXPECT_EQ(field_of([&] { Rddm d(rddm); }), "rddm.min_instances");
  Adwin::Params adwin;
  adwin.max_buckets = 0;
  EXPECT_EQ(field_of([&] { Adwin d(adwin); }), "adwin.max_buckets");
  Fhddm::Params fhddm;
  fhddm.window_size = 0;
  EXPECT_EQ(field_of([&] { Fhddm d(fhddm); }), "fhddm.window_size");
  // The smallest accepted sizes construct.
  rddm.min_instances = 1;
  adwin.max_buckets = 1;
  fhddm.window_size = 1;
  EXPECT_EQ(field_of([&] { Rddm d(rddm); }), "<accepted>");
  EXPECT_EQ(field_of([&] { Adwin d(adwin); }), "<accepted>");
  EXPECT_EQ(field_of([&] { Fhddm d(fhddm); }), "<accepted>");

  struct Bad {
    const char* detector;
    const char* param;
    const char* field;
  };
  for (const Bad& b : {Bad{"RDDM", "min_instances=0", "rddm.min_instances"},
                       Bad{"ADWIN", "max_buckets=0", "adwin.max_buckets"},
                       Bad{"FHDDM", "window_size=0", "fhddm.window_size"}}) {
    try {
      api::MakeDetector(b.detector, StreamSchema(4, 3), 1, {b.param});
      ADD_FAILURE() << "expected ApiError for " << b.detector << " "
                    << b.param;
    } catch (const api::ApiError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(b.detector), std::string::npos) << msg;
      EXPECT_NE(msg.find(b.field), std::string::npos) << msg;
    }
  }
}

/// A WSTD state image as SaveState lays it out, with the given params and
/// history.
std::string WstdImage(const std::deque<double>& h) {
  io::Writer w;
  w.BeginSection("WSTD");
  io::WriteDetectorState(w, DetectorState::kStable);
  io::WriteF64Deque(w, h);
  w.I64(0);
  w.EndSection();
  return w.data();
}

TEST(WstdTest, LoadStateRejectsNonBinaryOverlongHistoryAndBadParams) {
  Wstd::Params p;
  p.window_size = 4;
  p.max_old_instances = 6;
  auto load = [&p](const std::string& bytes) {
    Wstd wstd(p);
    io::Reader r(bytes);
    wstd.LoadState(r);
  };
  EXPECT_NO_THROW(load(WstdImage(std::deque<double>(10, 1.0))));
  // A 0.5 used to load and skew every later rank sum.
  std::deque<double> half(8, 0.0);
  half[3] = 0.5;
  EXPECT_THROW(load(WstdImage(half)), io::WireError);
  EXPECT_THROW(load(WstdImage(std::deque<double>(11, 0.0))), io::WireError);
  // Params travel only in the shard identity: an image claiming
  // out-of-domain ones fails when the registry builds the detector.
  test_util::ExpectIdentityParamsRejected(StreamSchema(4, 2), "WSTD",
                                          "max_old_instances=-1",
                                          "wstd.max_old_instances");
}

// Every windowed detector checks the payload's shapes against the params
// it was built with: a window longer than window_size, a circular buffer
// of another size or an ADWIN row above max_buckets is refused, not
// adopted.
TEST(DetectorStateTest, LoadStateRefusesShapesOfOtherParams) {
  const auto load_error = [](const DriftDetector& from, DriftDetector* to) {
    io::Writer w;
    from.SaveState(w);
    io::Reader r(w.data());
    try {
      to->LoadState(r);
    } catch (const io::WireError& e) {
      return e.field();
    }
    return std::string();
  };
  const auto fed = [](std::unique_ptr<ErrorRateDetector> d) {
    for (int i = 0; i < 200; ++i) d->AddError(i % 7 == 0);
    return d;
  };
  Fhddm::Params narrow_window;
  narrow_window.window_size = 25;
  Fhddm fhddm(narrow_window);
  EXPECT_EQ(load_error(*fed(std::make_unique<Fhddm>()), &fhddm),
            "fhddm.window");
  Rddm::Params small_ring;
  small_ring.min_instances = 100;
  Rddm rddm(small_ring);
  EXPECT_EQ(load_error(*fed(std::make_unique<Rddm>()), &rddm), "rddm.recent");
  Adwin::Params few_buckets;
  few_buckets.max_buckets = 2;
  Adwin adwin(few_buckets);
  EXPECT_EQ(load_error(*fed(std::make_unique<Adwin>()), &adwin), "adwin.row");
}

// ------------------------------------------------------- observe interface
TEST(ErrorRateDetectorTest, ObserveDerivesErrorIndicator) {
  Ddm ddm;
  // 100 correct then growing errors via the Observe() interface.
  for (int i = 0; i < 1000; ++i) {
    ddm.Observe(Instance({0.0}, 1), 1, {});
  }
  bool fired = false;
  for (int i = 0; i < 1000; ++i) {
    ddm.Observe(Instance({0.0}, 1), 0, {});  // All wrong now.
    if (ddm.state() == DetectorState::kDrift) {
      fired = true;
      break;
    }
  }
  EXPECT_TRUE(fired);
}

TEST(DetectorStateTest, Names) {
  EXPECT_STREQ(DetectorStateName(DetectorState::kStable), "stable");
  EXPECT_STREQ(DetectorStateName(DetectorState::kWarning), "warning");
  EXPECT_STREQ(DetectorStateName(DetectorState::kDrift), "drift");
}

}  // namespace
}  // namespace ccd
