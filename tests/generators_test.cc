#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "generators/agrawal.h"
#include "generators/drift.h"
#include "generators/drifting_stream.h"
#include "generators/hyperplane.h"
#include "generators/imbalance.h"
#include "generators/random_tree.h"
#include "generators/rbf.h"
#include "generators/registry.h"
#include "generators/sea.h"
#include "testing_util.h"

namespace ccd {
namespace {

// ------------------------------------------------------------------ helpers
std::vector<int> CountLabels(Concept* gen, int k, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> counts(static_cast<size_t>(k), 0);
  for (int i = 0; i < n; ++i) {
    Instance inst = test_util::Draw(*gen, &rng);
    EXPECT_GE(inst.label, 0);
    EXPECT_LT(inst.label, k);
    ++counts[static_cast<size_t>(inst.label)];
  }
  return counts;
}

// ------------------------------------------------------------------- drift
TEST(DriftEventTest, AlphaProgression) {
  DriftEvent e;
  e.start = 100;
  e.width = 50;
  e.type = DriftType::kGradual;
  EXPECT_DOUBLE_EQ(e.Alpha(0), 0.0);
  EXPECT_DOUBLE_EQ(e.Alpha(99), 0.0);
  EXPECT_DOUBLE_EQ(e.Alpha(100), 0.0);
  EXPECT_DOUBLE_EQ(e.Alpha(125), 0.5);
  EXPECT_DOUBLE_EQ(e.Alpha(150), 1.0);
  EXPECT_DOUBLE_EQ(e.Alpha(1000), 1.0);
}

TEST(DriftEventTest, SuddenAlphaIsStep) {
  DriftEvent e;
  e.start = 10;
  e.width = 0;
  EXPECT_DOUBLE_EQ(e.Alpha(9), 0.0);
  EXPECT_DOUBLE_EQ(e.Alpha(10), 1.0);
}

TEST(DriftEventTest, AffectsSubset) {
  DriftEvent e;
  e.affected = {1, 3};
  EXPECT_TRUE(e.Affects(1));
  EXPECT_TRUE(e.Affects(3));
  EXPECT_FALSE(e.Affects(0));
  DriftEvent global;
  EXPECT_TRUE(global.Affects(0));
  EXPECT_TRUE(global.Affects(42));
}

TEST(EvenlySpacedEventsTest, PositionsAndWidths) {
  auto events = EvenlySpacedEvents(1000, 3, DriftType::kGradual, 100);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].start, 250u);
  EXPECT_EQ(events[1].start, 500u);
  EXPECT_EQ(events[2].start, 750u);
  for (const auto& e : events) EXPECT_EQ(e.width, 100u);
  auto sudden = EvenlySpacedEvents(1000, 2, DriftType::kSudden, 100);
  for (const auto& e : sudden) EXPECT_EQ(e.width, 0u);
}

// --------------------------------------------------------------- imbalance
TEST(ImbalanceScheduleTest, StaticLadderMatchesIr) {
  ImbalanceSchedule::Options o;
  o.num_classes = 5;
  o.base_ir = 100.0;
  ImbalanceSchedule s(o);
  std::vector<double> p;
  s.PriorsAt(0, &p);
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(p[0] / p[4], 100.0, 1e-6);
  // Monotone decreasing ladder.
  for (int i = 1; i < 5; ++i) EXPECT_LT(p[static_cast<size_t>(i)], p[static_cast<size_t>(i - 1)]);
}

TEST(ImbalanceScheduleTest, UniformWhenIrOne) {
  ImbalanceSchedule s = ImbalanceSchedule::Uniform(4);
  std::vector<double> p;
  s.PriorsAt(123, &p);
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(ImbalanceScheduleTest, DynamicIrOscillates) {
  ImbalanceSchedule::Options o;
  o.num_classes = 3;
  o.dynamic = true;
  o.ir_low = 10.0;
  o.ir_high = 100.0;
  o.ir_period = 1000;
  ImbalanceSchedule s(o);
  EXPECT_NEAR(s.IrAt(0), 10.0, 1e-9);
  EXPECT_NEAR(s.IrAt(500), 100.0, 1e-9);
  EXPECT_NEAR(s.IrAt(250), 55.0, 1e-9);
  EXPECT_NEAR(s.IrAt(1000), 10.0, 1e-9);  // Periodic.
}

TEST(ImbalanceScheduleTest, RoleSwitchRotatesMajority) {
  ImbalanceSchedule::Options o;
  o.num_classes = 3;
  o.base_ir = 10.0;
  o.role_switch_period = 1000;
  o.role_switch_width = 10;
  ImbalanceSchedule s(o);
  // In period 0 class 0 is the majority; in period 1 class 1 is.
  EXPECT_EQ(s.ClassAtRung(0, 0), 0);
  EXPECT_EQ(s.ClassAtRung(1500, 0), 1);
  EXPECT_EQ(s.ClassAtRung(2500, 0), 2);
  std::vector<double> p0, p1;
  s.PriorsAt(100, &p0);
  s.PriorsAt(1100, &p1);
  EXPECT_GT(p0[0], p0[1]);
  EXPECT_GT(p1[1], p1[0]);
}

TEST(ImbalanceScheduleTest, PriorsAlwaysNormalizedDuringCrossfade) {
  ImbalanceSchedule::Options o;
  o.num_classes = 4;
  o.base_ir = 50.0;
  o.role_switch_period = 100;
  o.role_switch_width = 20;
  ImbalanceSchedule s(o);
  std::vector<double> p;
  for (uint64_t t = 0; t < 400; ++t) {
    s.PriorsAt(t, &p);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------- concepts
TEST(RbfConceptTest, SchemaAndLabels) {
  RbfConcept::Options o;
  o.num_features = 8;
  o.num_classes = 4;
  RbfConcept c(o, 3);
  EXPECT_EQ(c.schema().num_features, 8);
  EXPECT_EQ(c.schema().num_classes, 4);
  auto counts = CountLabels(&c, 4, 2000, 5);
  for (int cnt : counts) EXPECT_GT(cnt, 0);
}

TEST(RbfConceptTest, ClassConditionalSamplingIsExactClass) {
  RbfConcept::Options o;
  o.num_features = 6;
  o.num_classes = 3;
  RbfConcept c(o, 3);
  Rng rng(7);
  for (int k = 0; k < 3; ++k) {
    auto x = test_util::DrawForClass(c, k, &rng);
    EXPECT_EQ(x.size(), 6u);
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(RbfConceptTest, DifferentSeedsDifferentConcepts) {
  RbfConcept::Options o;
  o.num_features = 6;
  o.num_classes = 3;
  RbfConcept a(o, 1), b(o, 2);
  Rng r1(9), r2(9);
  // Class-conditional means should differ between the two concepts.
  double diff = 0.0;
  for (int i = 0; i < 200; ++i) {
    auto xa = test_util::DrawForClass(a, 0, &r1);
    auto xb = test_util::DrawForClass(b, 0, &r2);
    for (size_t d = 0; d < xa.size(); ++d) diff += std::fabs(xa[d] - xb[d]);
  }
  EXPECT_GT(diff / 200.0, 0.1);
}

TEST(RbfConceptTest, InterpolationMovesBetweenConcepts) {
  RbfConcept::Options o;
  o.num_features = 4;
  o.num_classes = 2;
  RbfConcept a(o, 1), b(o, 2);
  auto mid = a.Interpolate(b, 0.5);
  ASSERT_NE(mid, nullptr);
  auto at_zero = a.Interpolate(b, 0.0);
  auto at_one = a.Interpolate(b, 1.0);
  // Means of class-0 samples: interpolant must lie between endpoints.
  auto mean_of = [](const Concept& c) {
    Rng rng(11);
    std::vector<double> m(4, 0.0);
    for (int i = 0; i < 3000; ++i) {
      auto x = test_util::DrawForClass(c, 0, &rng);
      for (size_t d = 0; d < 4; ++d) m[d] += x[d];
    }
    for (double& v : m) v /= 3000.0;
    return m;
  };
  auto m0 = mean_of(*at_zero), m1 = mean_of(*at_one), mm = mean_of(*mid);
  for (size_t d = 0; d < 4; ++d) {
    double lo = std::min(m0[d], m1[d]) - 0.05;
    double hi = std::max(m0[d], m1[d]) + 0.05;
    EXPECT_GE(mm[d], lo);
    EXPECT_LE(mm[d], hi);
  }
}

TEST(HyperplaneConceptTest, BandsRoughlyBalancedNaturally) {
  HyperplaneConcept::Options o;
  o.num_features = 10;
  o.num_classes = 5;
  HyperplaneConcept c(o, 3);
  auto counts = CountLabels(&c, 5, 5000, 5);
  for (int cnt : counts) {
    EXPECT_GT(cnt, 500);  // Expected 1000 each; quantile bands are coarse.
    EXPECT_LT(cnt, 1600);
  }
}

TEST(HyperplaneConceptTest, InterpolationSupported) {
  HyperplaneConcept::Options o;
  o.num_features = 5;
  o.num_classes = 3;
  HyperplaneConcept a(o, 1), b(o, 2);
  auto mid = a.Interpolate(b, 0.5);
  ASSERT_NE(mid, nullptr);
  const auto* m = dynamic_cast<const HyperplaneConcept*>(mid.get());
  ASSERT_NE(m, nullptr);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(m->weights()[i], 0.5 * (a.weights()[i] + b.weights()[i]),
                1e-12);
  }
}

TEST(AgrawalConceptTest, LabelsCoverAllClassesAndFeaturesBounded) {
  AgrawalConcept::Options o;
  o.num_features = 20;
  o.num_classes = 5;
  o.function_id = 2;
  AgrawalConcept c(o, 3);
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 3000; ++i) {
    Instance inst = test_util::Draw(c, &rng);
    seen.insert(inst.label);
    EXPECT_EQ(inst.features.size(), 20u);
    for (double v : inst.features) {
      EXPECT_GE(v, -0.01);
      EXPECT_LE(v, 1.01);
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(AgrawalConceptTest, FunctionSwitchChangesLabeling) {
  AgrawalConcept::Options o1;
  o1.num_features = 9;
  o1.num_classes = 4;
  o1.function_id = 0;
  auto o2 = o1;
  o2.function_id = 6;
  AgrawalConcept f0(o1, 3), f6(o2, 3);
  // Same RNG stream: both concepts see identical raw attributes, so label
  // disagreement measures how different the concept functions are.
  Rng ra(13), rb(13);
  int disagreements = 0;
  for (int i = 0; i < 2000; ++i) {
    if (test_util::Draw(f0, &ra).label != test_util::Draw(f6, &rb).label) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 400);
}

TEST(AgrawalConceptTest, MinimumNineFeatures) {
  AgrawalConcept::Options o;
  o.num_features = 3;  // Below the attribute count: padded up.
  o.num_classes = 2;
  AgrawalConcept c(o, 3);
  EXPECT_EQ(c.schema().num_features, 9);
}

TEST(RandomTreeConceptTest, AllClassesHaveLeaves) {
  RandomTreeConcept::Options o;
  o.num_features = 10;
  o.num_classes = 8;
  RandomTreeConcept c(o, 3);
  EXPECT_GE(c.num_leaves(), 8u);
  auto counts = CountLabels(&c, 8, 4000, 5);
  for (int cnt : counts) EXPECT_GT(cnt, 0);
}

TEST(RandomTreeConceptTest, ClassConditionalSamplesLandInClassRegion) {
  RandomTreeConcept::Options o;
  o.num_features = 6;
  o.num_classes = 3;
  RandomTreeConcept c(o, 7);
  Rng rng(9);
  // Class-conditional samples are drawn uniformly inside a leaf box of the
  // requested class, so they must stay within [0,1]^d and have full arity.
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 50; ++i) {
      auto x = test_util::DrawForClass(c, k, &rng);
      ASSERT_EQ(x.size(), 6u);
      for (double v : x) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

TEST(SeaConceptTest, VariantChangesRelevantFeatures) {
  SeaConcept::Options o1;
  o1.num_features = 6;
  o1.num_classes = 3;
  o1.variant = 0;
  auto o2 = o1;
  o2.variant = 2;
  SeaConcept a(o1, 3), b(o2, 3);
  Rng ra(13), rb(13);
  int disagreements = 0;
  for (int i = 0; i < 2000; ++i) {
    if (test_util::Draw(a, &ra).label != test_util::Draw(b, &rb).label) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 300);
}

// The ladder cache and the reused output row must not leak one call into
// the next: a schedule asked for positions out of order (the ratio moving
// back and forth, the rotation and the cross-fade changing) writes exactly
// what a fresh schedule writes for each position.
TEST(ImbalanceScheduleTest, CachedLadderMatchesFreshSchedule) {
  ImbalanceSchedule::Options o;
  o.num_classes = 5;
  o.base_ir = 40.0;
  o.dynamic = true;
  o.ir_low = 20.0;
  o.ir_high = 40.0;
  o.ir_period = 200;
  o.role_switch_period = 150;
  o.role_switch_width = 30;
  ImbalanceSchedule reused(o);
  std::vector<double> got(2, 7.0);  // Wrong size and stale values.
  for (uint64_t i = 0; i < 600; ++i) {
    const uint64_t t = (i * 37) % 500;
    for (int repeat = 0; repeat < 2; ++repeat) {  // Second call: cache hit.
      reused.PriorsAt(t, &got);
      ImbalanceSchedule fresh(o);
      std::vector<double> want;
      fresh.PriorsAt(t, &want);
      ASSERT_EQ(got.size(), want.size());
      for (size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
            << "t=" << t << " class " << k;
      }
    }
  }
}

// --------------------------------------------------------- drifting stream
TEST(DriftingClassStreamTest, PriorsRespectImbalance) {
  RbfConcept::Options co;
  co.num_features = 5;
  co.num_classes = 3;
  std::vector<std::unique_ptr<Concept>> cs;
  cs.push_back(std::make_unique<RbfConcept>(co, 1));
  ImbalanceSchedule::Options io;
  io.num_classes = 3;
  io.base_ir = 50.0;
  DriftingClassStream s(std::move(cs), {}, ImbalanceSchedule(io), 7);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[static_cast<size_t>(s.Next().label)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  double ir = static_cast<double>(counts[0]) / std::max(counts[2], 1);
  EXPECT_GT(ir, 20.0);
  EXPECT_LT(ir, 120.0);
}

TEST(DriftingClassStreamTest, SuddenDriftSwitchesConcept) {
  RbfConcept::Options co;
  co.num_features = 4;
  co.num_classes = 2;
  std::vector<std::unique_ptr<Concept>> cs;
  cs.push_back(std::make_unique<RbfConcept>(co, 1));
  cs.push_back(std::make_unique<RbfConcept>(co, 99));
  DriftEvent ev;
  ev.start = 5000;
  ev.type = DriftType::kSudden;
  DriftingClassStream s(std::move(cs), {ev}, ImbalanceSchedule::Uniform(2), 7);

  std::vector<double> mean_before(4, 0.0), mean_after(4, 0.0);
  int nb = 0, na = 0;
  for (int i = 0; i < 10000; ++i) {
    Instance inst = s.Next();
    if (inst.label != 0) continue;
    auto& m = i < 5000 ? mean_before : mean_after;
    for (size_t d = 0; d < 4; ++d) m[d] += inst.features[d];
    (i < 5000 ? nb : na)++;
  }
  double shift = 0.0;
  for (size_t d = 0; d < 4; ++d) {
    shift += std::fabs(mean_before[d] / nb - mean_after[d] / na);
  }
  EXPECT_GT(shift, 0.2);  // Concept moved.
}

TEST(DriftingClassStreamTest, LocalDriftLeavesOtherClassesAlone) {
  RbfConcept::Options co;
  co.num_features = 4;
  co.num_classes = 3;
  std::vector<std::unique_ptr<Concept>> cs;
  cs.push_back(std::make_unique<RbfConcept>(co, 1));
  cs.push_back(std::make_unique<RbfConcept>(co, 99));
  DriftEvent ev;
  ev.start = 5000;
  ev.type = DriftType::kSudden;
  ev.affected = {2};  // Only class 2 drifts.
  DriftingClassStream s(std::move(cs), {ev}, ImbalanceSchedule::Uniform(3), 7);

  std::vector<double> m0b(4, 0), m0a(4, 0), m2b(4, 0), m2a(4, 0);
  int n0b = 0, n0a = 0, n2b = 0, n2a = 0;
  for (int i = 0; i < 10000; ++i) {
    Instance inst = s.Next();
    bool before = i < 5000;
    if (inst.label == 0) {
      auto& m = before ? m0b : m0a;
      for (size_t d = 0; d < 4; ++d) m[d] += inst.features[d];
      (before ? n0b : n0a)++;
    } else if (inst.label == 2) {
      auto& m = before ? m2b : m2a;
      for (size_t d = 0; d < 4; ++d) m[d] += inst.features[d];
      (before ? n2b : n2a)++;
    }
  }
  double shift0 = 0.0, shift2 = 0.0;
  for (size_t d = 0; d < 4; ++d) {
    shift0 += std::fabs(m0b[d] / n0b - m0a[d] / n0a);
    shift2 += std::fabs(m2b[d] / n2b - m2a[d] / n2a);
  }
  EXPECT_LT(shift0, 0.1);  // Unaffected class is stationary.
  EXPECT_GT(shift2, 0.2);  // Affected class moved.
  EXPECT_TRUE(s.ClassDriftActiveAt(5000, 2));
  EXPECT_FALSE(s.ClassDriftActiveAt(5000, 0));
  EXPECT_FALSE(s.ClassDriftActiveAt(100, 2));
}

TEST(DriftingClassStreamTest, LabelNoiseInjectsMislabels) {
  RbfConcept::Options co;
  co.num_features = 3;
  co.num_classes = 2;
  std::vector<std::unique_ptr<Concept>> cs;
  cs.push_back(std::make_unique<RbfConcept>(co, 1));
  DriftingClassStream::Options opt;
  opt.label_noise = 0.5;
  ImbalanceSchedule::Options io;
  io.num_classes = 2;
  io.base_ir = 1000.0;  // Without noise, almost everything is class 0.
  DriftingClassStream s(std::move(cs), {}, ImbalanceSchedule(io), 7, opt);
  int minority = 0;
  for (int i = 0; i < 4000; ++i) {
    if (s.Next().label == 1) ++minority;
  }
  // Noise reassigns ~25% of instances to class 1.
  EXPECT_GT(minority, 600);
}

// ---------------------------------------------------------------- registry
TEST(RegistryTest, Has24SpecsMatchingTable1) {
  const auto& specs = AllStreamSpecs();
  EXPECT_EQ(specs.size(), 24u);
  int real = 0;
  for (const auto& s : specs) real += s.real_world ? 1 : 0;
  EXPECT_EQ(real, 12);
  EXPECT_EQ(ArtificialStreamSpecs().size(), 12u);
}

TEST(RegistryTest, FindByName) {
  const StreamSpec* s = FindStreamSpec("Covertype");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->num_features, 54);
  EXPECT_EQ(s->num_classes, 7);
  EXPECT_NEAR(s->imbalance_ratio, 96.14, 1e-9);
  EXPECT_EQ(FindStreamSpec("DoesNotExist"), nullptr);
}

TEST(RegistryTest, BuildRespectsScaleFloor) {
  const StreamSpec* s = FindStreamSpec("EEG");
  BuildOptions o;
  o.scale = 0.0001;
  BuiltStream b = BuildStream(*s, o);
  EXPECT_GE(b.length, 4000u);
  ASSERT_NE(b.stream, nullptr);
  EXPECT_EQ(b.stream->schema().num_features, 14);
}

// StreamLength is the length BuildStream realizes: full_length x scale,
// floored at 4000 instances.
TEST(RegistryTest, StreamLengthIsTheBuiltLength) {
  BuildOptions o;
  for (double scale : {0.0001, 0.005, 0.01}) {
    o.scale = scale;
    for (const StreamSpec& s : AllStreamSpecs()) {
      SCOPED_TRACE(s.name + " at scale " + std::to_string(scale));
      EXPECT_EQ(StreamLength(s, o), BuildStream(s, o).length);
    }
  }
  o.scale = 0.005;
  EXPECT_EQ(StreamLength(*FindStreamSpec("Aggrawal20"), o), 10000u);
  EXPECT_EQ(StreamLength(*FindStreamSpec("IntelSensors"), o), 11099u);
  EXPECT_EQ(StreamLength(*FindStreamSpec("Gas"), o), 4000u);
}

// A spec or options value out of its domain is refused with an
// std::invalid_argument naming the field, by StreamLength and BuildStream
// alike, before any generator is constructed.
TEST(RegistryTest, UnbuildableStreamsAreRefusedNamingTheField) {
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  struct Case {
    const char* field;
    std::function<void(StreamSpec*, BuildOptions*)> breaks;
  };
  using S = StreamSpec*;
  using O = BuildOptions*;
  const std::vector<Case> cases = {
      {"num_features", [](S s, O) { s->num_features = 0; }},
      {"num_classes", [](S s, O) { s->num_classes = 1; }},
      {"num_classes", [](S s, O) { s->num_classes = -1; }},
      {"imbalance_ratio", [](S s, O) { s->imbalance_ratio = 0.5; }},
      {"imbalance_ratio", [&](S s, O) { s->imbalance_ratio = nan; }},
      {"imbalance_ratio", [&](S s, O) { s->imbalance_ratio = inf; }},
      {"ir_override", [](S, O o) { o->ir_override = 0.5; }},
      {"ir_override", [&](S, O o) { o->ir_override = inf; }},
      {"drift_events", [](S s, O) { s->drift_events = -1; }},
      {"scale", [](S, O o) { o->scale = 0.0; }},
      {"scale", [](S, O o) { o->scale = -0.5; }},
      {"scale", [&](S, O o) { o->scale = nan; }},
      {"scale", [&](S, O o) { o->scale = inf; }},
      {"scale", [](S, O o) { o->scale = 1e30; }},  // Overflows uint64_t.
      {"label_noise", [](S, O o) { o->label_noise = -0.1; }},
      {"label_noise", [](S, O o) { o->label_noise = 1.5; }},
      {"label_noise", [&](S, O o) { o->label_noise = nan; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    StreamSpec spec = *FindStreamSpec("RBF5");
    BuildOptions options;
    options.scale = 0.001;
    c.breaks(&spec, &options);
    for (bool build : {false, true}) {
      try {
        if (build) {
          BuildStream(spec, options);
        } else {
          StreamLength(spec, options);
        }
        ADD_FAILURE() << "expected std::invalid_argument";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << e.what();
      }
    }
  }
  // The bounds themselves are buildable.
  StreamSpec edge = *FindStreamSpec("RBF5");
  edge.num_features = 1;
  edge.num_classes = 2;
  edge.imbalance_ratio = 1.0;
  edge.drift_events = 0;
  BuildOptions options;
  options.scale = 0.001;
  options.label_noise = 1.0;
  EXPECT_EQ(BuildStream(edge, options).length, 4000u);
}

TEST(RegistryTest, DeterministicForSameSeed) {
  const StreamSpec* s = FindStreamSpec("RBF5");
  BuildOptions o;
  o.scale = 0.005;
  o.seed = 99;
  BuiltStream b1 = BuildStream(*s, o);
  BuiltStream b2 = BuildStream(*s, o);
  for (int i = 0; i < 500; ++i) {
    Instance i1 = b1.stream->Next();
    Instance i2 = b2.stream->Next();
    ASSERT_EQ(i1.label, i2.label);
    ASSERT_EQ(i1.features, i2.features);
  }
}

TEST(RegistryTest, LocalDriftOptionRestrictsAffectedClasses) {
  const StreamSpec* s = FindStreamSpec("RBF10");
  BuildOptions o;
  o.scale = 0.005;
  o.local_drift_classes = 2;
  BuiltStream b = BuildStream(*s, o);
  for (const DriftEvent& e : b.stream->events()) {
    ASSERT_EQ(e.affected.size(), 2u);
    // Smallest classes first: 9, then 8.
    EXPECT_EQ(e.affected[0], 9);
    EXPECT_EQ(e.affected[1], 8);
  }
}

TEST(RegistryTest, IrOverrideChangesPriors) {
  const StreamSpec* s = FindStreamSpec("RBF5");
  BuildOptions o;
  o.scale = 0.005;
  o.ir_override = 500.0;
  BuiltStream b = BuildStream(*s, o);
  EXPECT_NEAR(b.stream->imbalance().options().ir_high, 500.0, 1e-9);
}

// Frozen oracle of the generators: tests/golden/generator_streams.txt
// holds, for every registry stream under three seeds (each with its own
// option set, see test_util::GoldenStreams), a hash of the first 2000
// rows that the generators produced before they filled caller-owned rows.
// Every bit of every feature, label and weight must still match, through
// Next() and through NextInto() on a reused row alike.
TEST(GeneratorGoldenTest, StreamsMatchFrozenGenerators) {
  std::vector<std::string> got;
  for (const test_util::GoldenStream& g : test_util::GoldenStreams()) {
    BuiltStream b = BuildStream(g.spec, g.options);
    test_util::RowHash hash;
    Instance row;  // Reused, as the grid's row tape reuses its rows.
    for (size_t i = 0; i < test_util::kGoldenStreamRows; ++i) {
      if (i % 2 == 0) {
        hash.Add(b.stream->Next());
      } else {
        b.stream->NextInto(&row);
        hash.Add(row);
      }
    }
    got.push_back(test_util::GoldenStreamLine(g, hash));
  }
  test_util::ExpectLinesMatchGolden(
      got, test_util::GoldenLines(test_util::GeneratorGoldenPath()),
      "generator_streams.actual.txt");
}

}  // namespace
}  // namespace ccd
