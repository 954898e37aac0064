#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "classifiers/naive_bayes.h"
#include "detectors/ddm.h"
#include "eval/confusion.h"
#include "eval/metrics.h"
#include "eval/prequential.h"
#include "generators/drifting_stream.h"
#include "generators/rbf.h"
#include "testing_util.h"
#include "utils/rng.h"

namespace ccd {
namespace {

// --------------------------------------------------------------- confusion
TEST(ConfusionMatrixTest, AccuracyRecallKappa) {
  ConfusionMatrix cm(2);
  // 40 TP0, 10 0->1, 5 1->0, 45 TP1.
  for (int i = 0; i < 40; ++i) cm.Add(0, 0);
  for (int i = 0; i < 10; ++i) cm.Add(0, 1);
  for (int i = 0; i < 5; ++i) cm.Add(1, 0);
  for (int i = 0; i < 45; ++i) cm.Add(1, 1);
  EXPECT_NEAR(cm.Accuracy(), 0.85, 1e-12);
  EXPECT_NEAR(cm.Recall(0), 0.8, 1e-12);
  EXPECT_NEAR(cm.Recall(1), 0.9, 1e-12);
  EXPECT_NEAR(cm.GMean(), std::sqrt(0.8 * 0.9), 1e-12);
  // Kappa: po=0.85, pe=0.5*0.45+0.5*0.55=0.5 -> (0.85-0.5)/0.5=0.7.
  EXPECT_NEAR(cm.Kappa(), 0.7, 1e-12);
}

TEST(ConfusionMatrixTest, RemoveSupportsSlidingWindows) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(1, 0);
  cm.Remove(1, 0);
  EXPECT_NEAR(cm.Accuracy(), 1.0, 1e-12);
  EXPECT_NEAR(cm.total(), 1.0, 1e-12);
}

TEST(ConfusionMatrixTest, GMeanZeroWhenClassFullyMissed) {
  ConfusionMatrix cm(2);
  for (int i = 0; i < 10; ++i) cm.Add(0, 0);
  for (int i = 0; i < 10; ++i) cm.Add(1, 0);  // Class 1 never predicted.
  EXPECT_DOUBLE_EQ(cm.GMean(), 0.0);
}

TEST(ConfusionMatrixTest, GMeanIgnoresAbsentClasses) {
  ConfusionMatrix cm(3);
  for (int i = 0; i < 10; ++i) cm.Add(0, 0);
  for (int i = 0; i < 10; ++i) cm.Add(1, 1);
  // Class 2 never appears in the window: ignored, not zeroed.
  EXPECT_NEAR(cm.GMean(), 1.0, 1e-12);
}

TEST(ConfusionMatrixTest, SmoothedGMeanStaysInformative) {
  ConfusionMatrix cm(3);
  for (int i = 0; i < 100; ++i) cm.Add(0, 0);
  for (int i = 0; i < 100; ++i) cm.Add(1, 1);
  cm.Add(2, 0);  // One missed rare-class instance: raw G-mean collapses.
  EXPECT_DOUBLE_EQ(cm.GMean(), 0.0);
  EXPECT_GT(cm.GMeanSmoothed(), 0.4);
  EXPECT_LT(cm.GMeanSmoothed(), 1.0);
}

// ------------------------------------------------------------------- AUC
TEST(BinaryAucTest, PerfectSeparation) {
  EXPECT_NEAR(BinaryAuc({0.9, 0.8, 0.7}, {0.3, 0.2, 0.1}), 1.0, 1e-12);
}

TEST(BinaryAucTest, RandomScoresGiveHalf) {
  Rng rng(3);
  std::vector<double> pos, neg;
  for (int i = 0; i < 3000; ++i) {
    pos.push_back(rng.NextDouble());
    neg.push_back(rng.NextDouble());
  }
  EXPECT_NEAR(BinaryAuc(pos, neg), 0.5, 0.03);
}

TEST(BinaryAucTest, TiesGetMidrankCredit) {
  // All scores equal: AUC must be exactly 0.5.
  EXPECT_NEAR(BinaryAuc({0.5, 0.5}, {0.5, 0.5}), 0.5, 1e-12);
}

TEST(BinaryAucTest, EmptySideReturnsHalf) {
  EXPECT_DOUBLE_EQ(BinaryAuc({}, {0.1}), 0.5);
  EXPECT_DOUBLE_EQ(BinaryAuc({0.9}, {}), 0.5);
}

// ---------------------------------------------------------- windowed metrics
TEST(WindowedMetricsTest, PmAucPerfectScorer) {
  WindowedMetrics m(3, 1000);
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    int y = rng.UniformInt(0, 2);
    std::vector<double> scores(3, 0.05);
    scores[static_cast<size_t>(y)] = 0.9;
    m.Add(y, y, scores);
  }
  EXPECT_NEAR(m.PmAuc(), 1.0, 1e-9);
  EXPECT_NEAR(m.PmGMean(), 1.0, 0.02);  // Laplace smoothing: slightly < 1.
}

TEST(WindowedMetricsTest, PmAucRandomScorerNearHalf) {
  WindowedMetrics m(4, 2000);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    int y = rng.UniformInt(0, 3);
    std::vector<double> scores = {rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble(), rng.NextDouble()};
    double total = scores[0] + scores[1] + scores[2] + scores[3];
    for (double& s : scores) s /= total;
    int pred = rng.UniformInt(0, 3);
    m.Add(y, pred, scores);
  }
  EXPECT_NEAR(m.PmAuc(), 0.5, 0.05);
}

TEST(WindowedMetricsTest, WindowEviction) {
  WindowedMetrics m(2, 100);
  // First 100: all wrong; next 100: all right. Window holds only the good.
  for (int i = 0; i < 100; ++i) m.Add(0, 1, {0.1, 0.9});
  for (int i = 0; i < 100; ++i) m.Add(0, 0, {0.9, 0.1});
  EXPECT_EQ(m.size(), 100u);
  EXPECT_NEAR(m.Accuracy(), 1.0, 1e-12);
}

TEST(WindowedMetricsTest, ShortOrEmptyScoreVectorsAreMissingSupport) {
  // Regression: PmAuc used to index scores[class] unguarded, so a
  // classifier returning fewer than num_classes scores (or none at all)
  // read out of bounds. Missing support must count as zero.
  WindowedMetrics m(3, 100);
  for (int i = 0; i < 10; ++i) {
    m.Add(0, 0, {0.9});              // Support for class 0 only.
    m.Add(1, 1, {});                 // No scores at all.
    m.Add(2, 2, {0.1, 0.2, 0.7});    // Full-width scores.
  }
  double v = m.PmAuc();
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
  // Pair (0,1): class-0 entries score 0.9 vs 0 -> ratio 1; class-1
  // entries have no support on either side -> ratio 0.5. Perfect order.
  WindowedMetrics pair01(2, 100);
  for (int i = 0; i < 5; ++i) {
    pair01.Add(0, 0, {0.9});
    pair01.Add(1, 1, {});
  }
  EXPECT_NEAR(pair01.PmAuc(), 1.0, 1e-12);
}

TEST(WindowedMetricsTest, PmAucSkipsAbsentClassPairs) {
  WindowedMetrics m(5, 100);
  // Only classes 0 and 1 appear: the metric is the single pairwise AUC.
  for (int i = 0; i < 50; ++i) {
    m.Add(0, 0, {0.8, 0.05, 0.05, 0.05, 0.05});
    m.Add(1, 1, {0.05, 0.8, 0.05, 0.05, 0.05});
  }
  EXPECT_NEAR(m.PmAuc(), 1.0, 1e-9);
}

// ------------------------------------------- windowed-metrics differential
//
// The production WindowedMetrics keeps its scores in a flat ring, packs
// each class column-major once per tick and counts each pair's
// Mann-Whitney U against the sorted smaller side. The two classes below
// are the executable spec it must match bit for bit: the pooled-sort
// midrank AUC kernel, frozen verbatim, and a deque implementation that
// pushes then evicts and re-buckets the whole window on every PmAuc()
// call, gathering each pair's ratios in insertion order as the
// pre-rewrite ring did.

/// The pooled-sort rank-sum AUC, verbatim: pool, sort, midrank;
/// AUC = (rank_sum_pos - n_pos(n_pos+1)/2) / (n_pos*n_neg).
double OracleBinaryAuc(const std::vector<double>& positive_scores,
                       const std::vector<double>& negative_scores) {
  if (positive_scores.empty() || negative_scores.empty()) return 0.5;
  std::vector<std::pair<double, int>> pool;
  pool.reserve(positive_scores.size() + negative_scores.size());
  for (double s : positive_scores) pool.emplace_back(s, 1);
  for (double s : negative_scores) pool.emplace_back(s, 0);
  std::sort(pool.begin(), pool.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double rank_sum_pos = 0.0;
  size_t i = 0;
  while (i < pool.size()) {
    size_t j = i;
    while (j + 1 < pool.size() && pool[j + 1].first == pool[i].first) ++j;
    double midrank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t m = i; m <= j; ++m) {
      if (pool[m].second == 1) rank_sum_pos += midrank;
    }
    i = j + 1;
  }
  double np = static_cast<double>(positive_scores.size());
  double nn = static_cast<double>(negative_scores.size());
  return (rank_sum_pos - np * (np + 1.0) / 2.0) / (np * nn);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class DequeWindowedMetricsOracle {
 public:
  DequeWindowedMetricsOracle(int num_classes, int window)
      : num_classes_(num_classes), window_(window), confusion_(num_classes) {}

  void Add(int truth, int predicted, const std::vector<double>& scores) {
    entries_.push_back({truth, predicted, scores});
    confusion_.Add(truth, predicted);
    if (static_cast<int>(entries_.size()) > window_) {
      const WindowedMetrics::Entry& old = entries_.front();
      confusion_.Remove(old.truth, old.predicted);
      entries_.pop_front();
    }
  }

  double PmAuc() const {
    std::vector<std::vector<const WindowedMetrics::Entry*>> by_class(
        static_cast<size_t>(num_classes_));
    for (const WindowedMetrics::Entry& e : entries_) {
      if (e.truth >= 0 && e.truth < num_classes_) {
        by_class[static_cast<size_t>(e.truth)].push_back(&e);
      }
    }
    double auc_sum = 0.0;
    int pairs = 0;
    for (int i = 0; i < num_classes_; ++i) {
      if (by_class[static_cast<size_t>(i)].empty()) continue;
      for (int j = i + 1; j < num_classes_; ++j) {
        if (by_class[static_cast<size_t>(j)].empty()) continue;
        std::vector<double> pos, neg;
        auto support = [](const WindowedMetrics::Entry* e, int c) {
          return static_cast<size_t>(c) < e->scores.size()
                     ? e->scores[static_cast<size_t>(c)]
                     : 0.0;
        };
        auto score_ratio = [&](const WindowedMetrics::Entry* e) {
          double si = support(e, i);
          double sj = support(e, j);
          double denom = si + sj;
          return denom > 0.0 ? si / denom : 0.5;
        };
        for (const WindowedMetrics::Entry* e :
             by_class[static_cast<size_t>(i)]) {
          pos.push_back(score_ratio(e));
        }
        for (const WindowedMetrics::Entry* e :
             by_class[static_cast<size_t>(j)]) {
          neg.push_back(score_ratio(e));
        }
        auc_sum += OracleBinaryAuc(pos, neg);
        ++pairs;
      }
    }
    return pairs > 0 ? auc_sum / pairs : 0.5;
  }

  double PmGMean() const { return confusion_.GMeanSmoothed(); }
  double Accuracy() const { return confusion_.Accuracy(); }
  double Kappa() const { return confusion_.Kappa(); }

  std::vector<WindowedMetrics::Entry> Window() const {
    return {entries_.begin(), entries_.end()};
  }

 private:
  int num_classes_;
  int window_;
  std::deque<WindowedMetrics::Entry> entries_;
  ConfusionMatrix confusion_;
};

/// Drives the ring implementation and the deque oracle with an identical
/// outcome sequence from a real classifier on a real drifting stream,
/// comparing every metric (and periodically the full window contents)
/// for exact equality at every step.
void RunMetricsDifferential(int num_classes, int window, uint64_t seed,
                            int steps) {
  auto stream = test_util::MakeRbfDriftStream(
      static_cast<uint64_t>(steps) / 2, seed);
  GaussianNaiveBayes classifier(stream->schema());
  WindowedMetrics ring(num_classes, window);
  DequeWindowedMetricsOracle oracle(num_classes, window);
  Rng rng(seed ^ 0xabcd);
  std::vector<double> scores;
  for (int i = 0; i < steps; ++i) {
    Instance x = stream->Next();
    classifier.PredictScoresInto(x, scores);
    int predicted = 0;
    for (size_t c = 1; c < scores.size(); ++c) {
      if (scores[c] > scores[predicted]) predicted = static_cast<int>(c);
    }
    classifier.Train(x);
    // Adversarial inputs ride along: occasional short/empty score vectors
    // (a classifier scoring only seen classes) and out-of-range labels.
    std::vector<double> pushed = scores;
    if (i % 17 == 0) pushed.resize(pushed.size() / 2);
    if (i % 31 == 0) pushed.clear();
    int truth = (i % 41 == 0) ? -1 : x.label;
    ring.Add(truth, predicted, pushed);
    oracle.Add(truth, predicted, pushed);

    ASSERT_EQ(ring.Accuracy(), oracle.Accuracy()) << "step " << i;
    ASSERT_EQ(ring.Kappa(), oracle.Kappa()) << "step " << i;
    ASSERT_EQ(ring.PmGMean(), oracle.PmGMean()) << "step " << i;
    if (i % 50 == 0 || i + 1 == steps) {
      ASSERT_EQ(ring.PmAuc(), oracle.PmAuc()) << "step " << i;
      std::vector<WindowedMetrics::Entry> ring_window;
      ring.CopyWindow(&ring_window);
      ASSERT_EQ(ring_window, oracle.Window()) << "step " << i;
    }
  }
}

TEST(WindowedMetricsDifferentialTest, MatchesDequeOracleAcrossGrid) {
  // The suite-grid shape: window sizes from degenerate to larger than the
  // run, crossed with seeds. The stream is 3-class / 10:1 imbalanced, so
  // minority-class buckets stay small and eviction crosses class buckets.
  for (int window : {1, 7, 64, 256, 5000}) {
    for (uint64_t seed : {11ull, 29ull}) {
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " seed=" + std::to_string(seed));
      RunMetricsDifferential(3, window, seed, 600);
    }
  }
}

TEST(WindowedMetricsDifferentialTest, DegenerateZeroWindowMatchesOracle) {
  // window=0: the ring keeps nothing; the oracle pushes then immediately
  // evicts. Confusion-derived metrics must agree (all zero-ish), and
  // PmAuc falls back to 0.5 on both.
  WindowedMetrics ring(3, 0);
  DequeWindowedMetricsOracle oracle(3, 0);
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    int truth = rng.UniformInt(0, 2);
    int predicted = rng.UniformInt(0, 2);
    std::vector<double> scores = {rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble()};
    ring.Add(truth, predicted, scores);
    oracle.Add(truth, predicted, scores);
    ASSERT_EQ(ring.Accuracy(), oracle.Accuracy()) << "step " << i;
    ASSERT_EQ(ring.PmAuc(), oracle.PmAuc()) << "step " << i;
    ASSERT_EQ(ring.size(), 0u);
  }
}

/// Tie-heavy adversarial outcomes at K classes: scores are mostly quarter
/// steps (so ratios collide) with some continuous ones and signed zeros,
/// class frequencies are skewed (many tiny minority buckets at large K),
/// and short, empty and over-wide score vectors and out-of-range truths
/// ride along. PmAuc must equal the oracle's bits every 50 steps, and the
/// window must copy back exactly the vectors pushed.
void RunPmAucSweep(int num_classes, int window, uint64_t seed, int steps) {
  WindowedMetrics ring(num_classes, window);
  DequeWindowedMetricsOracle oracle(num_classes, window);
  Rng rng(seed);
  std::vector<double> scores;
  for (int i = 0; i < steps; ++i) {
    const double u = rng.NextDouble();
    int truth = static_cast<int>(u * u * num_classes);
    if (i % 37 == 0) truth = -1;
    if (i % 53 == 0) truth = num_classes;
    size_t width = static_cast<size_t>(num_classes);
    if (i % 11 == 0) width /= 2;
    if (i % 19 == 0) width = 0;
    if (i % 29 == 0) width += 2;
    scores.resize(width);
    for (double& v : scores) {
      v = rng.UniformInt(0, 9) == 0 ? rng.NextDouble()
                                     : rng.UniformInt(0, 4) / 4.0;
      if (v == 0.0 && rng.UniformInt(0, 1) == 0) v = -0.0;
    }
    const int predicted = rng.UniformInt(0, num_classes - 1);
    ring.Add(truth, predicted, scores);
    oracle.Add(truth, predicted, scores);
    if (i % 50 == 0 || i + 1 == steps) {
      const double got = ring.PmAuc();
      const double want = oracle.PmAuc();
      ASSERT_TRUE(SameBits(got, want))
          << "step " << i << ": " << got << " vs " << want;
      std::vector<WindowedMetrics::Entry> ring_window;
      ring.CopyWindow(&ring_window);
      ASSERT_EQ(ring_window, oracle.Window()) << "step " << i;
    }
  }
}

TEST(WindowedMetricsDifferentialTest, PmAucMatchesOracleAtGridClassCounts) {
  // K = 2 and 5 are the small grid streams, 20 the large synthetic ones
  // and 57 IntelSensors; windows from degenerate to the paper's W.
  for (int num_classes : {2, 5, 20, 57}) {
    for (int window : {1, 7, 64, 1000}) {
      SCOPED_TRACE("classes=" + std::to_string(num_classes) +
                   " window=" + std::to_string(window));
      RunPmAucSweep(num_classes, window,
                    static_cast<uint64_t>(num_classes * 7919 + window),
                    window == 1000 ? 1600 : 400);
    }
  }
}

TEST(BinaryAucDifferentialTest, EverySideSizeMatchesOracleBits) {
  // Large sides 0-17 cover the 8-lane lockstep count and its tail; small
  // sides 0-9 the sorted side. Both orientations, tie-heavy alphabets.
  Rng rng(2718);
  for (size_t large = 0; large <= 17; ++large) {
    for (size_t small = 0; small <= 9; ++small) {
      for (int rep = 0; rep < 24; ++rep) {
        const int alphabet = rep % 6;  // 0: continuous scores.
        auto draw = [&] {
          if (alphabet == 0) return rng.NextDouble();
          const double v = rng.UniformInt(0, alphabet) /
                           static_cast<double>(alphabet);
          return v == 0.0 && rng.UniformInt(0, 1) == 0 ? -0.0 : v;
        };
        std::vector<double> a(large), b(small);
        for (double& v : a) v = draw();
        for (double& v : b) v = draw();
        ASSERT_TRUE(SameBits(BinaryAuc(a, b), OracleBinaryAuc(a, b)))
            << "pos=" << large << " neg=" << small << " rep=" << rep;
        ASSERT_TRUE(SameBits(BinaryAuc(b, a), OracleBinaryAuc(b, a)))
            << "pos=" << small << " neg=" << large << " rep=" << rep;
      }
    }
  }
}

// --------------------------------------------------------------- prequential
using test_util::CountingStubClassifier;
using test_util::ScorelessClassifier;

std::unique_ptr<DriftingClassStream> MakeDriftStream(uint64_t drift_at,
                                                     uint64_t seed) {
  return test_util::MakeRbfDriftStream(drift_at, seed);
}

/// Scripted detector that fires at a fixed Observe() count and *latches*:
/// the drift flag stays raised until the harness reads state(). Models
/// consumer-cleared detectors, which the warmup branch used to starve —
/// the warmup alarm then leaked into the first measured instance.
class LatchingScriptedDetector : public DriftDetector {
 public:
  explicit LatchingScriptedDetector(uint64_t fire_at) : fire_at_(fire_at) {}
  void Observe(const Instance&, int, const std::vector<double>&) override {
    if (++observed_ == fire_at_) latched_ = true;
  }
  DetectorState state() const override {
    if (latched_) {
      latched_ = false;  // Consume-on-read.
      return DetectorState::kDrift;
    }
    return DetectorState::kStable;
  }
  void Reset() override { latched_ = false; }
  std::string name() const override { return "latching-scripted"; }

 private:
  uint64_t fire_at_;
  uint64_t observed_ = 0;
  mutable bool latched_ = false;
};

TEST(PrequentialTest, ProducesSaneMetricsWithoutDetector) {
  auto stream = MakeDriftStream(1 << 30, 7);  // Effectively no drift.
  GaussianNaiveBayes clf(stream->schema());
  PrequentialConfig cfg;
  cfg.max_instances = 8000;
  cfg.warmup = 200;
  PrequentialResult r = RunPrequential(stream.get(), &clf, nullptr, cfg);
  EXPECT_EQ(r.instances, 8000u);
  EXPECT_GT(r.mean_pmauc, 0.8);  // RBF concepts are learnable.
  EXPECT_GT(r.mean_pmgm, 0.5);
  EXPECT_EQ(r.drifts, 0u);
  EXPECT_FALSE(r.pmauc_series.empty());
}

TEST(PrequentialTest, DetectorResetAidsRecovery) {
  // With a real drift, resetting on detection should not hurt and the
  // detector should record drift positions after the true change point.
  auto s1 = MakeDriftStream(5000, 7);
  auto s2 = MakeDriftStream(5000, 7);
  GaussianNaiveBayes c1(s1->schema()), c2(s2->schema());
  Ddm ddm;
  PrequentialConfig cfg;
  cfg.max_instances = 10000;
  cfg.warmup = 200;
  PrequentialResult with_det = RunPrequential(s1.get(), &c1, &ddm, cfg);
  PrequentialResult without = RunPrequential(s2.get(), &c2, nullptr, cfg);
  EXPECT_EQ(without.drifts, 0u);
  // DDM on a real jump: at least one detection lands after the true change
  // point (early spurious alarms from young statistics are tolerated).
  if (with_det.drifts > 0) {
    bool any_after = false;
    for (uint64_t pos : with_det.drift_positions) any_after |= pos >= 4500;
    EXPECT_TRUE(any_after);
  }
  // Resetting on detection must not wreck the pipeline.
  EXPECT_GT(with_det.mean_pmauc, without.mean_pmauc - 0.15);
}

TEST(PrequentialTest, WarmupExcludedFromMetrics) {
  auto stream = MakeDriftStream(1 << 30, 9);
  GaussianNaiveBayes clf(stream->schema());
  PrequentialConfig cfg;
  cfg.max_instances = 3000;
  cfg.warmup = 2900;
  cfg.eval_interval = 10;
  PrequentialResult r = RunPrequential(stream.get(), &clf, nullptr, cfg);
  // Only ~100 post-warmup instances: few samples, all sane.
  for (const auto& [pos, v] : r.pmauc_series) {
    EXPECT_GE(pos, 2900u);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(PrequentialTest, TimingAccumulates) {
  auto stream = MakeDriftStream(1 << 30, 11);
  GaussianNaiveBayes clf(stream->schema());
  Ddm ddm;
  PrequentialConfig cfg;
  cfg.max_instances = 3000;
  cfg.timing = true;
  PrequentialResult r = RunPrequential(stream.get(), &clf, &ddm, cfg);
  EXPECT_GT(r.classifier_seconds, 0.0);
  EXPECT_GT(r.detector_seconds, 0.0);
}

TEST(PrequentialTest, RejectsDegenerateConfig) {
  // Regression: eval_interval <= 0 was a literal division by zero and
  // metric_window <= 0 degenerated the metric window — both now fail fast.
  auto stream = MakeDriftStream(1 << 30, 5);
  GaussianNaiveBayes clf(stream->schema());
  PrequentialConfig bad;
  bad.eval_interval = 0;
  EXPECT_THROW(RunPrequential(stream.get(), &clf, nullptr, bad),
               std::invalid_argument);
  bad = PrequentialConfig{};
  bad.metric_window = -5;
  EXPECT_THROW(RunPrequential(stream.get(), &clf, nullptr, bad),
               std::invalid_argument);
  EXPECT_NO_THROW(ValidatePrequentialConfig(PrequentialConfig{}));
}

TEST(PrequentialTest, SurvivesEmptyScoreVectors) {
  // Regression companion to the PmAuc guard: a classifier returning no
  // scores must flow through argmax, windowed metrics and sampling
  // without reading out of bounds. All ratios tie -> pmAUC 0.5.
  auto stream = MakeDriftStream(1 << 30, 17);
  ScorelessClassifier clf(stream->schema());
  PrequentialConfig cfg;
  cfg.max_instances = 2000;
  cfg.warmup = 100;
  cfg.eval_interval = 100;
  cfg.metric_window = 500;
  PrequentialResult r = RunPrequential(stream.get(), &clf, nullptr, cfg);
  EXPECT_EQ(r.instances, 2000u);
  EXPECT_NEAR(r.mean_pmauc, 0.5, 1e-9);
}

TEST(PrequentialTest, WarmupDriftIsConsumedNotReplayed) {
  // Regression: a drift signaled during the warmup prefix must be
  // consumed there — not carried into the first measured instance, where
  // it would count as a detection and spuriously reset the classifier.
  auto stream = MakeDriftStream(1 << 30, 21);
  CountingStubClassifier clf(stream->schema());
  LatchingScriptedDetector det(/*fire_at=*/300);  // Inside warmup (500).
  PrequentialConfig cfg;
  cfg.max_instances = 2000;
  cfg.warmup = 500;
  PrequentialResult r = RunPrequential(stream.get(), &clf, &det, cfg);
  EXPECT_EQ(r.drifts, 0u);
  EXPECT_TRUE(r.drift_positions.empty());
  EXPECT_EQ(clf.resets, 0);
}

TEST(PrequentialTest, PostWarmupScriptedDriftStillCounts) {
  // The same latching detector firing after warmup must be seen exactly
  // once and drive exactly one reset — the consumption fix must not eat
  // genuine signals.
  auto stream = MakeDriftStream(1 << 30, 21);
  CountingStubClassifier clf(stream->schema());
  LatchingScriptedDetector det(/*fire_at=*/600);
  PrequentialConfig cfg;
  cfg.max_instances = 2000;
  cfg.warmup = 500;
  PrequentialResult r = RunPrequential(stream.get(), &clf, &det, cfg);
  EXPECT_EQ(r.drifts, 1u);
  ASSERT_EQ(r.drift_positions.size(), 1u);
  EXPECT_EQ(r.drift_positions[0], 599u);  // The 600th Observe() call.
  EXPECT_EQ(clf.resets, 1);
}

/// Detector that always blames a fixed class set, to check the harness
/// surfaces local-drift explanations instead of dropping them.
class BlamingDetector : public DriftDetector {
 public:
  void Observe(const Instance&, int, const std::vector<double>&) override {
    ++observed_;
  }
  DetectorState state() const override {
    return observed_ == 700 ? DetectorState::kDrift : DetectorState::kStable;
  }
  void Reset() override {}
  std::string name() const override { return "blaming"; }
  std::vector<int> drifted_classes() const override { return {2}; }

 private:
  uint64_t observed_ = 0;
};

TEST(PrequentialTest, DriftEventsCarryLocalDriftInformation) {
  // Satellite regression: detectors compute drifted_classes() but the old
  // harness kept only positions. The result must now carry both.
  auto stream = MakeDriftStream(1 << 30, 25);
  CountingStubClassifier clf(stream->schema());
  BlamingDetector det;
  PrequentialConfig cfg;
  cfg.max_instances = 2000;
  cfg.warmup = 500;
  PrequentialResult r = RunPrequential(stream.get(), &clf, &det, cfg);
  ASSERT_EQ(r.drift_events.size(), r.drift_positions.size());
  ASSERT_EQ(r.drift_events.size(), 1u);
  EXPECT_EQ(r.drift_events[0].position, r.drift_positions[0]);
  EXPECT_EQ(r.drift_events[0].drifted_classes, std::vector<int>{2});
}

TEST(PrequentialTest, CountsRealizedClassDistribution) {
  auto stream = MakeDriftStream(1 << 30, 23);
  GaussianNaiveBayes clf(stream->schema());
  PrequentialConfig cfg;
  cfg.max_instances = 3000;
  cfg.warmup = 200;
  PrequentialResult r = RunPrequential(stream.get(), &clf, nullptr, cfg);
  ASSERT_EQ(r.class_counts.size(), 3u);
  uint64_t total = 0;
  for (uint64_t c : r.class_counts) total += c;
  EXPECT_EQ(total, 3000u);  // Every instance (warmup included) is counted.
}

}  // namespace
}  // namespace ccd
