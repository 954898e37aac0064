#include <gtest/gtest.h>

#include <cmath>

#include "stats/distributions.h"
#include "stats/granger.h"
#include "stats/ranking.h"
#include "stats/trend.h"
#include "stats/welford.h"
#include "utils/rng.h"
#include "wilcoxon_oracle.h"

namespace ccd {
namespace {

// ---------------------------------------------------------------- special fn
TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.9750021, 1e-5);
  EXPECT_NEAR(NormalCdf(-1.96), 0.0249979, 1e-5);
}

TEST(DistributionsTest, ChiSquareCdfKnownValues) {
  // Chi2(k=1): P(X <= 3.841) ~ 0.95.
  EXPECT_NEAR(ChiSquareCdf(3.841, 1), 0.95, 1e-3);
  // Chi2(k=5): P(X <= 11.07) ~ 0.95.
  EXPECT_NEAR(ChiSquareCdf(11.07, 5), 0.95, 1e-3);
  EXPECT_DOUBLE_EQ(ChiSquareCdf(0.0, 3), 0.0);
}

TEST(DistributionsTest, FCdfKnownValues) {
  // F(1, 10): 95th percentile ~ 4.965.
  EXPECT_NEAR(FCdf(4.965, 1, 10), 0.95, 2e-3);
  // F(5, 20): 95th percentile ~ 2.711.
  EXPECT_NEAR(FCdf(2.711, 5, 20), 0.95, 2e-3);
}

TEST(DistributionsTest, LogGammaMatchesFactorials) {
  // Gamma(n) = (n-1)!.
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-10);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(DistributionsTest, RegularizedBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double x : {0.1, 0.3, 0.7}) {
    EXPECT_NEAR(RegularizedBeta(2.0, 3.0, x),
                1.0 - RegularizedBeta(3.0, 2.0, 1.0 - x), 1e-10);
  }
}

// ------------------------------------------------------------------- welford
TEST(WelfordTest, MatchesClosedForm) {
  Welford w;
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) w.Add(x);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_NEAR(w.mean(), 5.0, 1e-12);
  EXPECT_NEAR(w.Variance(), 4.0, 1e-12);
  EXPECT_NEAR(w.StdDev(), 2.0, 1e-12);
}

TEST(WelfordTest, ResetClears) {
  Welford w;
  w.Add(1.0);
  w.Add(2.0);
  w.Reset();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(HoeffdingBoundTest, ShrinksWithN) {
  double e10 = HoeffdingBound(1.0, 0.05, 10);
  double e1000 = HoeffdingBound(1.0, 0.05, 1000);
  EXPECT_GT(e10, e1000);
  EXPECT_NEAR(e1000, std::sqrt(std::log(20.0) / 2000.0), 1e-12);
}

// --------------------------------------------------------------------- trend
TEST(SlidingTrendTest, ExactSlopeOnLine) {
  SlidingTrend trend(100);
  for (int t = 1; t <= 50; ++t) trend.Push(2.0 + 0.5 * t);
  EXPECT_NEAR(trend.Slope(), 0.5, 1e-9);
}

TEST(SlidingTrendTest, ZeroSlopeOnConstant) {
  SlidingTrend trend(32);
  for (int t = 0; t < 64; ++t) trend.Push(3.14);
  EXPECT_NEAR(trend.Slope(), 0.0, 1e-9);
  EXPECT_NEAR(trend.Mean(), 3.14, 1e-12);
}

TEST(SlidingTrendTest, WindowEvictionTracksRecentSlope) {
  SlidingTrend trend(10);
  // First a decreasing phase, then an increasing one; with W=10 only the
  // increasing tail should drive the slope.
  for (int t = 0; t < 50; ++t) trend.Push(100.0 - t);
  for (int t = 0; t < 20; ++t) trend.Push(50.0 + 2.0 * t);
  EXPECT_NEAR(trend.Slope(), 2.0, 1e-6);
  EXPECT_EQ(trend.size(), 10u);
}

TEST(SlidingTrendTest, ShrinkWindowEvictsImmediately) {
  SlidingTrend trend(20);
  for (int t = 0; t < 20; ++t) trend.Push(t);
  trend.set_window(5);
  EXPECT_EQ(trend.size(), 5u);
  EXPECT_NEAR(trend.Slope(), 1.0, 1e-9);
}

// ------------------------------------------------------------------ wilcoxon
// The pooled-sort rank-sum test lives on as WSTD's oracle
// (wilcoxon_oracle.h); these cases pin the oracle itself.
using oracle::RankTestResult;
using oracle::WilcoxonRankSum;

TEST(WilcoxonRankSumTest, IdenticalSamplesNotSignificant) {
  std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8};
  RankTestResult r = WilcoxonRankSum(a, a);
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.p_value, 0.9);
}

TEST(WilcoxonRankSumTest, ShiftedSamplesSignificant) {
  Rng rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 60; ++i) {
    a.push_back(rng.Gaussian(0.0, 1.0));
    b.push_back(rng.Gaussian(2.0, 1.0));
  }
  RankTestResult r = WilcoxonRankSum(a, b);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(r.p_value, 1e-4);
}

TEST(WilcoxonRankSumTest, TooSmallSamplesInvalid) {
  EXPECT_FALSE(WilcoxonRankSum({1.0}, {2.0, 3.0}).valid);
}

// ------------------------------------------------------------------- granger
TEST(GrangerTest, DetectsCausalLink) {
  // y_t = 0.9 * x_{t-1} + small noise: x Granger-causes y.
  Rng rng(7);
  std::vector<double> x, y;
  x.push_back(rng.Gaussian());
  y.push_back(0.0);
  for (int t = 1; t < 200; ++t) {
    x.push_back(rng.Gaussian());
    y.push_back(0.9 * x[static_cast<size_t>(t - 1)] +
                rng.Gaussian(0.0, 0.05));
  }
  GrangerResult g = GrangerCausality(x, y, 1, 0.05);
  ASSERT_TRUE(g.valid);
  EXPECT_TRUE(g.causality_rejected);  // Null of no-causality rejected.
  EXPECT_LT(g.p_value, 1e-6);
}

TEST(GrangerTest, IndependentSeriesNoCausality) {
  Rng rng(9);
  int rejections = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> x, y;
    for (int t = 0; t < 120; ++t) {
      x.push_back(rng.Gaussian());
      y.push_back(rng.Gaussian());
    }
    GrangerResult g = GrangerCausality(x, y, 1, 0.05);
    ASSERT_TRUE(g.valid);
    if (g.causality_rejected) ++rejections;
  }
  // Should reject near the nominal 5% rate; allow generous slack.
  EXPECT_LE(rejections, trials / 4);
}

TEST(GrangerTest, TooShortSeriesInvalid) {
  EXPECT_FALSE(GrangerCausality({1, 2}, {1, 2}, 1, 0.05).valid);
}

TEST(GrangerTest, FirstDiffHandlesTrendingSeries) {
  // A deterministic shared linear trend is removed by differencing; the
  // differenced series are constants -> perfect fit path must not blow up.
  std::vector<double> x, y;
  for (int t = 0; t < 60; ++t) {
    x.push_back(2.0 * t);
    y.push_back(3.0 * t);
  }
  GrangerResult g = GrangerCausalityFirstDiff(x, y, 1, 0.05);
  // Degenerate constant series: either invalid or a definite answer, but
  // never NaN.
  if (g.valid) {
    EXPECT_FALSE(std::isnan(g.p_value));
  }
}

// ------------------------------------------------------------------- ranking
TEST(FriedmanTest, PerfectOrderingRanks) {
  // Algorithm 2 always best, then 1, then 0.
  std::vector<std::vector<double>> scores;
  for (int d = 0; d < 10; ++d) {
    scores.push_back({0.5, 0.7, 0.9});
  }
  FriedmanResult r = FriedmanTest(scores, /*higher_is_better=*/true);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.average_ranks[2], 1.0, 1e-12);
  EXPECT_NEAR(r.average_ranks[1], 2.0, 1e-12);
  EXPECT_NEAR(r.average_ranks[0], 3.0, 1e-12);
  EXPECT_LT(r.p_value, 0.01);
  EXPECT_GT(r.critical_difference, 0.0);
}

TEST(FriedmanTest, TiesGetMidranks) {
  std::vector<std::vector<double>> scores = {{0.5, 0.5, 0.9}};
  FriedmanResult r = FriedmanTest(scores, true);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.average_ranks[0], 2.5, 1e-12);
  EXPECT_NEAR(r.average_ranks[1], 2.5, 1e-12);
  EXPECT_NEAR(r.average_ranks[2], 1.0, 1e-12);
}

TEST(FriedmanTest, RenderDiagramMentionsBest) {
  std::vector<std::vector<double>> scores;
  for (int d = 0; d < 6; ++d) scores.push_back({0.2, 0.9});
  FriedmanResult r = FriedmanTest(scores, true);
  std::string diagram = RenderCriticalDifferenceDiagram({"weak", "strong"}, r);
  EXPECT_NE(diagram.find("strong"), std::string::npos);
  EXPECT_NE(diagram.find("(best)"), std::string::npos);
}

TEST(BayesianSignedTest, ClearWinnerGetsMass) {
  std::vector<double> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(0.9);
    b.push_back(0.5);
  }
  BayesianSignedResult r = BayesianSignedTest(a, b, 0.01, 5000, 3);
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.p_left, 0.95);
  EXPECT_LT(r.p_right, 0.01);
}

TEST(BayesianSignedTest, EquivalentAlgorithmsLandInRope) {
  std::vector<double> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(0.80 + 0.001 * (i % 3));
    b.push_back(0.80);
  }
  BayesianSignedResult r = BayesianSignedTest(a, b, 0.01, 5000, 3);
  ASSERT_TRUE(r.valid);
  EXPECT_GT(r.p_rope, 0.9);
}

}  // namespace
}  // namespace ccd
