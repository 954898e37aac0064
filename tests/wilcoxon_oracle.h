#ifndef CCD_TESTS_WILCOXON_ORACLE_H_
#define CCD_TESTS_WILCOXON_ORACLE_H_

// The pooled-sort Wilcoxon rank-sum test, kept verbatim as the executable
// spec of WSTD's O(1) closed-form check (detectors_test) and pinned by its
// own cases (stats_test). Sort the pooled sample, assign midranks, sum the
// first sample's ranks and apply the tie-corrected normal approximation.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "stats/distributions.h"

namespace ccd {
namespace oracle {

/// Result of a two-sample rank test.
struct RankTestResult {
  double statistic = 0.0;  ///< Mann-Whitney U (rank-sum form).
  double z = 0.0;          ///< Normal approximation z-score.
  double p_value = 1.0;    ///< Two-sided p-value.
  bool valid = false;      ///< False when a sample is too small/degenerate.
};

/// Assigns midranks to the pooled sorted values; returns the rank of each
/// element of the pooled array and the tie-correction term Σ(t³ - t).
inline double Midranks(std::vector<std::pair<double, int>>* pooled,
                       std::vector<double>* ranks) {
  std::sort(pooled->begin(), pooled->end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  const size_t n = pooled->size();
  ranks->assign(n, 0.0);
  double tie_term = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && (*pooled)[j + 1].first == (*pooled)[i].first) ++j;
    double rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) (*ranks)[k] = rank;
    double t = static_cast<double>(j - i + 1);
    if (t > 1.0) tie_term += t * t * t - t;
    i = j + 1;
  }
  return tie_term;
}

/// Wilcoxon rank-sum (Mann-Whitney U) test with tie correction and normal
/// approximation.
inline RankTestResult WilcoxonRankSum(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  RankTestResult out;
  const double n1 = static_cast<double>(a.size());
  const double n2 = static_cast<double>(b.size());
  if (a.size() < 2 || b.size() < 2) return out;

  std::vector<std::pair<double, int>> pooled;
  pooled.reserve(a.size() + b.size());
  for (double v : a) pooled.emplace_back(v, 0);
  for (double v : b) pooled.emplace_back(v, 1);
  std::vector<double> ranks;
  double tie_term = Midranks(&pooled, &ranks);

  double rank_sum_a = 0.0;
  for (size_t i = 0; i < pooled.size(); ++i) {
    if (pooled[i].second == 0) rank_sum_a += ranks[i];
  }
  double u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
  double mu = n1 * n2 / 2.0;
  double n = n1 + n2;
  double sigma2 =
      n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  out.statistic = u;
  if (sigma2 <= 0.0) {
    // All values tied: the two windows are indistinguishable.
    out.z = 0.0;
    out.p_value = 1.0;
    out.valid = true;
    return out;
  }
  out.z = (u - mu) / std::sqrt(sigma2);
  out.p_value = NormalTwoSidedPValue(out.z);
  out.valid = true;
  return out;
}

}  // namespace oracle
}  // namespace ccd

#endif  // CCD_TESTS_WILCOXON_ORACLE_H_
