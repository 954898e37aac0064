#include "stats/distributions.h"

#include <cmath>
#include <limits>

namespace ccd {
namespace {

constexpr double kEps = 1e-14;
constexpr int kMaxIter = 500;

// Continued fraction for the regularized incomplete beta (Lentz's method).
double BetaContinuedFraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < 1e-300) d = 1e-300;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = 1.0 + aa / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double LogGamma(double x) {
  // Lanczos, g = 7, n = 9.
  static const double kCoef[9] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoef[0];
  double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += kCoef[i] / (x + i);
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t + std::log(a);
}

double RegularizedGammaP(double a, double x) {
  if (x <= 0.0) return 0.0;
  if (a <= 0.0) return 1.0;
  if (x < a + 1.0) {
    // Series expansion.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < kMaxIter; ++n) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * kEps) break;
    }
    return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
  }
  // Continued fraction for Q(a,x), then P = 1 - Q.
  double b = x + 1.0 - a;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    double an = -static_cast<double>(i) * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  double q = std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
  return 1.0 - q;
}

double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_front =
      LogGamma(a + b) - LogGamma(a) - LogGamma(b) + a * std::log(x) +
      b * std::log(1.0 - x);
  double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalTwoSidedPValue(double z) {
  double p = 2.0 * (1.0 - NormalCdf(std::fabs(z)));
  return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
}

double ChiSquareCdf(double x, double k) {
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(k / 2.0, x / 2.0);
}

double ChiSquarePValue(double x, double k) { return 1.0 - ChiSquareCdf(x, k); }

double FCdf(double x, double d1, double d2) {
  if (x <= 0.0) return 0.0;
  double u = d1 * x / (d1 * x + d2);
  return RegularizedBeta(d1 / 2.0, d2 / 2.0, u);
}

double FPValue(double x, double d1, double d2) { return 1.0 - FCdf(x, d1, d2); }

}  // namespace ccd
