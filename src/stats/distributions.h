#ifndef CCD_STATS_DISTRIBUTIONS_H_
#define CCD_STATS_DISTRIBUTIONS_H_

namespace ccd {

/// Cumulative distribution functions and special functions needed by the
/// statistical tests in this library (WSTD's rank sum, Granger/F,
/// Friedman/chi², Student-t). Implementations follow the classic series / continued
/// fraction expansions (Numerical Recipes style) and are accurate to ~1e-10
/// over the parameter ranges used here.

/// Natural log of the gamma function (Lanczos approximation).
double LogGamma(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a,x)/Γ(a), a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

/// Regularized incomplete beta I_x(a, b), a,b > 0, x in [0,1].
double RegularizedBeta(double a, double b, double x);

/// Standard normal CDF Φ(x).
double NormalCdf(double x);

/// Two-sided p-value for a standard normal statistic z.
double NormalTwoSidedPValue(double z);

/// Chi-square CDF with k degrees of freedom.
double ChiSquareCdf(double x, double k);

/// Upper-tail p-value for a chi-square statistic.
double ChiSquarePValue(double x, double k);

/// F-distribution CDF with (d1, d2) degrees of freedom.
double FCdf(double x, double d1, double d2);

/// Upper-tail p-value for an F statistic.
double FPValue(double x, double d1, double d2);

}  // namespace ccd

#endif  // CCD_STATS_DISTRIBUTIONS_H_
