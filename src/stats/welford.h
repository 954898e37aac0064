#ifndef CCD_STATS_WELFORD_H_
#define CCD_STATS_WELFORD_H_

#include <cmath>
#include <cstdint>

namespace ccd {

/// Numerically stable running mean/variance (Welford's algorithm). Used by
/// detectors that track error-rate statistics incrementally.
class Welford {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  void Reset() {
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
  }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }

  /// Population variance (divide by n).
  double Variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }

  double StdDev() const { return std::sqrt(Variance()); }

  /// Raw second central moment — serialization access. mean/m2 must be
  /// persisted verbatim: recomputing them from samples would not reproduce
  /// the incremental floating-point history bit for bit.
  double m2() const { return m2_; }

  void RestoreState(uint64_t n, double mean, double m2) {
    n_ = n;
    mean_ = mean;
    m2_ = m2;
  }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Hoeffding deviation bound ε(δ, n) = sqrt(R² ln(1/δ) / (2n)) for a random
/// variable with range R. Shared by the Hoeffding-style detectors and the
/// Hoeffding-tree split test.
inline double HoeffdingBound(double range, double delta, double n) {
  if (n <= 0.0) return 1e300;
  double ln_inv = std::log(1.0 / delta);
  return std::sqrt(range * range * ln_inv / (2.0 * n));
}

}  // namespace ccd

#endif  // CCD_STATS_WELFORD_H_
