#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <array>
#include <cmath>
#include <cstdint>

namespace perfbench {

/// Fixed log2-bucket latency histogram over nanosecond samples. Each power
/// of two is split into 32 linear sub-buckets, so a bucket is at most 1/32
/// of its lower bound wide; values below 32 ns get exact buckets. The
/// bucket array is a member: recording never allocates, so a histogram can
/// sit on a hot path.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * static_cast<int>(kSub);

  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// The q-quantile (0 < q <= 1) as the nearest-rank sample, located in
  /// its bucket and interpolated linearly by rank inside it. The result is
  /// within one bucket width of the exact nearest-rank value.
  double Percentile(double q) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * count_));
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    uint64_t before = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) continue;
      if (before + c >= rank) {
        const double frac = (static_cast<double>(rank - before) - 0.5) / c;
        return static_cast<double>(Lower(i)) + frac * Width(i);
      }
      before += c;
    }
    return 0.0;
  }

  /// The highest of p99.99, p99.9, p99, p90 and p50 that still has at
  /// least ten samples above it (p50 when the sample is tiny).
  double TailQuantile() const {
    for (double q : {0.9999, 0.999, 0.99, 0.9}) {
      if (static_cast<double>(count_) * (1.0 - q) >= 10.0) return q;
    }
    return 0.5;
  }

  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const uint64_t sub = (v >> shift) & (kSub - 1);
    return (shift + 1) * static_cast<int>(kSub) + static_cast<int>(sub);
  }
  static uint64_t Lower(int index) {
    if (index < static_cast<int>(kSub)) return static_cast<uint64_t>(index);
    const int shift = index / static_cast<int>(kSub) - 1;
    const uint64_t sub = static_cast<uint64_t>(index) % kSub;
    return (kSub + sub) << shift;
  }
  static uint64_t Width(int index) {
    if (index < static_cast<int>(kSub)) return 1;
    return uint64_t{1} << (index / static_cast<int>(kSub) - 1);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
