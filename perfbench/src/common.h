#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "histogram.h"
#include "trace.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 0.0;  // Required; run.py passes BENCHMARK.json's.
  bool trace = false;
  /// Where committed reference outputs live (perfbench/reference).
  std::string reference_dir;
  /// Scratch directory inside the checkout (persist target, span dumps).
  std::string work_dir;
  /// Rewrite the reference for this seed instead of checking against it.
  bool write_reference = false;
};

/// The seed whose outputs are pinned by the committed reference files.
constexpr uint64_t kReferenceSeed = 42;

/// What a workload run hands back to main(): operation and check tallies,
/// the metrics it measured, and human-readable detail lines.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Tamper self-tests run checks expecting them to fail; they stay quiet.
  bool quiet = false;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// One output check: counts as attempted, and as failed when !ok.
  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (!quiet) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }
  /// Proves a check fires: `tampered` must report at least one failure.
  void ExpectTamperCaught(const Outcome& tampered, const std::string& what) {
    Check(tampered.failed > 0, "tamper self-test not caught: " + what);
  }
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile of `v`, interpolated linearly between order statistics.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A co-tenant on the shared host only ever slows a segment (pass, round,
/// window) down, so the faster quartile of per-segment figures is the
/// steadier estimate of the code's own speed.
inline double FastQuartileRate(const std::vector<double>& rates) {
  return Quantile(rates, 0.75);
}
inline double FastQuartileTime(const std::vector<double>& times) {
  return Quantile(times, 0.25);
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Set-up time of a run. The shared host's speed drifts in phases of
/// seconds, so a run times `reps` set-ups before its timed phase (after
/// one untimed call that lets the heap grow and the core leave idle) and
/// `reps` more after it, and reports the median of both groups.
template <typename F>
class SetupTimer {
 public:
  SetupTimer(int reps, F setup) : reps_(reps), setup_(std::move(setup)) {
    setup_();
    TimeGroup();
  }

  /// Times the second group; returns the median wall time of all set-ups.
  double Finish() {
    TimeGroup();
    return Median(times_);
  }

 private:
  void TimeGroup() {
    for (int i = 0; i < reps_; ++i) {
      const uint64_t t0 = NowNs();
      setup_();
      times_.push_back(SecondsSince(t0));
    }
  }

  int reps_;
  F setup_;
  std::vector<double> times_;
};

/// FNV-1a over raw bytes; outputs are compared bit for bit through it.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Prints "name p50=... p99=... tail(pX)=... n=..." for a latency
/// histogram, so every reported timing carries its sample count.
inline void PrintLatency(const char* workload, const char* name,
                         const Histogram& h) {
  const double tail_q = h.TailQuantile();
  std::printf("%s %s_us p50=%.3f p99=%.3f p%g=%.3f n=%llu\n", workload, name,
              h.Percentile(0.5) * 1e-3, h.Percentile(0.99) * 1e-3,
              tail_q * 100.0, h.Percentile(tail_q) * 1e-3,
              static_cast<unsigned long long>(h.count()));
}

/// The end-to-end latency metrics shared by every workload.
inline void ReportOpLatency(const Histogram& h, Outcome* out) {
  out->Metric("op_p50_us", h.Percentile(0.5) * 1e-3, "us");
  out->Metric("op_p99_us", h.Percentile(0.99) * 1e-3, "us");
  if (h.count() < 1000) {
    std::fprintf(stderr,
                 "warning: only %llu operations; p99 has fewer than ten "
                 "samples beyond it\n",
                 static_cast<unsigned long long>(h.count()));
  }
}

Outcome RunPaperGrid(const Options& options);
Outcome RunServePaper(const Options& options);
Outcome RunFleet(const Options& options);

/// Self-test of the histogram against exact sorted percentiles; returns
/// the number of failed assertions.
int HistogramSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
