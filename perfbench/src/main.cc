// The repository benchmark: runs one named workload for a fixed time,
// checks its outputs, and prints one JSON line of metrics.
//
//   perfbench --workload paper-grid|serve-paper|fleet --seed N --seconds S
//             --trace 0|1 --reference-dir DIR --work-dir DIR
//             [--write-reference]
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "utils/rng.h"

namespace perfbench {

int HistogramSelfTest() {
  int failures = 0;
  auto expect_close = [&](double got, double exact, const char* what) {
    const double width = static_cast<double>(
        Histogram::Width(Histogram::Index(static_cast<uint64_t>(exact))));
    if (std::fabs(got - exact) > width) {
      std::fprintf(stderr, "histogram %s: got %.3f, exact %.3f (width %.0f)\n",
                   what, got, exact, width);
      ++failures;
    }
  };
  // A known sample: 1..100000 ns, and a heavy-tailed seeded sample.
  std::vector<std::vector<uint64_t>> samples(2);
  for (uint64_t v = 1; v <= 100000; ++v) samples[0].push_back(v);
  ccd::Rng rng(7);
  for (int i = 0; i < 50000; ++i) {
    const double u = rng.NextDouble();
    samples[1].push_back(static_cast<uint64_t>(200.0 / (1.0 - 0.999 * u)));
  }
  for (std::vector<uint64_t>& s : samples) {
    Histogram h;
    for (uint64_t v : s) h.Record(v);
    std::sort(s.begin(), s.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const size_t rank = static_cast<size_t>(std::ceil(q * s.size()));
      expect_close(h.Percentile(q), static_cast<double>(s[rank - 1]), "q");
    }
    if (h.count() != s.size()) ++failures;
  }
  Histogram tiny;
  for (uint64_t v = 0; v < 50; ++v) tiny.Record(v);
  if (tiny.TailQuantile() != 0.5) ++failures;  // 50 samples: only p50 has 10.
  Histogram big;
  for (uint64_t v = 0; v < 1000; ++v) big.Record(v);
  if (big.TailQuantile() != 0.99) ++failures;
  return failures;
}

namespace {

void PrintResult(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].first.c_str(),
                out.metrics[i].second.first,
                out.metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "paper-grid|serve-paper|fleet --seed N --seconds S --trace 0|1 "
               "--reference-dir DIR --work-dir DIR [--write-reference] | "
               "--selftest\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--reference-dir") {
      o.reference_dir = value();
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--write-reference") {
      o.write_reference = true;
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (selftest) {
    const int failures = HistogramSelfTest();
    std::printf("histogram self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  if (o.seconds <= 0) return Usage("--seconds must be positive");
  if (o.reference_dir.empty() || o.work_dir.empty()) {
    return Usage("--reference-dir and --work-dir are required");
  }
  try {
    Outcome out;
    if (o.workload == "paper-grid") {
      out = RunPaperGrid(o);
    } else if (o.workload == "serve-paper") {
      out = RunServePaper(o);
    } else if (o.workload == "fleet") {
      out = RunFleet(o);
    } else {
      return Usage(("unknown workload '" + o.workload + "'").c_str());
    }
    std::fflush(stdout);
    PrintResult(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
