// Engine hot-path microbench: single-threaded MonitorEngine throughput
// on the four push paths — Feed, FeedBatch, the Predict/Label serving
// cycle, and the PredictBatch/LabelBatch serving cycle. This is the
// recorded perf trajectory behind the allocation-free hot path: the
// numbers land in BENCH_engine.json (CI artifact), and
// tools/bench_gate.py fails the build when a path regresses past the
// tolerance against the committed baseline
// (bench/baselines/BENCH_engine.json).
//
// Usage:
//   bench_engine [--instances 300000] [--classifier naive-bayes]
//                [--detector none] [--batch 256] [--seed 42]
//                [--json out.json]
//
// The stream is materialized up front; every path pushes the same
// instances, so rows differ only in call granularity. tests/alloc_test.cc
// pins the zero-allocation property itself; this bench records what it
// buys. The serve row also times every Label call and records its p50,
// p99 and p99.9 with the sample count: with RBM-IM a label can close a
// mini-batch, so the tail is where the detector's work shows. The gate
// compares throughput only; tails on shared runners are too noisy.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "bench_util.h"
#include "eval/engine.h"
#include "utils/cli.h"
#include "utils/table.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Version of the JSON layout below; tools/bench_gate.py refuses to
/// compare across versions.
constexpr int kSchemaVersion = 1;

struct PathResult {
  std::string path;
  double seconds = 0.0;
  double per_sec = 0.0;
  /// Per-Label latency percentiles in microseconds; serve row only.
  size_t label_samples = 0;
  double label_p50_us = 0.0;
  double label_p99_us = 0.0;
  double label_p999_us = 0.0;

  void SetLabelLatency(std::vector<double> us) {
    if (us.empty()) return;
    std::sort(us.begin(), us.end());
    // Nearest rank: the smallest sample with at least q of all at or below.
    const auto at = [&us](double q) {
      const size_t rank = static_cast<size_t>(
          std::ceil(q * static_cast<double>(us.size())));
      return us[std::max<size_t>(rank, 1) - 1];
    };
    label_samples = us.size();
    label_p50_us = at(0.5);
    label_p99_us = at(0.99);
    label_p999_us = at(0.999);
  }
};

/// Protocol for the measured runs: the monitor defaults (window 1000,
/// sample every 250, warmup 500), timing off.
ccd::PrequentialConfig BenchConfig() {
  ccd::PrequentialConfig config;
  config.metric_window = 1000;
  config.eval_interval = 250;
  config.warmup = 500;
  config.timing = false;
  return config;
}

/// A fresh engine per measured path, so paths never observe each other's
/// training state. Components live in the returned pair's unique_ptrs and
/// must outlive the engine.
struct EngineRig {
  std::unique_ptr<ccd::OnlineClassifier> classifier;
  std::unique_ptr<ccd::DriftDetector> detector;
  std::unique_ptr<ccd::MonitorEngine> engine;
};

EngineRig MakeEngine(const ccd::StreamSchema& schema,
                     const std::string& classifier,
                     const std::string& detector, uint64_t seed) {
  EngineRig rig;
  rig.classifier = ccd::api::Classifiers().Create(classifier, schema, seed, {});
  if (!detector.empty()) {
    rig.detector = ccd::api::Detectors().Create(detector, schema, seed, {});
  }
  rig.engine = std::make_unique<ccd::MonitorEngine>(
      schema, rig.classifier.get(), rig.detector.get(), BenchConfig(),
      ccd::EngineHooks{}, /*pending_capacity=*/4096);
  return rig;
}

template <typename Fn>
PathResult Measure(const std::string& path, size_t instances, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  PathResult result;
  result.path = path;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.per_sec = static_cast<double>(instances) /
                   (result.seconds > 0 ? result.seconds : 1);
  return result;
}

bool WriteJson(const std::string& path, const std::string& classifier,
               const std::string& detector, uint64_t instances, int batch,
               const std::vector<PathResult>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\n  \"bench\": \"engine\",\n  \"schema_version\": %d,\n"
               "  \"instances\": %llu,\n  \"batch\": %d,\n"
               "  \"classifier\": \"%s\",\n  \"detector\": \"%s\",\n"
               "  \"rows\": [\n",
               kSchemaVersion, static_cast<unsigned long long>(instances),
               batch, classifier.c_str(),
               detector.empty() ? "none" : detector.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const PathResult& row = rows[i];
    std::fprintf(out,
                 "    {\"path\": \"%s\", \"seconds\": %.6f, "
                 "\"per_sec\": %.1f",
                 row.path.c_str(), row.seconds, row.per_sec);
    if (row.label_samples > 0) {
      std::fprintf(out,
                   ", \"label_samples\": %zu, \"label_p50_us\": %.3f, "
                   "\"label_p99_us\": %.3f, \"label_p999_us\": %.3f",
                   row.label_samples, row.label_p50_us, row.label_p99_us,
                   row.label_p999_us);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  const size_t instances =
      static_cast<size_t>(cli.GetInt("instances", 300000));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const int batch = cli.GetInt("batch", 256);
  const std::string classifier = cli.GetString("classifier", "naive-bayes");
  std::string detector = cli.GetString("detector", "none");
  if (detector == "none") detector.clear();

  ccd::api::Classifiers().Require(classifier);
  if (!detector.empty()) ccd::api::Detectors().Require(detector);
  if (batch < 1) throw ccd::api::ApiError("--batch must be >= 1");

  std::unique_ptr<ccd::InstanceStream> stream = [&] {
    ccd::BuildOptions options;
    options.scale = 1.0;
    options.seed = seed;
    return std::move(
        ccd::BuildStream(*ccd::FindStreamSpec("RBF5"), options).stream);
  }();
  const ccd::StreamSchema schema = stream->schema();
  const std::vector<ccd::Instance> data = ccd::Take(stream.get(), instances);

  std::printf(
      "Engine hot-path throughput - %llu instances, classifier=%s, "
      "detector=%s, batch=%d\n\n",
      static_cast<unsigned long long>(data.size()), classifier.c_str(),
      detector.empty() ? "none" : detector.c_str(), batch);

  std::vector<PathResult> rows;

  {
    EngineRig rig = MakeEngine(schema, classifier, detector, seed);
    rows.push_back(Measure("feed", data.size(), [&] {
      for (const ccd::Instance& instance : data) rig.engine->Feed(instance);
    }));
  }
  {
    EngineRig rig = MakeEngine(schema, classifier, detector, seed);
    std::vector<ccd::Instance> chunk;
    rows.push_back(Measure("feed_batch", data.size(), [&] {
      for (size_t i = 0; i < data.size(); i += static_cast<size_t>(batch)) {
        const size_t end =
            std::min(data.size(), i + static_cast<size_t>(batch));
        chunk.assign(data.begin() + static_cast<long>(i),
                     data.begin() + static_cast<long>(end));
        rig.engine->FeedBatch(chunk);
      }
    }));
  }
  {
    EngineRig rig = MakeEngine(schema, classifier, detector, seed);
    ccd::MonitorEngine::Ticket ticket;
    std::vector<double> label_us;
    label_us.reserve(data.size());
    rows.push_back(Measure("serve", data.size(), [&] {
      for (const ccd::Instance& instance : data) {
        rig.engine->Predict(instance.features, instance.weight, &ticket);
        const auto t0 = Clock::now();
        rig.engine->Label(ticket.id, instance.label);
        label_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
    }));
    rows.back().SetLabelLatency(std::move(label_us));
  }
  {
    EngineRig rig = MakeEngine(schema, classifier, detector, seed);
    std::vector<ccd::Instance> chunk;
    std::vector<ccd::MonitorEngine::Ticket> tickets;
    std::vector<ccd::LabelRequest> labels;
    rows.push_back(Measure("serve_batch", data.size(), [&] {
      for (size_t i = 0; i < data.size(); i += static_cast<size_t>(batch)) {
        const size_t end =
            std::min(data.size(), i + static_cast<size_t>(batch));
        chunk.assign(data.begin() + static_cast<long>(i),
                     data.begin() + static_cast<long>(end));
        rig.engine->PredictBatch(chunk, &tickets);
        labels.resize(chunk.size());
        for (size_t j = 0; j < chunk.size(); ++j) {
          labels[j].id = tickets[j].id;
          labels[j].label = chunk[j].label;
        }
        rig.engine->LabelBatch(labels, nullptr);
      }
    }));
  }

  ccd::Table table;
  table.SetHeader({"Path", "Seconds", "Kinst/s"});
  for (const PathResult& row : rows) {
    table.AddRow({row.path, ccd::Table::Num(row.seconds, 3),
                  ccd::Table::Num(row.per_sec / 1000.0, 1)});
  }
  std::printf("%s\n", table.ToText().c_str());
  for (const PathResult& row : rows) {
    if (row.label_samples == 0) continue;
    std::printf("%s Label latency [us] over %zu calls: p50 %.3f, p99 %.3f, "
                "p99.9 %.3f\n",
                row.path.c_str(), row.label_samples, row.label_p50_us,
                row.label_p99_us, row.label_p999_us);
  }

  const std::string json = cli.GetString("json", "");
  if (!json.empty()) {
    return ccd::bench::ReportWrite(
        WriteJson(json, classifier, detector, data.size(), batch, rows), json);
  }
  return 0;
} catch (const ccd::api::ApiError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ccd::CliError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
