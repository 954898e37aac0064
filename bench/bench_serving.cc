// Serving-layer throughput: how many pushes per second an
// api::ShardedMonitor sustains as producer threads and router shards
// scale. This is the bench behind the concurrent-serving claim — one
// shard serializes every push through a single engine lock, while K
// shards let pushes to different shards proceed in parallel, so
// throughput should grow with K until the machine (or the shard count)
// saturates.
//
// Usage:
//   bench_serving [--threads 8] [--instances 200000] [--seed 42]
//                 [--classifier cs-ptree]
//                 [--detector DDM | --detector none] [--batch 256]
//                 [--router-shards 8 | --sweep 1,2,4,8] [--csv out.csv]
//                 [--json out.json]
//
// Every row also runs a batch leg: the same instances again
// through FeedBatch in --batch-sized chunks (one shard-lock round-trip
// per chunk×shard instead of per push); BatchX is its speedup over the
// per-push rate of the same row.
//
// With --router-shards K a single configuration runs; the default sweeps
// K over {1, 2, 4, 8} at the given thread count so the scaling curve
// (and the K=1 serialized baseline) prints in one table. The stream is
// materialized up front and every configuration pushes the *same*
// instances, so rows differ only in routing.
//
// Each row also measures the durability path (src/io/): Persist() the
// fully loaded fleet to disk and ShardedMonitor::Open() it back — the
// crash-recovery latency an operator actually waits on — and the on-disk
// state size. --json emits the whole run machine-readable (CI archives
// it as a BENCH_serving.json artifact).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "runtime/thread_pool.h"
#include "utils/cli.h"
#include "utils/table.h"

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  double seconds = 0.0;
  uint64_t drifts = 0;
  double batch_seconds = 0.0;    ///< Same pushes via FeedBatch.
  double persist_seconds = 0.0;  ///< Persist() of the loaded fleet.
  double open_seconds = 0.0;     ///< ShardedMonitor::Open() of the same.
  uint64_t state_bytes = 0;      ///< Manifest-accounted on-disk size.
};

/// One measured configuration: `threads` producers push the materialized
/// stream (striped by index) through a fresh K-shard monitor.
RunResult RunOnce(const ccd::StreamSchema& schema,
                  const std::vector<ccd::Instance>& data, int threads,
                  int shards, const std::string& classifier,
                  const std::string& detector, uint64_t seed, int batch) {
  auto make_monitor = [&] {
    ccd::api::ShardedMonitorBuilder builder;
    builder.Schema(schema)
        .Classifier(classifier)
        .Seed(seed)
        .Shards(shards);
    if (!detector.empty()) builder.Detector(detector);
    return builder.Build();
  };
  auto monitor = make_monitor();

  // Barrier-started producers (runtime::RunThreads): the measured window
  // contains contention, not thread spawn skew, and a producer throw
  // surfaces as the bench's clean error exit.
  const auto t0 = Clock::now();
  ccd::runtime::RunThreads(threads, [&](int t) {
    // Stride striping: thread t pushes instances t, t+N, t+2N, ... so
    // every thread's keys spread over all shards and contend realistically.
    for (size_t i = static_cast<size_t>(t); i < data.size();
         i += static_cast<size_t>(threads)) {
      monitor.Feed(static_cast<uint64_t>(i), data[i]);
    }
  });
  RunResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.drifts = monitor.Result().drifts;
  if (monitor.position() != data.size()) {
    throw std::logic_error("bench_serving: lost pushes — " +
                           std::to_string(monitor.position()) + " of " +
                           std::to_string(data.size()) + " accounted");
  }

  // Batch leg: the same instances through FeedBatch — one shard-lock
  // round-trip per (chunk × shard) instead of per push. Chunks are
  // materialized before the clock starts, so the measured delta is purely
  // call granularity.
  if (batch > 0) {
    std::vector<std::vector<std::vector<ccd::api::ShardedMonitor::KeyedInstance>>>
        chunks(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      auto& mine = chunks[static_cast<size_t>(t)];
      mine.emplace_back();
      for (size_t i = static_cast<size_t>(t); i < data.size();
           i += static_cast<size_t>(threads)) {
        if (mine.back().size() >= static_cast<size_t>(batch)) {
          mine.emplace_back();
        }
        mine.back().push_back(
            ccd::api::ShardedMonitor::KeyedInstance{static_cast<uint64_t>(i),
                                                    data[i]});
      }
    }
    auto batched = make_monitor();
    const auto b0 = Clock::now();
    ccd::runtime::RunThreads(threads, [&](int t) {
      for (const auto& chunk : chunks[static_cast<size_t>(t)]) {
        batched.FeedBatch(chunk);
      }
    });
    result.batch_seconds =
        std::chrono::duration<double>(Clock::now() - b0).count();
    if (batched.position() != data.size()) {
      throw std::logic_error("bench_serving: batch leg lost pushes — " +
                             std::to_string(batched.position()) + " of " +
                             std::to_string(data.size()) + " accounted");
    }
  }

  // Restore-latency leg: persist the fully loaded fleet, then reopen it —
  // the crash-recovery path. Timed separately so the throughput number
  // stays a pure push measurement.
  const std::string dir =
      "/tmp/ccd-bench-serving-" + std::to_string(::getpid());
  const auto p0 = Clock::now();
  monitor.Persist(dir);
  result.persist_seconds =
      std::chrono::duration<double>(Clock::now() - p0).count();
  const auto o0 = Clock::now();
  auto reopened = ccd::api::ShardedMonitor::Open(dir);
  result.open_seconds =
      std::chrono::duration<double>(Clock::now() - o0).count();
  if (reopened.position() != monitor.position()) {
    throw std::logic_error("bench_serving: reopened fleet lost state — " +
                           std::to_string(reopened.position()) + " of " +
                           std::to_string(monitor.position()) + " restored");
  }
  ccd::io::SnapshotStore store(dir);
  const ccd::io::Manifest manifest =
      ccd::io::DecodeManifest(store.Read(ccd::io::kManifestName));
  for (const auto& f : manifest.shards) result.state_bytes += f.size;
  for (const std::string& name : store.List()) store.Remove(name);
  ::rmdir(dir.c_str());
  return result;
}

/// Escapes nothing fancy — the strings here are registry names and CLI
/// words; this bench's JSON needs no general escaper.
bool WriteJson(const std::string& path, const std::string& classifier,
               const std::string& detector, uint64_t instances,
               int threads, int batch,
               const std::vector<std::pair<int, RunResult>>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\n  \"bench\": \"serving\",\n  \"schema_version\": 1,\n"
               "  \"instances\": %llu,\n"
               "  \"threads\": %d,\n  \"batch\": %d,\n"
               "  \"classifier\": \"%s\",\n  \"detector\": \"%s\",\n"
               "  \"rows\": [\n",
               static_cast<unsigned long long>(instances), threads, batch,
               classifier.c_str(),
               detector.empty() ? "none" : detector.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i].second;
    const double rate =
        static_cast<double>(instances) / (r.seconds > 0 ? r.seconds : 1);
    const double batch_rate =
        r.batch_seconds > 0 ? static_cast<double>(instances) / r.batch_seconds
                            : 0.0;
    std::fprintf(out,
                 "    {\"shards\": %d, \"seconds\": %.6f, "
                 "\"pushes_per_sec\": %.1f, \"batch_seconds\": %.6f, "
                 "\"batch_pushes_per_sec\": %.1f, \"batch_speedup\": %.3f, "
                 "\"drifts\": %llu, "
                 "\"persist_seconds\": %.6f, \"open_seconds\": %.6f, "
                 "\"state_bytes\": %llu}%s\n",
                 rows[i].first, r.seconds, rate, r.batch_seconds, batch_rate,
                 rate > 0 ? batch_rate / rate : 0.0,
                 static_cast<unsigned long long>(r.drifts), r.persist_seconds,
                 r.open_seconds,
                 static_cast<unsigned long long>(r.state_bytes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  const int threads = cli.GetInt("threads", 8);
  const uint64_t instances =
      static_cast<uint64_t>(cli.GetInt("instances", 200000));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const int batch = cli.GetInt("batch", 256);
  // The paper's base classifier by default: its per-push cost is realistic
  // for a served model, which is exactly when shard-lock contention at
  // K=1 hurts and the scaling curve is informative.
  std::string classifier = cli.GetString("classifier", "cs-ptree");
  std::string detector = cli.GetString("detector", "DDM");
  if (detector == "none") detector.clear();

  ccd::api::Classifiers().Require(classifier);
  if (!detector.empty()) ccd::api::Detectors().Require(detector);
  std::vector<int> shard_counts;
  if (cli.Has("router-shards")) {
    shard_counts.push_back(cli.GetInt("router-shards", 8));
  } else {
    for (const std::string& s : ccd::bench::SplitCsv(
             cli.GetString("sweep", "1,2,4,8"))) {
      shard_counts.push_back(std::stoi(s));
    }
  }

  // One materialized stream for every row: rows differ only in routing.
  std::unique_ptr<ccd::InstanceStream> stream = [&] {
    ccd::BuildOptions options;
    options.scale = 1.0;  // max_instances bounds us, not the spec scale.
    options.seed = seed;
    return std::move(
        ccd::BuildStream(*ccd::FindStreamSpec("RBF5"), options).stream);
  }();
  const std::vector<ccd::Instance> data =
      ccd::Take(stream.get(), static_cast<size_t>(instances));

  std::printf(
      "Serving push throughput - %llu instances, %d producer threads, "
      "classifier=%s, detector=%s\n\n",
      static_cast<unsigned long long>(data.size()), threads,
      classifier.c_str(),
      detector.empty() ? "none" : detector.c_str());

  ccd::Table table;
  table.SetHeader({"Shards", "Threads", "Seconds", "Kpush/s", "Speedup",
                   "BatchK/s", "BatchX", "Drifts", "Persist ms", "Open ms",
                   "State KB"});
  double baseline_rate = 0.0;
  std::vector<std::pair<int, RunResult>> rows;
  for (int shards : shard_counts) {
    const RunResult run = RunOnce(stream->schema(), data, threads, shards,
                                  classifier, detector, seed, batch);
    const double rate =
        static_cast<double>(data.size()) / (run.seconds > 0 ? run.seconds : 1);
    if (baseline_rate == 0.0) baseline_rate = rate;
    const double batch_rate =
        run.batch_seconds > 0
            ? static_cast<double>(data.size()) / run.batch_seconds
            : 0.0;
    table.AddRow({std::to_string(shards), std::to_string(threads),
                  ccd::Table::Num(run.seconds, 3),
                  ccd::Table::Num(rate / 1000.0, 1),
                  ccd::Table::Num(rate / baseline_rate, 2) + "x",
                  batch_rate > 0 ? ccd::Table::Num(batch_rate / 1000.0, 1)
                                 : "-",
                  batch_rate > 0
                      ? ccd::Table::Num(batch_rate / rate, 2) + "x"
                      : "-",
                  std::to_string(run.drifts),
                  ccd::Table::Num(run.persist_seconds * 1000.0, 2),
                  ccd::Table::Num(run.open_seconds * 1000.0, 2),
                  ccd::Table::Num(run.state_bytes / 1024.0, 1)});
    rows.emplace_back(shards, run);
  }
  std::printf("%s\n", table.ToText().c_str());

  const std::string csv = cli.GetString("csv", "");
  int status = 0;
  if (!csv.empty()) status |= ccd::bench::ReportWrite(table.WriteCsv(csv), csv);
  const std::string json = cli.GetString("json", "");
  if (!json.empty()) {
    status |= ccd::bench::ReportWrite(
        WriteJson(json, classifier, detector, data.size(), threads, batch,
                  rows),
        json);
  }
  return status;
} catch (const ccd::api::ApiError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ccd::CliError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
