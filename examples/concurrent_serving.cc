// Concurrent serving with api::ShardedMonitor: four producer threads push
// keyed traffic from a drifting stream into a hash-routed monitor while
// shard-tagged drift alerts fan in, then the fleet is resharded live —
// AddShard() grows the table mid-traffic and DrainShard() moves one
// shard's complete state through the state-image codec onto a fresh
// engine — and serving simply continues. Ends with the cross-shard merged result.
//
// Usage: concurrent_serving [--instances 40000] [--threads 4] [--shards 4]
//                           [--seed 42]

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "generators/registry.h"
#include "utils/cli.h"

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  const size_t instances = static_cast<size_t>(cli.GetInt("instances", 40000));
  const int threads = cli.GetInt("threads", 4);
  const int shards = cli.GetInt("shards", 4);
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  // Materialize a drifting benchmark stream up front; the serving loop
  // then pushes it as if users were producing it.
  ccd::BuildOptions options;
  options.seed = seed;
  ccd::BuiltStream built =
      ccd::BuildStream(*ccd::FindStreamSpec("RBF5"), options);
  const std::vector<ccd::Instance> data =
      ccd::Take(built.stream.get(), instances);

  std::mutex log_mutex;
  auto monitor =
      ccd::api::ShardedMonitorBuilder()
          .Schema(built.stream->schema())
          .Classifier("naive-bayes")
          .Detector("DDM")
          .Seed(seed)
          .Shards(shards)
          .OnDrift([&](int shard, const ccd::DriftAlarm& alarm,
                       const ccd::MetricsSnapshot& metrics) {
            std::lock_guard<std::mutex> lock(log_mutex);
            std::printf("  [shard %d] drift at local position %llu "
                        "(pmAUC %.3f over %zu)\n",
                        shard,
                        static_cast<unsigned long long>(alarm.position),
                        metrics.pmauc, metrics.window_size);
          })
          .Build();

  std::printf("serving %zu instances on %d shards from %d producers...\n",
              data.size(), shards, threads);

  // Push the first half concurrently: thread t owns the stride t, t+N, ...
  // and keys by instance index, so each key's substream stays ordered.
  auto push_range = [&](size_t begin, size_t end) {
    std::vector<std::thread> workers;
    std::atomic<size_t> next{begin};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
          monitor.Feed(static_cast<uint64_t>(i), data[i]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  };
  push_range(0, data.size() / 2);

  // Live resharding mid-traffic: grow the fleet, then move shard 0's
  // complete state (engine snapshot + component SaveState() payloads)
  // onto a fresh engine. Traffic after this hashes over the grown table.
  const int added = monitor.AddShard();
  monitor.DrainShard(0);
  std::printf("resharded: added shard %d, drained shard 0 (position %llu "
              "migrated)\n",
              added,
              static_cast<unsigned long long>(
                  monitor.ShardSnapshot(0).position));
  push_range(data.size() / 2, data.size());

  const ccd::PrequentialResult result = monitor.Result();
  std::printf("\nserved %llu instances over %d shards\n",
              static_cast<unsigned long long>(result.instances),
              monitor.shards());
  for (int s = 0; s < monitor.shards(); ++s) {
    std::printf("  shard %d: %llu instances, %zu drift alarms\n", s,
                static_cast<unsigned long long>(
                    monitor.ShardSnapshot(s).position),
                monitor.ShardSnapshot(s).drift_log.size());
  }
  std::printf("aggregate: mean pmAUC %.3f, mean pmG-mean %.3f, %llu drift "
              "alarms\n",
              result.mean_pmauc, result.mean_pmgm,
              static_cast<unsigned long long>(result.drifts));
  return 0;
} catch (const ccd::api::ApiError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
} catch (const ccd::CliError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
