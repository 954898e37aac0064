// Two-process serving with a live shard handoff — the io layer end to
// end. The driver forks two serving nodes, each an api::ShardedMonitor
// behind an io::FrameServer on a Unix-domain socket, then:
//
//   1. streams keyed traffic to node A over the socket dialect,
//   2. SHIPs shard 1 out of A (which pauses it) and LOADs the state
//      image into node B — a cross-process shard migration,
//   3. splits the remaining traffic between the two nodes by key, and
//   4. proves the fleet is exactly one logical monitor: probe
//      predictions from the nodes match an in-process oracle that never
//      split, digit for digit (%.17g), and node B's state survives a
//      PERSIST + ShardedMonitor::Open round trip.
//
// Run it from the build tree:   ./serving_node
//
// The fork happens before any thread exists in the child, so the server
// threads (accept loop + pool workers) are all post-fork — the only
// fork/thread ordering that is safe.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/sharded_monitor.h"
#include "generators/rbf.h"
#include "io/frame_server.h"
#include "io/monitor_service.h"
#include "io/snapshot_store.h"
#include "io/wire.h"
#include "runtime/router.h"

namespace {

constexpr int kShards = 2;
constexpr size_t kPhase1 = 600;
constexpr size_t kPhase2 = 600;

ccd::StreamSchema Schema() { return ccd::StreamSchema(6, 3, "serving-demo"); }

ccd::api::ShardedMonitor MakeNode() {
  ccd::PrequentialConfig cfg;
  cfg.metric_window = 400;
  cfg.eval_interval = 100;
  cfg.warmup = 100;
  cfg.timing = false;
  return ccd::api::ShardedMonitorBuilder()
      .Schema(Schema())
      .Classifier("naive-bayes")
      .Detector("DDM")
      .Seed(42)
      .Shards(kShards)
      .Protocol(cfg)
      .Build();
}

/// Child: serve one monitor on `socket_path` until a QUIT frame arrives.
int RunNode(const std::string& socket_path) {
  ccd::api::ShardedMonitor monitor = MakeNode();
  ccd::io::MonitorService service(&monitor);
  std::promise<void> quit;
  auto done = quit.get_future();
  ccd::io::FrameServer server(
      socket_path, [&](const std::string& request) -> std::string {
        if (request == "QUIT") {
          quit.set_value();
          return "OK bye";
        }
        return service.Handle(request);
      });
  done.wait();
  server.Stop();
  return 0;
}

/// Connects to a node, retrying while its server is still coming up.
std::unique_ptr<ccd::io::FrameClient> Connect(const std::string& path) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    try {
      return std::make_unique<ccd::io::FrameClient>(path);
    } catch (const ccd::io::WireError&) {
      ::usleep(2000);
    }
  }
  std::fprintf(stderr, "could not reach %s\n", path.c_str());
  std::exit(1);
}

std::string FormatInstance(const ccd::Instance& inst) {
  std::string out = std::to_string(inst.label);
  char buf[32];
  for (double f : inst.features) {
    std::snprintf(buf, sizeof(buf), " %.17g", f);
    out += buf;
  }
  return out;
}

/// The keyed demo traffic: a 3-class RBF stream, keys spread over both
/// shards. Deterministic, so the oracle sees byte-identical pushes.
struct Push {
  uint64_t key;
  ccd::Instance instance;
};

std::vector<Push> MakeTraffic(size_t count) {
  ccd::RbfConcept::Options options;
  options.num_features = 6;
  options.num_classes = 3;
  ccd::RbfConcept concept(options, /*seed=*/1);
  ccd::Rng rng(99);
  std::vector<Push> traffic(count);
  for (size_t i = 0; i < count; ++i) {
    const int label = static_cast<int>(i % 3);
    traffic[i].key = 1000 + (i * 7919) % 97;
    concept.SampleForClass(label, &rng, &traffic[i].instance.features);
    traffic[i].instance.label = label;
  }
  return traffic;
}

}  // namespace

int main() {
  const std::string dir = "/tmp/ccd-serving-node-" + std::to_string(::getpid());
  const std::string path_a = dir + "-a.sock";
  const std::string path_b = dir + "-b.sock";

  // Fork the two serving nodes first — no threads exist yet.
  pid_t node_a = ::fork();
  if (node_a == 0) ::_exit(RunNode(path_a));
  pid_t node_b = ::fork();
  if (node_b == 0) ::_exit(RunNode(path_b));

  auto a = Connect(path_a);
  auto b = Connect(path_b);
  ccd::api::ShardedMonitor oracle = MakeNode();

  const std::vector<Push> traffic = MakeTraffic(kPhase1 + kPhase2);

  // Phase 1: everything lands on node A; the oracle sees the same pushes.
  for (size_t i = 0; i < kPhase1; ++i) {
    const std::string reply = a->Call("FEED " + std::to_string(traffic[i].key) +
                                      " " + FormatInstance(traffic[i].instance));
    if (reply != "OK") {
      std::fprintf(stderr, "feed %zu failed: %s\n", i, reply.c_str());
      return 1;
    }
    oracle.Feed(traffic[i].key, traffic[i].instance);
  }
  std::printf("phase 1: %zu instances -> node A\n", kPhase1);
  std::printf("  A %s\n", a->Call("STATS").c_str());

  // Migrate: SHIP pauses A's shard 1 and returns its sealed state image;
  // LOAD makes it live inside node B — a different process.
  const std::string shipped = a->Call("SHIP 1");
  if (shipped.rfind("OK\n", 0) != 0) {
    std::fprintf(stderr, "ship failed: %s\n", shipped.c_str());
    return 1;
  }
  const std::string image = shipped.substr(3);
  std::printf("shipped shard 1 from A (%zu bytes) -> B\n", image.size());
  if (b->Call("LOAD 1\n" + image) != "OK") {
    std::fprintf(stderr, "load into B failed\n");
    return 1;
  }

  // Phase 2: route by key — shard-0 keys stay on A, shard-1 keys now
  // belong to B. The oracle keeps serving both, unsplit.
  for (size_t i = kPhase1; i < traffic.size(); ++i) {
    const int slot = ccd::runtime::Router::KeySlot(traffic[i].key, kShards);
    ccd::io::FrameClient* node = slot == 1 ? b.get() : a.get();
    node->Call("FEED " + std::to_string(traffic[i].key) + " " +
               FormatInstance(traffic[i].instance));
    oracle.Feed(traffic[i].key, traffic[i].instance);
  }
  std::printf("phase 2: %zu instances split A/B by key\n", kPhase2);
  std::printf("  A %s\n  B %s\n", a->Call("STATS").c_str(),
              b->Call("STATS").c_str());

  // Probe: score 20 unlabeled instances on whichever node owns the key
  // and on the oracle; %.17g strings must match digit for digit.
  size_t mismatches = 0;
  for (size_t i = 0; i < 20; ++i) {
    const Push& probe = traffic[i * 7];
    const int slot = ccd::runtime::Router::KeySlot(probe.key, kShards);
    ccd::io::FrameClient* node = slot == 1 ? b.get() : a.get();
    std::string features;
    char buf[32];
    for (double f : probe.instance.features) {
      std::snprintf(buf, sizeof(buf), " %.17g", f);
      features += buf;
    }
    const std::string served =
        node->Call("PREDICT " + std::to_string(probe.key) + features);
    auto want = oracle.Predict(probe.key, probe.instance.features);
    // served = "OK <shard> <id> <label> <scores...>": compare the scores.
    std::string expect;
    for (double s : want.scores) {
      std::snprintf(buf, sizeof(buf), " %.17g", s);
      expect += buf;
    }
    if (served.find(expect) == std::string::npos) {
      std::fprintf(stderr, "probe %zu diverged:\n  served %s\n  want%s\n", i,
                   served.c_str(), expect.c_str());
      ++mismatches;
    }
  }
  std::printf("probes: 20/20 scored, %zu mismatches\n", mismatches);

  // Durability: node B persists itself; reopening the directory in this
  // process yields the same logical monitor.
  if (b->Call("PERSIST " + dir).rfind("OK", 0) != 0) {
    std::fprintf(stderr, "persist failed\n");
    return 1;
  }
  ccd::api::ShardedMonitor reopened = ccd::api::ShardedMonitor::Open(dir);
  std::printf("reopened node B from %s: position=%llu shards=%d\n",
              dir.c_str(),
              static_cast<unsigned long long>(reopened.position()),
              reopened.shards());

  // The nodes tear down as soon as QUIT lands; the goodbye frame may lose
  // the race against the shutdown, which is fine.
  for (ccd::io::FrameClient* node : {a.get(), b.get()}) {
    try {
      node->Call("QUIT");
    } catch (const ccd::io::WireError&) {
    }
  }
  int status = 0;
  ::waitpid(node_a, &status, 0);
  ::waitpid(node_b, &status, 0);
  ccd::io::SnapshotStore store(dir);
  for (const std::string& name : store.List()) store.Remove(name);
  ::rmdir(dir.c_str());

  if (mismatches != 0) {
    std::fprintf(stderr, "FAILED: the split fleet diverged from the oracle\n");
    return 1;
  }
  std::printf("two-process fleet == single-process oracle, bit for bit\n");
  return 0;
}
