// Crash and io fault schedules over the deterministic harness:
//
//  (a) persist-at-seeded-times + crash — producers push under the sim
//      scheduler while a persister task cuts a durable generation at a
//      seeded virtual time; the process then "dies" (monitor destroyed),
//      reopens via ShardedMonitor::Open and keeps serving. The history
//      checker's rollback semantics (everything after the last Persist
//      never happened) validate the whole run, across seeds.
//  (b) crash-at-every-generation-boundary — the in-process
//      generalization of io_store_test's single fork+SIGKILL point
//      (which stays as the real-OS smoke check): for *every* generation
//      g the run is killed right after the g-th Persist, reopened, and
//      driven to the end — final state must be bit-identical to an
//      uninterrupted oracle.
//  (c) torn frames and half-written sockets — byte-split-point schedules
//      against io::ReadFrame and a live io::FrameServer. Real sockets
//      are kernel objects the lock shim cannot schedule, so the fault
//      plane here is exhaustive *byte* positions rather than seeded
//      interleavings: a frame cut at any byte must either deliver whole
//      or fail typed — never invoke the handler on garbage, never kill
//      the server.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "api/sharded_monitor.h"
#include "io/frame.h"
#include "io/frame_server.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "runtime/sim.h"
#include "runtime/sync.h"
#include "sim_harness.h"
#include "testing_util.h"

namespace ccd {
namespace {

namespace sim = runtime::sim;
using test_util::DelayedPush;
using test_util::ExpectBitIdentical;
using test_util::ExpectSnapshotEq;
using test_util::HistoryChecker;
using test_util::KeyedInstance;
using test_util::KeysForSlot;
using test_util::MakeDelaySchedule;
using test_util::MakeKeyedSchedule;
using test_util::MakeServing;
using test_util::RecordCrashRestart;
using test_util::RecordingMonitor;
using test_util::RunDelayedProducer;
using test_util::SimCheckResult;
using test_util::SimHistory;
using test_util::SimServingConfig;

std::string ScratchDir(const std::string& name) {
  return ::testing::TempDir() + "ccd-" + name + "-" +
         std::to_string(::getpid());
}

void RemoveTree(const std::string& dir) {
  io::SnapshotStore store(dir);
  for (const std::string& name : store.List()) store.Remove(name);
  ::rmdir(dir.c_str());
}

// -------------------------------------- (a) persist + crash under sim

/// One full persist/crash/reopen run: segment 1 under the sim scheduler
/// with a persister cutting a generation at a seeded virtual time, then
/// process death (the monitor's destructor — disk only ever changes via
/// the atomic Persist, so in-process death is the valid crash model;
/// io_store_test's fork+SIGKILL covers the no-destructors case), then
/// segment 2 on the reopened monitor under a second seeded schedule.
SimCheckResult RunPersistCrashScenario(uint64_t seed, uint64_t* digest) {
  SimServingConfig config;
  config.shards = 3;
  const std::string dir =
      ScratchDir("sim-crash-" + std::to_string(seed));
  SimHistory history;

  std::vector<std::vector<DelayedPush>> first;
  std::vector<std::vector<DelayedPush>> second;
  for (int t = 0; t < 3; ++t) {
    first.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 60,
                                      /*seed=*/71 + static_cast<uint64_t>(t),
                                      /*max_delay=*/3));
    second.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 40,
                                       /*seed=*/81 + static_cast<uint64_t>(t),
                                       /*max_delay=*/0));
  }

  {
    auto monitor = MakeServing(config);
    RecordingMonitor recording(&monitor, &history);
    sim::Scheduler sched(seed);
    for (int t = 0; t < 3; ++t) {
      sched.Spawn("producer-" + std::to_string(t), [&recording, &first, t] {
        RunDelayedProducer(recording, first[static_cast<size_t>(t)],
                           /*depth=*/4);
      });
    }
    sched.Spawn("persister", [&recording, &dir] {
      sim::SleepFor(5 + sim::Choice(120));
      recording.Persist(dir);
    });
    sched.Run();
    if (digest != nullptr) *digest = sched.digest();
  }  // Crash: every effect after the persist is gone from the process.

  auto reopened = api::ShardedMonitor::Open(dir);
  RecordCrashRestart(&history);
  RecordingMonitor recording(&reopened, &history);
  sim::Scheduler sched(seed ^ 0x9e3779b97f4a7c15ull);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("producer-" + std::to_string(t), [&recording, &second, t] {
      RunDelayedProducer(recording, second[static_cast<size_t>(t)],
                         /*depth=*/3);
    });
  }
  sched.Run();

  HistoryChecker checker(config);
  const SimCheckResult result = checker.Check(history, reopened);
  RemoveTree(dir);
  return result;
}

int SweepSeeds() {
  const char* env = std::getenv("CCD_SIM_SEEDS");
  if (env == nullptr) return 5;
  const int n = std::atoi(env);
  return n < 1 ? 1 : n;
}

/// Crash after unpersisted feeds: locked feeders run against a persister
/// under the sim scheduler, so the persisted cut falls between feeds that
/// contend on the same shards. After the schedule ends, more feeds land
/// with no Persist between them and death. They die with the process; the
/// history checker models exactly that, because their kFeed records sit
/// after the last kPersist and the kCrashRestart rollback erases them.
SimCheckResult RunFeedCrashScenario(uint64_t seed) {
  SimServingConfig config;
  config.shards = 3;
  const std::string dir =
      ScratchDir("sim-feed-crash-" + std::to_string(seed));
  SimHistory history;

  std::vector<std::vector<KeyedInstance>> first;
  std::vector<std::vector<DelayedPush>> second;
  for (int t = 0; t < 3; ++t) {
    first.push_back(MakeKeyedSchedule(KeysForSlot(t, 3, 6), 50,
                                      /*seed=*/91 + static_cast<uint64_t>(t)));
    second.push_back(MakeDelaySchedule(KeysForSlot(t, 3, 6), 30,
                                       /*seed=*/101 + static_cast<uint64_t>(t),
                                       /*max_delay=*/0));
  }

  {
    auto monitor = MakeServing(config);
    RecordingMonitor recording(&monitor, &history);
    sim::Scheduler sched(seed);
    for (int t = 0; t < 3; ++t) {
      sched.Spawn("feeder-" + std::to_string(t), [&recording, &first, t] {
        size_t n = 0;
        for (const KeyedInstance& push : first[static_cast<size_t>(t)]) {
          recording.Feed(push.key, push.instance);
          if (++n % 8 == 0) sim::SleepFor(1 + sim::Choice(3));
        }
      });
    }
    sched.Spawn("persister", [&recording, &dir] {
      sim::SleepFor(5 + sim::Choice(80));
      recording.Persist(dir);
    });
    sched.Run();
    // Applied but never persisted: their kFeed records are the post-cut
    // suffix the rollback must erase.
    for (size_t i = 0; i < 3; ++i) {
      recording.Feed(first[0][i].key, first[0][i].instance);
    }
  }  // Crash: the unpersisted feeds die with the process.

  auto reopened = api::ShardedMonitor::Open(dir);
  RecordCrashRestart(&history);
  RecordingMonitor recording(&reopened, &history);
  sim::Scheduler sched(seed ^ 0x9e3779b97f4a7c15ull);
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("producer-" + std::to_string(t), [&recording, &second, t] {
      RunDelayedProducer(recording, second[static_cast<size_t>(t)],
                         /*depth=*/3);
    });
  }
  sched.Run();

  HistoryChecker checker(config);
  const SimCheckResult result = checker.Check(history, reopened);
  RemoveTree(dir);
  return result;
}

TEST(SimCrashTest, CrashAfterUnpersistedFeeds) {
  const int seeds = SweepSeeds();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 7000 + static_cast<uint64_t>(s);
    const SimCheckResult result = RunFeedCrashScenario(seed);
    if (!result.ok) {
      std::cerr << "CCD_SIM_FAIL scenario=feed_crash seed=" << seed
                << " error=" << result.error << std::endl;
      ADD_FAILURE() << "feed_crash seed " << seed << ": " << result.error;
    }
  }
}

TEST(SimCrashTest, PersistAtSeededTimesThenCrashAndContinue) {
  const int seeds = SweepSeeds();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 5000 + static_cast<uint64_t>(s);
    const SimCheckResult result = RunPersistCrashScenario(seed, nullptr);
    if (!result.ok) {
      std::cerr << "CCD_SIM_FAIL scenario=persist_crash seed=" << seed
                << " error=" << result.error << std::endl;
      ADD_FAILURE() << "persist_crash seed " << seed << ": " << result.error;
    }
  }
}

TEST(SimCrashTest, CrashRunsAreBitIdentical) {
  uint64_t digest_a = 0;
  uint64_t digest_b = 0;
  const SimCheckResult a = RunPersistCrashScenario(42, &digest_a);
  const SimCheckResult b = RunPersistCrashScenario(42, &digest_b);
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
}

// ------------------------- (b) crash at every generation boundary

void ExpectMonitorsEqual(const api::ShardedMonitor& a,
                         const api::ShardedMonitor& b) {
  ASSERT_EQ(a.shards(), b.shards());
  for (int i = 0; i < a.shards(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    ExpectSnapshotEq(a.ShardSnapshot(i), b.ShardSnapshot(i));
  }
  ExpectBitIdentical(a.Result(), b.Result());
}

// io_store_test kills one forked child at one arbitrary feed count; this
// is the exhaustive in-process version — a crash immediately after
// *every* generation's commit point must reopen at exactly that
// generation and continue bit-identically to a run that never died.
TEST(CrashGenerationTest, CrashAfterEveryGenerationContinuesBitIdentically) {
  constexpr int kSegments = 5;
  constexpr size_t kPerSegment = 200;
  SimServingConfig config;
  config.shards = 3;
  const std::vector<uint64_t> keys = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const std::vector<KeyedInstance> schedule =
      MakeKeyedSchedule(keys, kSegments * kPerSegment, /*seed=*/19);

  auto oracle = MakeServing(config);
  for (const KeyedInstance& push : schedule) {
    oracle.Feed(push.key, push.instance);
  }

  for (int boundary = 1; boundary <= kSegments; ++boundary) {
    SCOPED_TRACE("crash after generation " + std::to_string(boundary));
    const std::string dir =
        ScratchDir("gen-boundary-" + std::to_string(boundary));
    {
      auto monitor = MakeServing(config);
      for (int segment = 0; segment < boundary; ++segment) {
        for (size_t i = static_cast<size_t>(segment) * kPerSegment;
             i < static_cast<size_t>(segment + 1) * kPerSegment; ++i) {
          monitor.Feed(schedule[i].key, schedule[i].instance);
        }
        monitor.Persist(dir);
      }
    }  // Crash exactly at generation `boundary`'s commit point.

    io::SnapshotStore store(dir);
    const io::Manifest manifest =
        io::DecodeManifest(store.Read(io::kManifestName));
    EXPECT_EQ(manifest.generation, static_cast<uint64_t>(boundary));

    auto reopened = api::ShardedMonitor::Open(dir);
    EXPECT_EQ(reopened.position(),
              static_cast<uint64_t>(boundary) * kPerSegment);
    for (size_t i = static_cast<size_t>(boundary) * kPerSegment;
         i < schedule.size(); ++i) {
      reopened.Feed(schedule[i].key, schedule[i].instance);
    }
    ExpectMonitorsEqual(reopened, oracle);
    RemoveTree(dir);
  }
}

// ------------------------------- (c) torn frames / half-written sockets

/// The exact bytes io::WriteFrame puts on the wire for `payload`.
std::string FrameBytes(const std::string& payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string bytes;
  bytes.push_back(static_cast<char>(length & 0xFF));
  bytes.push_back(static_cast<char>((length >> 8) & 0xFF));
  bytes.push_back(static_cast<char>((length >> 16) & 0xFF));
  bytes.push_back(static_cast<char>((length >> 24) & 0xFF));
  bytes += payload;
  return bytes;
}

// Every byte split point of a frame: the reader must deliver the whole
// frame (all bytes present), report clean EOF (cut at the boundary,
// before any byte), or throw a typed WireError (cut mid-frame) — and
// nothing else, at any cut.
TEST(TornFrameTest, EveryByteSplitPointDeliversWholeOrFailsTyped) {
  const std::string bytes = FrameBytes("torn-frame-payload");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[1], bytes.data(), cut),
              static_cast<ssize_t>(cut));
    ::close(fds[1]);  // The peer dies here.
    std::string payload;
    if (cut == bytes.size()) {
      EXPECT_TRUE(io::ReadFrame(fds[0], &payload));
      EXPECT_EQ(payload, "torn-frame-payload");
      EXPECT_FALSE(io::ReadFrame(fds[0], &payload));  // Then clean EOF.
    } else if (cut == 0) {
      EXPECT_FALSE(io::ReadFrame(fds[0], &payload));  // Clean EOF.
    } else {
      EXPECT_THROW(io::ReadFrame(fds[0], &payload), io::WireError);
    }
    ::close(fds[0]);
  }
}

TEST(TornFrameTest, OversizedLengthPrefixIsRejectedBeforeAllocating) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(fds[1], huge, 4), 4);
  ::close(fds[1]);
  std::string payload;
  EXPECT_THROW(io::ReadFrame(fds[0], &payload), io::WireError);
  ::close(fds[0]);
}

/// A raw client that can stop mid-frame — the half-written-socket fault
/// FrameClient (which always writes whole frames) cannot produce.
int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

// A live FrameServer fed every byte-split of a request frame: a torn
// request must never reach the handler, a complete frame whose client
// hangs up before the response must not hurt the server, and well-formed
// clients keep getting served throughout.
TEST(TornFrameTest, FrameServerSurvivesHalfWrittenConnections) {
  const std::string path = ::testing::TempDir() + "ccd-torn-" +
                           std::to_string(::getpid()) + ".sock";
  runtime::Mutex mutex;
  int handler_calls = 0;
  const std::string bytes = FrameBytes("request");
  {
    io::FrameServer server(path, [&](const std::string& request) {
      runtime::MutexLock lock(&mutex);
      ++handler_calls;
      return "ok:" + request;
    });

    // Torn requests: every proper prefix of the frame, then hangup.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const int fd = RawConnect(path);
      ASSERT_EQ(::write(fd, bytes.data(), cut), static_cast<ssize_t>(cut));
      ::close(fd);
    }
    // The server still serves a well-formed client.
    io::FrameClient good(path);
    EXPECT_EQ(good.Call("request"), "ok:request");

    // Complete frame, then hangup before the response is read: the
    // handler runs once; the failed response write is that connection's
    // problem, not the server's.
    const int fd = RawConnect(path);
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);

    io::FrameClient again(path);
    EXPECT_EQ(again.Call("request"), "ok:request");
  }  // Destructor stops the server and joins every connection worker.

  // Exactly the three complete frames reached the handler; no torn
  // prefix ever did.
  EXPECT_EQ(handler_calls, 3);
}

}  // namespace
}  // namespace ccd
