// Snapshot persistence (io/snapshot_store.h + ShardedMonitor::Persist/
// Open) — the crash-safety harness: atomic writes, generation turnover,
// reopen-bit-identical serving, and the headline test, a child process
// SIGKILLed at an arbitrary moment mid-serving whose reopened monitor
// continues exactly like an uninterrupted oracle. Every corruption of
// the on-disk artifacts must surface as io::WireError.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "api/api.h"
#include "api/sharded_monitor.h"
#include "io/schema_check.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "testing_util.h"

namespace ccd {
namespace {

using test_util::ExpectBitIdentical;
using test_util::ExpectSnapshotEq;
using test_util::MakeRbfDriftStream;
using test_util::ShortConfig;

/// A fresh, unique scratch directory per test invocation.
std::string ScratchDir(const std::string& name) {
  return ::testing::TempDir() + "ccd-" + name + "-" +
         std::to_string(::getpid());
}

void RemoveTree(const std::string& dir) {
  io::SnapshotStore store(dir);
  for (const std::string& name : store.List()) store.Remove(name);
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------- SnapshotStore

TEST(SnapshotStoreTest, WriteReadRemoveListRoundTrip) {
  const std::string dir = ScratchDir("store-basic");
  io::SnapshotStore store(dir);
  const std::string payload("\x00\x01\xFFhello", 8);
  store.Write("a.state", payload);
  store.Write("b.state", "other");
  EXPECT_TRUE(store.Exists("a.state"));
  EXPECT_EQ(store.Read("a.state"), payload);
  EXPECT_EQ(store.List(), (std::vector<std::string>{"a.state", "b.state"}));

  // Overwrite is atomic-replace, not append.
  store.Write("a.state", "v2");
  EXPECT_EQ(store.Read("a.state"), "v2");

  store.Remove("a.state");
  EXPECT_FALSE(store.Exists("a.state"));
  store.Remove("a.state");  // Idempotent.
  EXPECT_EQ(store.List(), (std::vector<std::string>{"b.state"}));
  RemoveTree(dir);
}

TEST(SnapshotStoreTest, FailureModesAreTypedErrors) {
  const std::string dir = ScratchDir("store-errors");
  io::SnapshotStore store(dir);
  EXPECT_THROW(store.Read("absent"), io::WireError);
  EXPECT_THROW(store.Write("nested/name", "x"), io::WireError);
  EXPECT_THROW(store.Write("..", "x"), io::WireError);
  EXPECT_THROW(store.Write("", "x"), io::WireError);
  // A path that exists as a *file* cannot become a store.
  store.Write("plain", "data");
  EXPECT_THROW(io::SnapshotStore(dir + "/plain"), io::WireError);
  RemoveTree(dir);
}

// ------------------------------------------------- keyed serving schedule

struct KeyedFeed {
  uint64_t key = 0;
  Instance instance;
};

/// Deterministic Feed-only schedule: with immediate labels every push
/// completes, so the monitor's total position *is* the schedule index —
/// the property the crash-restart test uses to find its resume point.
std::vector<KeyedFeed> MakeSchedule(size_t count, uint64_t seed) {
  auto stream = MakeRbfDriftStream(count / 2, seed);
  const std::vector<Instance> data = Take(stream.get(), count);
  std::vector<KeyedFeed> schedule(count);
  for (size_t i = 0; i < count; ++i) {
    schedule[i].key = 1000 + (i * 7919) % 97;  // Spread over the shards.
    schedule[i].instance = data[i];
  }
  return schedule;
}

api::ShardedMonitor BuildMonitor(int shards) {
  StreamSchema schema = MakeRbfDriftStream(10, 1)->schema();
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;
  return api::ShardedMonitorBuilder()
      .Schema(schema)
      .Classifier("naive-bayes")
      .Detector("DDM")
      .Seed(42)
      .Shards(shards)
      .Protocol(cfg)
      .Build();
}

void ExpectMonitorsEqual(const api::ShardedMonitor& a,
                         const api::ShardedMonitor& b) {
  ASSERT_EQ(a.shards(), b.shards());
  for (int i = 0; i < a.shards(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    ExpectSnapshotEq(a.ShardSnapshot(i), b.ShardSnapshot(i));
  }
  ExpectBitIdentical(a.Result(), b.Result());
}

// ------------------------------------------------------- Persist() / Open()

// Persist mid-serving, reopen, continue both monitors on the identical
// remaining schedule: the reopened monitor must be bit-identical —
// per-shard snapshots included — to the one that never stopped.
TEST(PersistOpenTest, ReopenedMonitorContinuesBitIdentically) {
  const std::string dir = ScratchDir("persist-open");
  const std::vector<KeyedFeed> schedule = MakeSchedule(1400, 11);

  api::ShardedMonitor original = BuildMonitor(3);
  for (size_t i = 0; i < 900; ++i) {
    original.Feed(schedule[i].key, schedule[i].instance);
  }
  original.Persist(dir);
  api::ShardedMonitor reopened = api::ShardedMonitor::Open(dir);
  EXPECT_EQ(reopened.position(), original.position());

  for (size_t i = 900; i < schedule.size(); ++i) {
    original.Feed(schedule[i].key, schedule[i].instance);
    reopened.Feed(schedule[i].key, schedule[i].instance);
  }
  ExpectMonitorsEqual(original, reopened);
  RemoveTree(dir);
}

// Re-persisting writes a new generation and retires the old one only
// after the new manifest committed; the directory never holds a mix.
TEST(PersistOpenTest, RepersistTurnsOverGenerations) {
  const std::string dir = ScratchDir("persist-gen");
  const std::vector<KeyedFeed> schedule = MakeSchedule(600, 13);

  api::ShardedMonitor monitor = BuildMonitor(2);
  for (size_t i = 0; i < 300; ++i) {
    monitor.Feed(schedule[i].key, schedule[i].instance);
  }
  monitor.Persist(dir);
  io::SnapshotStore store(dir);
  io::Manifest first = io::DecodeManifest(store.Read(io::kManifestName));
  EXPECT_EQ(first.generation, 1u);

  for (size_t i = 300; i < schedule.size(); ++i) {
    monitor.Feed(schedule[i].key, schedule[i].instance);
  }
  monitor.Persist(dir);
  io::Manifest second = io::DecodeManifest(store.Read(io::kManifestName));
  EXPECT_EQ(second.generation, 2u);

  // Exactly the manifest + the new generation's shard files remain.
  std::vector<std::string> expected{io::kManifestName};
  for (const io::Manifest::ShardFile& f : second.shards) {
    expected.push_back(f.file);
    EXPECT_NE(f.file.find("-g2."), std::string::npos);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(store.List(), expected);

  // A reopened second generation carries the full history.
  api::ShardedMonitor reopened = api::ShardedMonitor::Open(dir);
  EXPECT_EQ(reopened.position(), schedule.size());
  RemoveTree(dir);
}

TEST(PersistOpenTest, CorruptedArtifactsAreTypedErrors) {
  const std::string dir = ScratchDir("persist-corrupt");
  const std::vector<KeyedFeed> schedule = MakeSchedule(400, 17);
  api::ShardedMonitor monitor = BuildMonitor(2);
  for (const KeyedFeed& f : schedule) monitor.Feed(f.key, f.instance);
  monitor.Persist(dir);

  io::SnapshotStore store(dir);
  io::Manifest manifest = io::DecodeManifest(store.Read(io::kManifestName));

  // Swapping two shard files is caught even though both are internally
  // valid envelopes: each manifest CRC names its file's content.
  const std::string a = store.Read(manifest.shards[0].file);
  const std::string b = store.Read(manifest.shards[1].file);
  store.Write(manifest.shards[0].file, b);
  store.Write(manifest.shards[1].file, a);
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);
  store.Write(manifest.shards[0].file, a);
  store.Write(manifest.shards[1].file, b);

  // Flip one byte in a shard file: the manifest CRC check rejects it
  // before a byte of the image is decoded.
  const std::string name = manifest.shards[0].file;
  std::string bytes = store.Read(name);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  store.Write(name, bytes);
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);

  // A missing shard file fails typed, too.
  store.Remove(name);
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);

  // And an absent / foreign manifest.
  store.Write(io::kManifestName, "not an envelope");
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);
  store.Remove(io::kManifestName);
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);
  RemoveTree(dir);
}

// A shard file of another fleet, re-registered in the manifest with its
// true size and CRC, passes the integrity checks; Open must still refuse
// it through the same identity comparison RestoreShard uses. The control:
// the same re-registration of a same-fleet image opens.
TEST(PersistOpenTest, ShardImageOfAnotherFleetIsATypedError) {
  const std::string dir = ScratchDir("persist-foreign");
  api::ShardedMonitor monitor = BuildMonitor(2);
  monitor.Persist(dir);
  io::SnapshotStore store(dir);
  const io::Manifest manifest =
      io::DecodeManifest(store.Read(io::kManifestName));
  const auto register_shard0 = [&](const std::string& bytes) {
    io::Manifest m = manifest;
    m.shards[0].size = bytes.size();
    m.shards[0].crc = io::ShardFileCrc(bytes);
    store.Write(m.shards[0].file, bytes);
    store.Write(io::kManifestName, io::EncodeManifest(m));
  };

  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;
  register_shard0(api::ShardedMonitorBuilder()
                      .Schema(monitor.schema())
                      .Classifier("naive-bayes")
                      .NoDetector()
                      .Seed(42)
                      .Shards(2)
                      .Protocol(cfg)
                      .Build()
                      .SerializeShard(0));
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);

  register_shard0(BuildMonitor(2).SerializeShard(0));
  EXPECT_NO_THROW(api::ShardedMonitor::Open(dir));
  RemoveTree(dir);
}

// Two shard files of one fleet with the same length swap undetected when
// the manifest CRC covers a sealed envelope whole (its value then depends
// on nothing but the length). The entry's CRC names the content, so Open
// refuses the swap even though both files are valid images of this fleet.
TEST(PersistOpenTest, SwappedShardFilesOfEqualLengthAreATypedError) {
  const std::string dir = ScratchDir("persist-swap");
  api::ShardedMonitor monitor =
      api::ShardedMonitorBuilder()
          .Schema(MakeRbfDriftStream(10, 1)->schema())
          .Classifier("naive-bayes")
          .NoDetector()
          .Seed(42)
          .Shards(2)
          .Build();
  const std::vector<KeyedFeed> schedule = MakeSchedule(200, 41);
  for (const KeyedFeed& f : schedule) monitor.Feed(f.key, f.instance);
  monitor.Persist(dir);

  io::SnapshotStore store(dir);
  const io::Manifest manifest =
      io::DecodeManifest(store.Read(io::kManifestName));
  const std::string a = store.Read(manifest.shards[0].file);
  const std::string b = store.Read(manifest.shards[1].file);
  ASSERT_EQ(a.size(), b.size()) << "the swap needs files of equal length";
  ASSERT_NE(a, b);
  store.Write(manifest.shards[0].file, b);
  store.Write(manifest.shards[1].file, a);
  EXPECT_THROW(api::ShardedMonitor::Open(dir), io::WireError);
  RemoveTree(dir);
}

// ------------------------------------------------------ schema conformance

// statedump --schema / CheckStateSchema: serialized images must conform
// to the wire grammars the static auditor pinned in tools/wire_schema.json
// (path injected by CMake as CCD_WIRE_SCHEMA_PATH).

std::string ReadCommittedManifest() {
  std::ifstream in(CCD_WIRE_SCHEMA_PATH);
  EXPECT_TRUE(in.good()) << "missing " << CCD_WIRE_SCHEMA_PATH;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(WireSchemaCheckTest, SerializedShardMatchesAuditedGrammar) {
  const std::map<std::string, std::string> schema =
      io::ParseWireSchema(ReadCommittedManifest());
  api::ShardedMonitor monitor = BuildMonitor(2);
  for (const KeyedFeed& f : MakeSchedule(400, 31)) {
    monitor.Feed(f.key, f.instance);
  }
  const io::SchemaCheckReport report =
      io::CheckStateSchema(monitor.SerializeShard(0), schema);
  EXPECT_TRUE(report.ok()) << (report.errors.empty()
                                   ? "no audited section found"
                                   : report.errors.front());
  // The image embeds at least the classifier (GaussianNB) and detector
  // (DDM) sections — both must have been found and matched.
  EXPECT_GE(report.sections_matched, 2);
}

// A manifest whose pattern no longer matches what the code writes — the
// corrupted / stale-manifest case — must be reported per section, and a
// blob containing *no* audited section must not pass vacuously.
TEST(WireSchemaCheckTest, CorruptedManifestIsCaught) {
  api::ShardedMonitor monitor = BuildMonitor(2);
  for (const KeyedFeed& f : MakeSchedule(200, 37)) {
    monitor.Feed(f.key, f.instance);
  }
  const std::string image = monitor.SerializeShard(0);

  std::map<std::string, std::string> doctored =
      io::ParseWireSchema(ReadCommittedManifest());
  ASSERT_EQ(doctored.count("DDM"), 1u);
  doctored["DDM"] = "^qqq$";  // DDM actually writes ^ddibiddd$.
  const io::SchemaCheckReport report = io::CheckStateSchema(image, doctored);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors.front().find("DDM"), std::string::npos);

  const io::SchemaCheckReport vacuous =
      io::CheckStateSchema(image, {{"NoSuchSection", "^d$"}});
  EXPECT_FALSE(vacuous.ok());

  // Bytes that are not an envelope fail at the seal, not with a crash.
  const io::SchemaCheckReport garbage = io::CheckStateSchema(
      "garbage", io::ParseWireSchema(ReadCommittedManifest()));
  EXPECT_FALSE(garbage.ok());
}

// A mangled manifest file fails loudly at parse time instead of silently
// checking nothing.
TEST(WireSchemaCheckTest, MalformedManifestThrows) {
  EXPECT_THROW(io::ParseWireSchema("{\"classes\": {\"A\": "),
               std::runtime_error);
  EXPECT_THROW(io::ParseWireSchema("{\"wire_version\": 1}"),
               std::runtime_error);
  EXPECT_THROW(io::ParseWireSchema("not json at all"), std::runtime_error);
}

// ------------------------------------------------------ SIGKILL the child

// The headline crash test: a child process serves the schedule, persisting
// every 128 feeds, and is SIGKILLed — no atexit, no destructors, no
// flushing — at whatever instant the parent's trigger lands (including,
// sometimes, mid-Persist). The reopened directory must (a) decode
// cleanly at *some* persisted cut ≤ the kill point, and (b) continuing
// the remaining schedule from that cut must be bit-identical to an
// uninterrupted oracle over the full schedule.
TEST(CrashRestartTest, KilledChildReopensAndContinuesBitIdentically) {
  const std::string dir = ScratchDir("crash-restart");
  constexpr size_t kTotal = 2000;
  constexpr size_t kEvery = 128;
  const std::vector<KeyedFeed> schedule = MakeSchedule(kTotal, 23);

  pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: single-threaded serving loop; persists every kEvery feeds.
    // _exit on every path — gtest must not run twice.
    try {
      api::ShardedMonitor monitor = BuildMonitor(3);
      for (size_t i = 0; i < schedule.size(); ++i) {
        monitor.Feed(schedule[i].key, schedule[i].instance);
        if ((i + 1) % kEvery == 0) monitor.Persist(dir);
      }
      // Finished before the kill landed — still a valid crash point
      // (the parent resumes from the last persisted cut either way).
      for (;;) ::pause();
    } catch (...) {
      ::_exit(13);
    }
  }

  // Parent: wait until a few generations are durable, then kill -9.
  uint64_t seen_generation = 0;
  for (int spin = 0; spin < 20000; ++spin) {
    try {
      io::SnapshotStore store(dir);
      if (store.Exists(io::kManifestName)) {
        seen_generation =
            io::DecodeManifest(store.Read(io::kManifestName)).generation;
      }
    } catch (const io::WireError&) {
      // Mid-rename or not yet written — keep polling.
    }
    if (seen_generation >= 5) break;
    ::usleep(1000);
  }
  ASSERT_GE(seen_generation, 5u) << "child never persisted far enough";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Reopen: must decode cleanly at a persisted cut on a feed boundary.
  api::ShardedMonitor reopened = api::ShardedMonitor::Open(dir);
  const uint64_t resumed_at = reopened.position();
  ASSERT_GT(resumed_at, 0u);
  ASSERT_LE(resumed_at, kTotal);
  ASSERT_EQ(resumed_at % kEvery, 0u)
      << "persisted cut must align with a Persist() call";

  // Continue the schedule from the cut; compare against the oracle that
  // was never interrupted (and never persisted).
  for (size_t i = resumed_at; i < schedule.size(); ++i) {
    reopened.Feed(schedule[i].key, schedule[i].instance);
  }
  api::ShardedMonitor oracle = BuildMonitor(3);
  for (const KeyedFeed& f : schedule) oracle.Feed(f.key, f.instance);
  ExpectMonitorsEqual(oracle, reopened);
  RemoveTree(dir);
}

// ------------------------------------------- SerializeShard/RestoreShard

// The in-process half of shard migration: serialize a live shard of A,
// restore it into B (same identity), and B's shard must continue exactly
// like A's would have.
TEST(ShardMigrationTest, SerializedShardRestoresBitIdentically) {
  const std::vector<KeyedFeed> schedule = MakeSchedule(1000, 29);
  api::ShardedMonitor a = BuildMonitor(2);
  api::ShardedMonitor b = BuildMonitor(2);
  for (size_t i = 0; i < 700; ++i) {
    a.Feed(schedule[i].key, schedule[i].instance);
  }

  const std::string image = a.SerializeShard(1);
  b.RestoreShard(1, image);
  ExpectSnapshotEq(b.ShardSnapshot(1), a.ShardSnapshot(1));

  // Malformed bytes and schema mismatches leave the target serving.
  EXPECT_THROW(b.RestoreShard(0, "garbage"), io::WireError);
  EXPECT_THROW(b.RestoreShard(5, image), std::out_of_range);

  // ShipShard pauses the source: pushes routed to it now throw, while
  // the serialized state keeps serving at the target.
  const std::string shipped = a.ShipShard(1);
  bool source_paused = false;
  for (const KeyedFeed& f : schedule) {
    try {
      a.Feed(f.key, f.instance);
    } catch (const std::logic_error&) {
      source_paused = true;  // This key routed to the shipped shard.
      break;
    }
  }
  EXPECT_TRUE(source_paused);
  b.RestoreShard(1, shipped);
  EXPECT_EQ(b.ShardSnapshot(1).position, a.ShardSnapshot(1).position);
}

// A well-formed image of another fleet must be refused before it touches
// the target. Accepting one would brick the store: the next Persist()
// writes a generation whose shard file Open() cannot decode, and retires
// the last readable one. Seeds may differ — LoadState()
// overwrites every RNG cursor — so a shard of the same fleet restores
// into any slot.
TEST(ShardMigrationTest, ForeignImagesAreRejectedAndPersistStaysOpenable) {
  const std::string dir = ScratchDir("foreign-image");
  const std::vector<KeyedFeed> schedule = MakeSchedule(800, 37);
  api::ShardedMonitor target = BuildMonitor(2);
  for (size_t i = 0; i < 500; ++i) {
    target.Feed(schedule[i].key, schedule[i].instance);
  }
  target.Persist(dir);

  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;
  auto fleet = [&] {
    return api::ShardedMonitorBuilder()
        .Schema(target.schema())
        .Classifier("naive-bayes")
        .Detector("DDM")
        .Seed(42)
        .Shards(2)
        .Protocol(cfg);
  };
  PrequentialConfig other_cfg = cfg;
  other_cfg.warmup = 101;
  const std::vector<std::string> foreign = {
      fleet().Classifier("cs-ptree").Build().SerializeShard(0),
      fleet().NoDetector().Build().SerializeShard(0),
      fleet().Detector("DDM", {"warning_level=2.5"}).Build().SerializeShard(0),
      fleet().Protocol(other_cfg).Build().SerializeShard(0),
  };
  const std::string before = target.SerializeShard(0);
  for (size_t i = 0; i < foreign.size(); ++i) {
    SCOPED_TRACE("foreign image " + std::to_string(i));
    EXPECT_THROW(target.RestoreShard(0, foreign[i]), api::ApiError);
    EXPECT_EQ(target.SerializeShard(0), before);
  }
  // Another seed of the same fleet is not foreign.
  EXPECT_NO_THROW(
      target.RestoreShard(0, fleet().Seed(7).Build().SerializeShard(1)));
  target.RestoreShard(0, before);

  // The target kept serving, and Persist/Open still round-trips.
  for (size_t i = 500; i < 650; ++i) {
    target.Feed(schedule[i].key, schedule[i].instance);
  }
  target.Persist(dir);
  api::ShardedMonitor reopened = api::ShardedMonitor::Open(dir);
  for (size_t i = 650; i < schedule.size(); ++i) {
    target.Feed(schedule[i].key, schedule[i].instance);
    reopened.Feed(schedule[i].key, schedule[i].instance);
  }
  ExpectMonitorsEqual(target, reopened);
  RemoveTree(dir);
}

// Component configuration travels only in the image's identity, which
// builds the components LoadState fills. A payload written under other
// params, re-sealed under this fleet's identity, must be refused by its
// shapes: here fleet B's default 100-bit FHDDM window under fleet A's
// window_size=25. Accepting it would leave shard 0 running a 100-bit
// window while its next image claimed 25.
TEST(ShardMigrationTest, PayloadOfOtherParamsUnderThisIdentityIsRefused) {
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;
  auto fleet = [&](const api::ParamMap& fhddm_params) {
    return api::ShardedMonitorBuilder()
        .Schema(MakeRbfDriftStream(10, 1)->schema())
        .Classifier("naive-bayes")
        .Detector("FHDDM", fhddm_params)
        .Seed(42)
        .Shards(2)
        .Protocol(cfg)
        .Build();
  };
  api::ShardedMonitor a = fleet({"window_size=25"});
  api::ShardedMonitor b = fleet({});
  for (const KeyedFeed& f : MakeSchedule(600, 43)) {
    a.Feed(f.key, f.instance);
    b.Feed(f.key, f.instance);
  }
  const std::string before = a.SerializeShard(0);
  const io::StateImage own = io::DecodeStateImage(before);
  const io::StateImage other = io::DecodeStateImage(b.SerializeShard(0));
  const std::string forged =
      io::EncodeStateImage(own.identity, other.snapshot, *other.classifier,
                           other.detector.get());

  EXPECT_THROW(a.RestoreShard(0, forged), io::WireError);
  EXPECT_EQ(a.SerializeShard(0), before);
}

}  // namespace
}  // namespace ccd
