// The framed socket front door (io/frame.h, io/frame_server.h,
// io/monitor_service.h): frame codec on raw fds, request/response over a
// real Unix-domain socket with concurrent clients, the MonitorService
// text dialect end to end against a live ShardedMonitor, and the
// SHIP/LOAD migration handshake between two monitors — proven equivalent
// to driving the monitor directly in-process.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/sharded_monitor.h"
#include "io/frame.h"
#include "io/frame_server.h"
#include "io/monitor_service.h"
#include "io/wire.h"
#include "testing_util.h"

namespace ccd {
namespace {

using test_util::ExpectBitIdentical;
using test_util::ExpectSnapshotEq;
using test_util::MakeRbfDriftStream;
using test_util::RunProducers;
using test_util::ShortConfig;

/// Short, unique socket path (sun_path caps out near 108 bytes, so no
/// ::testing::TempDir() nesting here).
std::string SocketPath(const char* name) {
  return "/tmp/ccd-" + std::string(name) + "-" + std::to_string(::getpid()) +
         ".sock";
}

// ------------------------------------------------------------ frame codec

TEST(FrameTest, RoundTripsOverAPipeAndDetectsTruncation) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = std::string("\x00\x01", 2) + '\xFF' + "frame";
  io::WriteFrame(fds[1], payload);
  io::WriteFrame(fds[1], "");  // Empty payloads are legal frames.
  std::string got;
  ASSERT_TRUE(io::ReadFrame(fds[0], &got));
  EXPECT_EQ(got, payload);
  ASSERT_TRUE(io::ReadFrame(fds[0], &got));
  EXPECT_EQ(got, "");

  // Clean EOF at a frame boundary: false, not an error.
  ::close(fds[1]);
  EXPECT_FALSE(io::ReadFrame(fds[0], &got));
  ::close(fds[0]);

  // EOF in the middle of a frame: a typed error — the peer died mid-send.
  ASSERT_EQ(::pipe(fds), 0);
  const char partial[] = {8, 0, 0, 0, 'h', 'a'};  // Promises 8, sends 2.
  ASSERT_EQ(::write(fds[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  EXPECT_THROW(io::ReadFrame(fds[0], &got), io::WireError);
  ::close(fds[0]);
}

TEST(FrameTest, OversizedLengthPrefixIsRejectedBeforeAllocating) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const unsigned char huge[] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2 GiB claim.
  ASSERT_EQ(::write(fds[1], huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  std::string got;
  EXPECT_THROW(io::ReadFrame(fds[0], &got), io::WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------------------------ FrameServer

TEST(FrameServerTest, ServesConcurrentClientsAndStopsCleanly) {
  const std::string path = SocketPath("echo");
  io::FrameServer server(path, [](const std::string& request) {
    return "echo:" + request;
  });

  // 4 clients hammering concurrently; each has its own connection, so
  // the one-in-one-out contract holds per client.
  RunProducers(4, [&](int who) {
    io::FrameClient client(path);
    for (int i = 0; i < 50; ++i) {
      const std::string msg =
          std::to_string(who) + "/" + std::to_string(i);
      ASSERT_EQ(client.Call(msg), "echo:" + msg);
    }
  });

  server.Stop();
  server.Stop();  // Idempotent.
  // The socket file is gone; a fresh client cannot connect.
  EXPECT_THROW(io::FrameClient{path}, io::WireError);
}

TEST(FrameServerTest, HandlerExceptionClosesOnlyThatConnection) {
  const std::string path = SocketPath("throwy");
  io::FrameServer server(path, [](const std::string& request) -> std::string {
    if (request == "boom") throw std::runtime_error("handler exploded");
    return "ok";
  });

  io::FrameClient victim(path);
  EXPECT_THROW(victim.Call("boom"), io::WireError);  // Server hung up.
  // The server survives: a new connection serves normally.
  io::FrameClient fresh(path);
  EXPECT_EQ(fresh.Call("ping"), "ok");
  server.Stop();
}

// --------------------------------------------------------- MonitorService

class MonitorServiceTest : public ::testing::Test {
 protected:
  static api::ShardedMonitor MakeMonitor() {
    StreamSchema schema = MakeRbfDriftStream(10, 1)->schema();
    PrequentialConfig cfg = ShortConfig();
    cfg.warmup = 100;
    return api::ShardedMonitorBuilder()
        .Schema(schema)
        .Classifier("naive-bayes")
        .Detector("DDM")
        .Seed(42)
        .Shards(2)
        .Protocol(cfg)
        .Build();
  }

  static std::string FeedLine(uint64_t key, const Instance& inst) {
    std::ostringstream line;
    line << "FEED " << key << " " << inst.label;
    char buf[32];
    for (double f : inst.features) {
      std::snprintf(buf, sizeof(buf), "%.17g", f);
      line << " " << buf;
    }
    return line.str();
  }
};

// Drive a monitor purely through the socket dialect and compare with a
// twin driven directly in-process: the text protocol must not be where
// bit-identical serving dies (doubles travel as %.17g).
TEST_F(MonitorServiceTest, SocketServingMatchesDirectServingBitIdentically) {
  api::ShardedMonitor served = MakeMonitor();
  api::ShardedMonitor oracle = MakeMonitor();
  io::MonitorService service(&served);
  const std::string path = SocketPath("serve");
  io::FrameServer server(path, service.Handler());
  io::FrameClient client(path);

  auto stream = MakeRbfDriftStream(400, 7);
  const std::vector<Instance> data = Take(stream.get(), 800);
  for (size_t i = 0; i < data.size(); ++i) {
    const uint64_t key = 100 + (i * 31) % 41;
    const std::string reply = client.Call(FeedLine(key, data[i]));
    ASSERT_EQ(reply, "OK") << "instance " << i;
    oracle.Feed(key, data[i]);
  }

  ExpectBitIdentical(served.Result(), oracle.Result());
  ExpectSnapshotEq(served.Snapshot(), oracle.Snapshot());

  // STATS and RESULT report the same numbers the direct API returns.
  const std::string stats = client.Call("STATS");
  EXPECT_NE(stats.find("position=" + std::to_string(oracle.position())),
            std::string::npos)
      << stats;
  // The drift count comes from per-shard counters, not a copied drift
  // log; it must still agree with the log on a stream that drifts.
  const size_t drifts_at = stats.find("drifts=");
  ASSERT_NE(drifts_at, std::string::npos) << stats;
  const uint64_t drifts = std::stoull(stats.substr(drifts_at + 7));
  EXPECT_EQ(drifts, oracle.DriftLog().size()) << stats;
  EXPECT_EQ(drifts, served.drifts());
  EXPECT_GT(drifts, 0u) << stats;
  char expect_pmauc[64];
  std::snprintf(expect_pmauc, sizeof(expect_pmauc), "pmauc=%.17g",
                oracle.Result().mean_pmauc);
  EXPECT_NE(client.Call("RESULT").find(expect_pmauc), std::string::npos);
  server.Stop();
}

TEST_F(MonitorServiceTest, PredictLabelTicketFlowWorksOverTheWire) {
  api::ShardedMonitor monitor = MakeMonitor();
  io::MonitorService service(&monitor);

  const std::string reply = service.Handle("PREDICT 7 0.5 -1 0.25 3 0.125 2");
  ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  std::istringstream in(reply);
  std::string ok;
  int shard = -1, label = -1;
  uint64_t id = 0;
  in >> ok >> shard >> id >> label;
  EXPECT_GE(shard, 0);
  EXPECT_LT(shard, monitor.shards());

  EXPECT_EQ(service.Handle("LABEL " + std::to_string(shard) + " " +
                           std::to_string(id) + " 1"),
            "OK applied");
  // The ticket is spent now.
  EXPECT_EQ(service.Handle("LABEL " + std::to_string(shard) + " " +
                           std::to_string(id) + " 1"),
            "OK unknown");
  EXPECT_EQ(monitor.position(), 1u);
  // An underflowing feature reads as strtod's nearest value, as Cli and
  // ParamMap read it.
  EXPECT_EQ(service.Handle("FEED 7 0 1e-400 0 0 0 0 0"), "OK");
  EXPECT_EQ(monitor.position(), 2u);
}

TEST_F(MonitorServiceTest, MalformedRequestsReturnErrNeverThrow) {
  api::ShardedMonitor monitor = MakeMonitor();
  io::MonitorService service(&monitor);
  // A well-formed image of another fleet (cs-ptree, same schema and
  // protocol): accepting it would make the next PERSIST write a
  // generation Open() cannot read.
  PrequentialConfig cfg = ShortConfig();
  cfg.warmup = 100;
  const std::string foreign = api::ShardedMonitorBuilder()
                                  .Schema(monitor.schema())
                                  .Classifier("cs-ptree")
                                  .Detector("DDM")
                                  .Seed(42)
                                  .Shards(2)
                                  .Protocol(cfg)
                                  .Build()
                                  .SerializeShard(0);
  const std::string shard0 = monitor.SerializeShard(0);
  const std::vector<std::string> bad = {
      "",                        // Empty request.
      "NOSUCH 1 2 3",            // Unknown command.
      "PREDICT",                 // Missing key + features.
      "PREDICT notakey 1 2",     // Key is not a number.
      "FEED 7 notalabel 1 2",    // Label is not a number.
      "FEED 7 1 0.5 bogus",      // Feature is not a number.
      "LABEL 0 1",               // Wrong arity.
      "LABEL 99 1 0",            // Shard out of range.
      "PERSIST",                 // No directory configured.
      "SHIP notashard",          // Shard is not a number.
      "LOAD 0",                  // Binary command without payload.
      "LOAD 0\nnot a state image",
      "LOAD 0\n" + foreign,    // Another fleet's shard.
      "PREDICT -1 1 2 3 4 5 6",  // Negative key (strtoull wraps it).
      "LABEL 0 -3 1",            // Negative id.
  };
  for (const std::string& request : bad) {
    SCOPED_TRACE(request);
    const std::string reply = service.Handle(request);
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
  }
  // The monitor is untouched by the whole gauntlet.
  EXPECT_EQ(monitor.position(), 0u);
  EXPECT_EQ(monitor.SerializeShard(0), shard0);
}

// A row that fails admission is answered ERR on the same connection,
// which stays open: the next request on it is served, and the refused
// rows changed nothing STATS reports.
TEST_F(MonitorServiceTest, RefusedRowsAnswerErrAndKeepTheConnection) {
  api::ShardedMonitor monitor = MakeMonitor();
  io::MonitorService service(&monitor);
  const std::string path = SocketPath("admit");
  io::FrameServer server(path, service.Handler());
  io::FrameClient client(path);

  auto stream = MakeRbfDriftStream(400, 11);
  const std::vector<Instance> data = Take(stream.get(), 200);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(client.Call(FeedLine(7 + i % 5, data[i])), "OK");
  }
  const std::string stats = client.Call("STATS");
  Instance nan = data[0];
  nan.features[0] = std::numeric_limits<double>::quiet_NaN();  // "nan".
  Instance wide = data[0];
  wide.features.push_back(0.5);
  Instance label = data[0];
  label.label = monitor.schema().num_classes;
  const std::vector<std::string> refused = {
      FeedLine(7, nan),
      FeedLine(7, wide),
      FeedLine(7, label),
      "PREDICT 7 inf 0 0 0 0 0",
      "LABEL 0 1 -1",
  };
  for (const std::string& request : refused) {
    SCOPED_TRACE(request);
    const std::string reply = client.Call(request);
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_EQ(client.Call("STATS"), stats);
  }
  EXPECT_EQ(client.Call(FeedLine(7, data[0])), "OK");
  EXPECT_EQ(monitor.position(), data.size() + 1);
  server.Stop();
}

// The cross-process migration handshake, in-process: SHIP a live shard
// out of monitor A (which pauses it) and LOAD the payload into monitor B;
// B's shard must continue exactly where A's stopped.
TEST_F(MonitorServiceTest, ShipLoadHandshakeMovesAShardBetweenMonitors) {
  api::ShardedMonitor a = MakeMonitor();
  api::ShardedMonitor b = MakeMonitor();
  io::MonitorService service_a(&a);
  io::MonitorService service_b(&b);

  auto stream = MakeRbfDriftStream(300, 9);
  const std::vector<Instance> data = Take(stream.get(), 600);
  for (size_t i = 0; i < data.size(); ++i) {
    a.Feed(100 + (i * 31) % 41, data[i]);
  }
  const EngineSnapshot before = a.ShardSnapshot(1);

  const std::string shipped = service_a.Handle("SHIP 1");
  ASSERT_EQ(shipped.rfind("OK\n", 0), 0u);
  const std::string payload = shipped.substr(3);

  EXPECT_EQ(service_b.Handle("LOAD 1\n" + payload), "OK");
  ExpectSnapshotEq(b.ShardSnapshot(1), before);

  // Source shard is shipped; a push routed to it is refused (ERR), while
  // the same key keeps serving at the target.
  const uint64_t key = test_util::KeysForSlot(/*slot=*/1, /*slots=*/2, 1)[0];
  EXPECT_EQ(service_a.Handle(FeedLine(key, data[0])).rfind("ERR ", 0), 0u);
  EXPECT_EQ(service_b.Handle(FeedLine(key, data[0])), "OK");
}

}  // namespace
}  // namespace ccd
