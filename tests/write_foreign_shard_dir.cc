// Writes two persisted 2-shard fleets for the statedump_verify_foreign_shard
// ctest (cmake/StatedumpForeignShard.cmake):
//
//   write_foreign_shard_dir <dir>
//
// <dir>/clean is a DDM fleet as Persist() wrote it. <dir>/foreign is the
// same fleet with shard 0's file replaced by shard 0 of a fleet without a
// detector, re-registered in the manifest with its true size and CRC, so
// only the identity check can tell. ShardedMonitor::Open refuses it, and
// so must `statedump --verify`.

#include <cstdio>
#include <string>

#include "api/sharded_monitor.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"

namespace {

ccd::api::ShardedMonitorBuilder Fleet() {
  return ccd::api::ShardedMonitorBuilder()
      .Schema(4, 3)
      .Classifier("naive-bayes")
      .Detector("DDM")
      .Seed(42)
      .Shards(2);
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc != 2) {
    std::fprintf(stderr, "usage: write_foreign_shard_dir <dir>\n");
    return 1;
  }
  const std::string dir = argv[1];
  Fleet().Build().Persist(dir + "/clean");

  const std::string foreign_dir = dir + "/foreign";
  Fleet().Build().Persist(foreign_dir);
  ccd::io::SnapshotStore store(foreign_dir);
  ccd::io::Manifest m =
      ccd::io::DecodeManifest(store.Read(ccd::io::kManifestName));
  const std::string bytes = Fleet().NoDetector().Build().SerializeShard(0);
  m.shards[0].size = bytes.size();
  m.shards[0].crc = ccd::io::ShardFileCrc(bytes);
  store.Write(m.shards[0].file, bytes);
  store.Write(ccd::io::kManifestName, ccd::io::EncodeManifest(m));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "write_foreign_shard_dir: %s\n", e.what());
  return 1;
}
