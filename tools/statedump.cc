// statedump — inspect a persisted api::ShardedMonitor directory (or a
// single sealed state-image file) without loading it into a monitor.
//
//   statedump <directory>            # manifest + every shard file
//   statedump <directory> --verify   # also print each shard's counters
//   statedump --image <file>         # one sealed .state image
//
// Every shard file of a directory gets exactly the check
// ShardedMonitor::Open() runs (io::ReadShardFile: size, content CRC,
// full decode, fleet identity and shard seed), so a directory statedump
// passes is one Open() accepts.
//
// Either mode accepts --schema <tools/wire_schema.json>: every decoded
// image's raw tag stream is additionally cross-checked against the
// per-component wire grammars the static auditor pinned in the manifest
// (see src/io/schema_check.h) — catching decoder drift that CRCs are
// blind to, because a re-encoded-but-wrong blob still checksums fine.
//
// Prints the wire-format version, the fleet identity (classifier /
// detector registry names and params), per-shard counters and CRCs.
// Exit status: 0 when everything checks out, 2 on any corruption — a
// truncated file, a CRC mismatch, a foreign version, a schema mismatch —
// so the tool can gate a restore in scripts. All integrity failures are
// io::WireError; nothing here is allowed to crash on hostile bytes.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/schema_check.h"
#include "io/snapshot_store.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "utils/cli.h"

namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ccd::io::WireError("file", 0, path + ": cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void PrintIdentity(const ccd::io::ShardIdentity& id) {
  std::printf("  schema      %d features, %d classes (%s)\n",
              id.schema.num_features, id.schema.num_classes,
              id.schema.name.c_str());
  std::printf("  classifier  %s%s%s\n", id.classifier.c_str(),
              id.classifier_params.empty() ? "" : "  ",
              id.classifier_params.c_str());
  std::printf("  detector    %s%s%s\n",
              id.detector.empty() ? "(none)" : id.detector.c_str(),
              id.detector_params.empty() ? "" : "  ",
              id.detector_params.c_str());
  std::printf("  seed        %llu\n",
              static_cast<unsigned long long>(id.seed));
}

void PrintImage(const std::string& label, const ccd::io::StateImage& image) {
  const ccd::EngineSnapshot& s = image.snapshot;
  std::printf("%s\n", label.c_str());
  PrintIdentity(image.identity);
  std::printf(
      "  counters    position=%llu pending=%llu evicted=%llu "
      "unmatched=%llu drifts=%zu\n",
      static_cast<unsigned long long>(s.position),
      static_cast<unsigned long long>(s.pending),
      static_cast<unsigned long long>(s.evicted),
      static_cast<unsigned long long>(s.unmatched_labels),
      s.drift_log.size());
}

/// The --schema cross-check on one sealed blob. Returns the number of
/// mismatches (0 when conformant); prints each error.
int CheckAgainstSchema(const std::string& label, const std::string& bytes,
                       const std::map<std::string, std::string>& schema) {
  ccd::io::SchemaCheckReport report = ccd::io::CheckStateSchema(bytes, schema);
  if (report.ok()) {
    std::printf("  schema-ok   %d section(s) match the audited grammar\n",
                report.sections_matched);
    return 0;
  }
  for (const std::string& err : report.errors) {
    std::fprintf(stderr, "%s: schema mismatch: %s\n", label.c_str(),
                 err.c_str());
  }
  return static_cast<int>(report.errors.size());
}

/// Dump one sealed image file; returns the process exit code.
int DumpImage(const std::string& path, bool decoded_ok_only,
              const std::map<std::string, std::string>* schema) {
  const std::string bytes = ReadFileOrDie(path);
  ccd::io::StateImage image = ccd::io::DecodeStateImage(bytes);
  if (!decoded_ok_only) {
    std::printf("%s: sealed state image, format v%u, %zu bytes, crc %08x\n",
                path.c_str(), ccd::io::kFormatVersion, bytes.size(),
                ccd::io::ShardFileCrc(bytes));
    PrintImage("", image);
  }
  if (schema != nullptr && CheckAgainstSchema(path, bytes, *schema) != 0) {
    return 2;
  }
  return 0;
}

int DumpDirectory(const std::string& dir, bool verify,
                  const std::map<std::string, std::string>* schema) {
  ccd::io::SnapshotStore store(dir);
  const std::string manifest_bytes = store.Read(ccd::io::kManifestName);
  const ccd::io::Manifest m = ccd::io::DecodeManifest(manifest_bytes);

  std::printf("%s: persisted monitor, format v%u, generation %llu\n",
              dir.c_str(), ccd::io::kFormatVersion,
              static_cast<unsigned long long>(m.generation));
  PrintIdentity(m.identity);
  std::printf("  shards      %zu, pending capacity %llu\n", m.shards.size(),
              static_cast<unsigned long long>(m.pending_capacity));

  int failures = 0;
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const ccd::io::Manifest::ShardFile& f = m.shards[i];
    std::printf("  shard %-3zu   %s  %llu bytes  crc %08x", i, f.file.c_str(),
                static_cast<unsigned long long>(f.size), f.crc);
    try {
      const ccd::io::StateImage image = ccd::io::ReadShardFile(store, m, i);
      if (verify) {
        std::printf("  position=%llu drifts=%zu",
                    static_cast<unsigned long long>(image.snapshot.position),
                    image.snapshot.drift_log.size());
      }
      std::printf("  ok\n");
      if (schema != nullptr &&
          CheckAgainstSchema(f.file, store.Read(f.file), *schema) != 0) {
        ++failures;
      }
    } catch (const ccd::io::WireError& e) {
      std::printf("  CORRUPT: %s\n", e.what());
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "%d of %zu shard file(s) failed verification\n",
                 failures, m.shards.size());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  ccd::Cli cli(argc, argv);
  const bool verify = cli.Has("verify");
  const std::string image = cli.GetString("image", "");
  const std::string schema_path = cli.GetString("schema", "");
  std::map<std::string, std::string> schema;
  if (!schema_path.empty()) {
    schema = ccd::io::ParseWireSchema(ReadFileOrDie(schema_path));
  }
  const std::map<std::string, std::string>* schema_ptr =
      schema_path.empty() ? nullptr : &schema;
  if (!image.empty()) {
    return DumpImage(image, /*decoded_ok_only=*/false, schema_ptr);
  }
  if (cli.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: statedump <directory> [--verify]"
                 " [--schema tools/wire_schema.json]\n"
                 "       statedump --image <file>"
                 " [--schema tools/wire_schema.json]\n");
    return 1;
  }
  return DumpDirectory(cli.positional()[0], verify, schema_ptr);
} catch (const ccd::io::WireError& e) {
  std::fprintf(stderr, "corrupt: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
