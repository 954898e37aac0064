#ifndef CCD_IO_STATE_CODEC_H_
#define CCD_IO_STATE_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classifiers/classifier.h"
#include "detectors/detector.h"
#include "eval/engine.h"
#include "eval/prequential.h"
#include "io/shard_identity.h"
#include "io/snapshot_store.h"
#include "io/wire.h"

namespace ccd {
namespace io {

/// Codecs for the evaluation-layer aggregates: the run state of a
/// MonitorEngine (EngineSnapshot), its protocol (PrequentialConfig), and
/// the complete durable form of one monitoring shard (StateImage). These
/// sit one layer above io/codecs.h — they may depend on eval/ and on the
/// api component registries, which the per-component codecs must not.

void WriteConfig(Writer& w, const PrequentialConfig& config);
PrequentialConfig ReadConfig(Reader& r);

/// Exact inverse pair: ReadSnapshot(WriteSnapshot(s)) == s field for
/// field, bit for bit (doubles travel as IEEE-754 bit patterns).
/// Structural validation (window within the configured bound, pending ids
/// ascending, ...) stays where it always was — MonitorEngine::Restore();
/// the codec only enforces wire-format integrity.
void WriteSnapshot(Writer& w, const EngineSnapshot& snapshot);
EngineSnapshot ReadSnapshot(Reader& r);

/// The decoded form of one monitoring shard: its identity, the engine's
/// run state, and the components rebuilt from the identity with their
/// learned state loaded. Move-only: exactly one engine may own (and
/// mutate) the components it carries.
struct StateImage {
  ShardIdentity identity;
  EngineSnapshot snapshot;
  std::unique_ptr<OnlineClassifier> classifier;
  std::unique_ptr<DriftDetector> detector;  ///< Null when no detector runs.
};

/// Serializes a live shard into a sealed envelope (magic, format version,
/// CRC-32 trailer — see io/wire.h): `identity`, `snapshot`, then the
/// components' own SaveState() payloads, each wrapped in a section named
/// by its name() so bytes of the wrong component fail typed. The
/// components are written in place — nothing is copied. `detector` may be
/// null. Throws std::logic_error when a component does not implement
/// SaveState(), naming it.
std::string EncodeStateImage(const ShardIdentity& identity,
                             const EngineSnapshot& snapshot,
                             const OnlineClassifier& classifier,
                             const DriftDetector* detector);

/// Parses a sealed envelope back into a StateImage: validates magic,
/// version and CRC, reads the identity and run state, builds the
/// components through the api registries from the identity's names and
/// params (an unknown name or out-of-domain params surface as WireError
/// at "image.components", not ApiError) and loads their learned state via
/// LoadState(), which checks each payload's shapes against the built
/// instance. Every malformed input path throws WireError.
StateImage DecodeStateImage(const std::string& bytes);

/// File name of a persisted monitor's manifest inside its directory. The
/// manifest is renamed into place *after* every shard file of its
/// generation is durable, so its presence is the commit point: a crash
/// mid-persist leaves either the complete previous generation or the
/// complete new one, never a mix.
extern const char kManifestName[];

/// Directory manifest of a persisted api::ShardedMonitor: the fleet
/// identity (everything the builder was told) plus one entry per shard
/// file with its expected size and content CRC (ShardFileCrc), so a
/// reopened monitor detects a swapped, stale or truncated shard file
/// before decoding a byte of it.
struct Manifest {
  struct ShardFile {
    std::string file;
    uint64_t size = 0;
    uint32_t crc = 0;
  };

  ShardIdentity identity;  ///< Seed = the fleet's base seed.
  uint64_t pending_capacity = 0;
  uint64_t generation = 0;
  std::vector<ShardFile> shards;
};

/// Envelope-sealed manifest bytes (same magic/version/CRC framing as
/// state images).
std::string EncodeManifest(const Manifest& manifest);

/// Parses and validates manifest bytes; throws WireError on corruption or
/// an empty shard list.
Manifest DecodeManifest(const std::string& bytes);

/// The CRC a manifest entry records for a sealed shard file: CRC-32 over
/// every byte before the trailer, which equals the trailer itself, so it
/// names the file's content.
uint32_t ShardFileCrc(const std::string& sealed);

/// Reads shard file `shard` of `manifest` from `store` and checks it the
/// one way ShardedMonitor::Open() and statedump both do: the size and
/// content CRC of its entry, a full decode, and an identity that
/// ForeignImageReason() accepts with the seed base + `shard`. Throws
/// WireError naming the file on any mismatch.
StateImage ReadShardFile(const SnapshotStore& store, const Manifest& manifest,
                         size_t shard);

}  // namespace io
}  // namespace ccd

#endif  // CCD_IO_STATE_CODEC_H_
