#ifndef CCD_IO_SHARD_IDENTITY_H_
#define CCD_IO_SHARD_IDENTITY_H_

#include <cstdint>
#include <optional>
#include <string>

#include "eval/prequential.h"
#include "stream/instance.h"

namespace ccd {
namespace io {

/// Which fleet a shard belongs to: the registry identity needed to rebuild
/// its components from nothing (names + canonical `key=value` params +
/// seed) and the evaluation protocol. The one record of these fields:
/// api::ShardedMonitorBuilder fills it, api::ShardedMonitor keeps it with
/// the base seed, a state image carries it with its shard's seed
/// (base + shard index) and the persisted Manifest with the base seed.
/// It is also the only copy of the components' configuration on the
/// wire: their SaveState() payloads carry learned state alone.
struct ShardIdentity {
  StreamSchema schema;
  std::string classifier;         ///< Registry name, e.g. "cs-ptree".
  std::string classifier_params;  ///< ParamMap::ToString() canonical form.
  std::string detector;           ///< Registry name; empty = no detector.
  std::string detector_params;
  uint64_t seed = 0;
  PrequentialConfig config;
};

/// Why a shard image with identity `image` cannot join the fleet whose
/// identity is `own`, or nullopt when it can. The one comparison of two
/// identities: ShardedMonitor::RestoreShard() and ReadShardFile() both
/// decide through it. Seeds are not compared (a shard may move to any
/// slot), nor is the schema's display name.
std::optional<std::string> ForeignImageReason(const ShardIdentity& image,
                                              const ShardIdentity& own);

}  // namespace io
}  // namespace ccd

#endif  // CCD_IO_SHARD_IDENTITY_H_
