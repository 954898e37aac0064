#ifndef CCD_IO_MONITOR_SERVICE_H_
#define CCD_IO_MONITOR_SERVICE_H_

#include <string>

#include "api/sharded_monitor.h"
#include "io/frame_server.h"

namespace ccd {
namespace io {

/// The command dialect a FrameServer speaks on behalf of an
/// api::ShardedMonitor — one request frame in, one response frame out.
/// Commands are space-separated text (doubles printed with %.17g, so
/// every value round-trips bit-exactly through the text form); the two
/// migration commands carry a binary state image after a '\n', which the
/// length-prefixed framing makes safe.
///
///   PREDICT <key> <f...>                 -> OK <shard> <id> <label> <s...>
///   FEED <key> <y> <f...>                -> OK
///   LABEL <shard> <id> <y>               -> OK applied | OK unknown
///   STATS                                -> OK position=... pending=...
///   RESULT                               -> OK pmauc=... pmgm=...
///   PERSIST [<dir>]                      -> OK <dir>
///   SHIP <shard>                         -> OK\n<state image bytes>
///   LOAD <shard>\n<state image bytes>    -> OK
///
/// Every failure — unknown command, malformed number, engine/API errors —
/// is caught and answered as "ERR <message>": a bad request must never
/// take down the serving process. Thread-safety is inherited from the
/// monitor (every ShardedMonitor method is), so one service can back all
/// of a FrameServer's concurrent connections.
class MonitorService {
 public:
  /// `monitor` must outlive the service. `default_persist_dir` is what a
  /// bare PERSIST writes to; empty means PERSIST requires the argument.
  explicit MonitorService(api::ShardedMonitor* monitor,
                          std::string default_persist_dir = "");

  /// Dispatches one request, never throws.
  std::string Handle(const std::string& request);

  /// Adapter for FrameServer's constructor.
  FrameServer::Handler Handler() {
    return [this](const std::string& request) { return Handle(request); };
  }

 private:
  std::string Dispatch(const std::string& request);

  api::ShardedMonitor* monitor_;
  std::string default_persist_dir_;
};

}  // namespace io
}  // namespace ccd

#endif  // CCD_IO_MONITOR_SERVICE_H_
