#include "io/monitor_service.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "utils/parse_number.h"

namespace ccd {
namespace io {

namespace {

/// %.17g: the shortest printf precision that round-trips every finite
/// double bit-exactly — the text protocol must not be where bit-identical
/// serving quietly dies.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One request token parsed by `parse` (utils/parse_number.h); throws
/// std::invalid_argument naming `what` and the token when it is malformed.
template <typename T>
T ParseToken(const char* (*parse)(const std::string&, T*),
             const std::string& token, const char* what) {
  T value{};
  if (const char* why = parse(token, &value)) {
    throw std::invalid_argument(std::string(what) + " '" + token + "' " + why);
  }
  return value;
}

std::vector<double> ParseFeatures(const std::vector<std::string>& tokens,
                                  size_t from) {
  if (from >= tokens.size()) {
    throw std::invalid_argument("missing feature values");
  }
  std::vector<double> features;
  features.reserve(tokens.size() - from);
  for (size_t i = from; i < tokens.size(); ++i) {
    features.push_back(ParseToken(ParseDouble, tokens[i], "feature"));
  }
  return features;
}

std::string FormatPrediction(const api::ShardedMonitor::Prediction& p) {
  std::string out = "OK " + std::to_string(p.shard) + " " +
                    std::to_string(p.id) + " " + std::to_string(p.label);
  for (double s : p.scores) out += " " + FormatDouble(s);
  return out;
}

}  // namespace

MonitorService::MonitorService(api::ShardedMonitor* monitor,
                               std::string default_persist_dir)
    : monitor_(monitor), default_persist_dir_(std::move(default_persist_dir)) {}

std::string MonitorService::Handle(const std::string& request) {
  try {
    return Dispatch(request);
  } catch (const std::exception& e) {
    return std::string("ERR ") + e.what();
  }
}

std::string MonitorService::Dispatch(const std::string& request) {
  // The two binary commands split at the first newline; everything before
  // it is the text header, everything after the verbatim payload.
  const size_t newline = request.find('\n');
  const std::string header =
      newline == std::string::npos ? request : request.substr(0, newline);

  std::istringstream in(header);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(std::move(token));
  if (tokens.empty()) throw std::invalid_argument("empty request");
  const std::string& command = tokens[0];

  if (command == "PREDICT") {
    if (tokens.size() < 3) {
      throw std::invalid_argument("usage: PREDICT <key> <features...>");
    }
    uint64_t key = ParseToken(ParseU64, tokens[1], "key");
    return FormatPrediction(monitor_->Predict(key, ParseFeatures(tokens, 2)));
  }

  if (command == "FEED") {
    if (tokens.size() < 4) {
      throw std::invalid_argument("usage: FEED <key> <label> <features...>");
    }
    Instance instance;
    uint64_t key = ParseToken(ParseU64, tokens[1], "key");
    instance.label = ParseToken(ParseInt, tokens[2], "label");
    instance.features = ParseFeatures(tokens, 3);
    monitor_->Feed(key, instance);
    return "OK";
  }

  if (command == "LABEL") {
    if (tokens.size() != 4) {
      throw std::invalid_argument("usage: LABEL <shard> <id> <label>");
    }
    bool applied = monitor_->Label(ParseToken(ParseInt, tokens[1], "shard"),
                                   ParseToken(ParseU64, tokens[2], "id"),
                                   ParseToken(ParseInt, tokens[3], "label"));
    return applied ? "OK applied" : "OK unknown";
  }

  if (command == "STATS") {
    // One sweep: every shard's counters come from one cut of that shard.
    const api::ShardedMonitor::Counters c = monitor_->SumCounters();
    return "OK position=" + std::to_string(c.position) +
           " pending=" + std::to_string(c.pending) +
           " evicted=" + std::to_string(c.evicted) +
           " unmatched=" + std::to_string(c.unmatched_labels) +
           " shards=" + std::to_string(monitor_->shards()) +
           " drifts=" + std::to_string(c.drifts);
  }

  if (command == "RESULT") {
    PrequentialResult r = monitor_->Result();
    return "OK pmauc=" + FormatDouble(r.mean_pmauc) +
           " pmgm=" + FormatDouble(r.mean_pmgm) +
           " accuracy=" + FormatDouble(r.mean_accuracy) +
           " kappa=" + FormatDouble(r.mean_kappa) +
           " instances=" + std::to_string(r.instances) +
           " drifts=" + std::to_string(r.drifts);
  }

  if (command == "PERSIST") {
    std::string dir =
        tokens.size() >= 2 ? tokens[1] : default_persist_dir_;
    if (dir.empty()) {
      throw std::invalid_argument(
          "PERSIST needs a directory (none configured)");
    }
    monitor_->Persist(dir);
    return "OK " + dir;
  }

  if (command == "SHIP") {
    if (tokens.size() != 2) throw std::invalid_argument("usage: SHIP <shard>");
    return "OK\n" +
           monitor_->ShipShard(ParseToken(ParseInt, tokens[1], "shard"));
  }

  if (command == "LOAD") {
    if (tokens.size() != 2 || newline == std::string::npos) {
      throw std::invalid_argument(
          "usage: LOAD <shard>\\n<state image bytes>");
    }
    monitor_->RestoreShard(ParseToken(ParseInt, tokens[1], "shard"),
                           request.substr(newline + 1));
    return "OK";
  }

  throw std::invalid_argument(
      "unknown command '" + command +
      "'; commands: PREDICT FEED LABEL STATS RESULT PERSIST SHIP LOAD");
}

}  // namespace io
}  // namespace ccd
