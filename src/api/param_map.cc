#include "api/param_map.h"

#include <cctype>
#include <sstream>

#include "utils/parse_number.h"

namespace ccd {
namespace api {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void ThrowMalformed(const std::string& key,
                                 const std::string& raw, const char* why) {
  throw ApiError("parameter '" + key + "=" + raw + "' " + why);
}

}  // namespace

ParamMap::ParamMap(std::initializer_list<std::string> overrides) {
  for (const std::string& o : overrides) Set(o);
}

ParamMap::ParamMap(const std::vector<std::string>& overrides) {
  for (const std::string& o : overrides) Set(o);
}

ParamMap ParamMap::Parse(const std::string& text) {
  ParamMap out;
  std::string token;
  for (char c : text + " ") {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!token.empty()) out.Set(token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return out;
}

void ParamMap::Set(const std::string& entry) {
  std::string e = Trim(entry);
  size_t eq = e.find('=');
  if (eq == std::string::npos) {
    throw ApiError("malformed parameter '" + entry +
                   "': expected key=value");
  }
  std::string key = Trim(e.substr(0, eq));
  std::string value = Trim(e.substr(eq + 1));
  if (key.empty() || value.empty()) {
    throw ApiError("malformed parameter '" + entry +
                   "': key and value must be non-empty");
  }
  if (values_.count(key)) {
    throw ApiError("duplicate parameter '" + key + "'");
  }
  values_[key] = value;
}

bool ParamMap::Has(const std::string& key) const {
  return values_.count(key) != 0;
}

const std::string* ParamMap::Raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.insert(key);
  return &it->second;
}

int ParamMap::GetInt(const std::string& key, int def) const {
  const std::string* raw = Raw(key);
  if (raw == nullptr) return def;
  if (const char* why = ParseInt(*raw, &def)) ThrowMalformed(key, *raw, why);
  return def;
}

double ParamMap::GetDouble(const std::string& key, double def) const {
  const std::string* raw = Raw(key);
  if (raw == nullptr) return def;
  if (const char* why = ParseDouble(*raw, &def)) ThrowMalformed(key, *raw, why);
  return def;
}

bool ParamMap::GetBool(const std::string& key, bool def) const {
  const std::string* raw = Raw(key);
  if (raw == nullptr) return def;
  if (*raw == "true" || *raw == "1" || *raw == "on" || *raw == "yes") {
    return true;
  }
  if (*raw == "false" || *raw == "0" || *raw == "off" || *raw == "no") {
    return false;
  }
  ThrowMalformed(key, *raw,
                 "is not a boolean (use true/false/1/0/on/off/yes/no)");
}

std::string ParamMap::GetString(const std::string& key,
                                const std::string& def) const {
  const std::string* raw = Raw(key);
  return raw == nullptr ? def : *raw;
}

std::vector<std::string> ParamMap::UnusedKeys() const {
  std::vector<std::string> out;
  for (const auto& kv : values_) {
    if (!used_.count(kv.first)) out.push_back(kv.first);
  }
  return out;
}

void ParamMap::ThrowIfUnused(const std::string& component) const {
  std::vector<std::string> unused = UnusedKeys();
  if (unused.empty()) return;
  std::string msg = "unknown parameter";
  if (unused.size() > 1) msg += "s";
  for (const std::string& k : unused) msg += " '" + k + "'";
  msg += " for " + component;
  throw ApiError(msg);
}

std::string ParamMap::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& kv : values_) {
    if (!first) out << " ";
    out << kv.first << "=" << kv.second;
    first = false;
  }
  return out.str();
}

}  // namespace api
}  // namespace ccd
