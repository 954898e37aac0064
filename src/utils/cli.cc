#include "utils/cli.h"

#include "utils/parse_number.h"

namespace ccd {
namespace {

[[noreturn]] void ThrowMalformed(const std::string& name,
                                 const std::string& value, const char* why) {
  throw CliError("--" + name + ": '" + value + "' " + why);
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      std::string value = "1";
      auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      flags_[name] = value;
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Cli::Has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::GetString(const std::string& name,
                           const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int Cli::GetInt(const std::string& name, int def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  if (const char* why = ParseInt(it->second, &def)) {
    ThrowMalformed(name, it->second, why);
  }
  return def;
}

double Cli::GetDouble(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  if (const char* why = ParseDouble(it->second, &def)) {
    ThrowMalformed(name, it->second, why);
  }
  return def;
}

bool Cli::GetBool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& value = it->second;
  if (value == "1" || value == "true" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  ThrowMalformed(name, value,
                 "is not a boolean (1/0/true/false/yes/no/on/off)");
}

}  // namespace ccd
