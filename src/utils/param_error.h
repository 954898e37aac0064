#ifndef CCD_UTILS_PARAM_ERROR_H_
#define CCD_UTILS_PARAM_ERROR_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace ccd {

/// A component parameter outside its domain. field() is the qualified key
/// of the offending member ("rbm.cd_steps", "wstd.window_size"), the same
/// key a state image whose identity names such params reports through
/// io::WireError.
class ParamError : public std::invalid_argument {
 public:
  ParamError(const std::string& field, const std::string& message)
      : std::invalid_argument(field + ": " + message), field_(field) {}
  const std::string& field() const { return field_; }

  /// Throws "<field>: must <rule>, got <value>" unless `ok`.
  static void Require(bool ok, const char* field, const char* rule,
                      double value) {
    if (ok) return;
    std::ostringstream message;
    message << "must " << rule << ", got " << value;
    throw ParamError(field, message.str());
  }

 private:
  std::string field_;
};

}  // namespace ccd

#endif  // CCD_UTILS_PARAM_ERROR_H_
