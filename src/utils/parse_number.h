#ifndef CCD_UTILS_PARSE_NUMBER_H_
#define CCD_UTILS_PARSE_NUMBER_H_

#include <cstdint>
#include <string>

namespace ccd {

/// Strict number parsing, the one rule set behind every text front door
/// (Cli flags, ParamMap values, io::MonitorService requests). Each parser
/// stores the value of `text` in `*out` and returns nullptr, or returns
/// why `text` is not one ("is not an integer", "is out of range", ...)
/// and leaves `*out` untouched; callers wrap the reason in their own
/// error type.
///
/// The whole of `text` must be the number: no leading whitespace, no
/// trailing characters. Integers are base 10 and must fit the type; an
/// unsigned value takes no '-' (strtoull would wrap "-1" to 2^64 - 1).
/// Doubles follow strtod; one that underflows parses to strtod's nearest
/// value (a subnormal or zero), one that overflows is out of range.
const char* ParseInt(const std::string& text, int* out);
const char* ParseU64(const std::string& text, uint64_t* out);
const char* ParseDouble(const std::string& text, double* out);

}  // namespace ccd

#endif  // CCD_UTILS_PARSE_NUMBER_H_
