#include "utils/parse_number.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace ccd {
namespace {

/// strtoX skips leading whitespace; a token that starts with it is not a
/// number here.
bool StartsCleanly(const std::string& text) {
  return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0]));
}

bool ConsumedAll(const std::string& text, const char* end) {
  return end == text.c_str() + text.size();
}

}  // namespace

const char* ParseInt(const std::string& text, int* out) {
  if (!StartsCleanly(text)) return "is not an integer";
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (!ConsumedAll(text, end)) return "is not an integer";
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) return "is out of range";
  *out = static_cast<int>(v);
  return nullptr;
}

const char* ParseU64(const std::string& text, uint64_t* out) {
  if (!StartsCleanly(text) || text[0] == '-') {
    return "is not a non-negative integer";
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (!ConsumedAll(text, end)) return "is not a non-negative integer";
  if (errno == ERANGE) return "is out of range";
  *out = static_cast<uint64_t>(v);
  return nullptr;
}

const char* ParseDouble(const std::string& text, double* out) {
  if (!StartsCleanly(text)) return "is not a number";
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (!ConsumedAll(text, end)) return "is not a number";
  // ERANGE also fires on underflow, where strtod still returns the best
  // representable value — only overflow is an error.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    return "is out of range";
  }
  *out = v;
  return nullptr;
}

}  // namespace ccd
