// Checked flag readers shared by the command-line tools (avt_cli's
// commands and gen_datasets): a value that does not parse, or falls
// outside the flag's range or type, is reported in one line naming the
// flag, and the caller exits 2, instead of being cast or defaulted.

#ifndef AVT_TOOLS_FLAG_READERS_H_
#define AVT_TOOLS_FLAG_READERS_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/flags.h"

namespace avt {
namespace cli {

// Reads integer flag --`name` into `*value` (`fallback` when absent).
// A value that does not parse, is below `min`, or does not fit T is
// rejected with a one-line error naming the flag; the caller exits 2.
template <typename T>
bool ReadIntFlag(const Flags& flags, const char* name, T fallback,
                 FILE* err, T* value, int64_t min = 0) {
  if (!flags.Has(name)) {
    *value = fallback;
    return true;
  }
  const std::string text = flags.GetString(name, "");
  const uint64_t max = std::min<uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<int64_t>::max());
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < min || (parsed > 0 && static_cast<uint64_t>(parsed) > max)) {
    const std::string kind =
        min > 0    ? "a positive integer"
        : min == 0 ? "a non-negative integer"
        : min == std::numeric_limits<int64_t>::min()
            ? "an integer"
            : "an integer of at least " + std::to_string(min);
    std::fprintf(err, "error: --%s must be %s (at most %llu, got '%s')\n",
                 name, kind.c_str(), static_cast<unsigned long long>(max),
                 text.c_str());
    return false;
  }
  *value = static_cast<T>(parsed);
  return true;
}

// Bounds for ReadDoubleFlag: [lo, hi], either end optionally open.
inline constexpr double kNoBound = std::numeric_limits<double>::infinity();
struct Interval {
  double lo;
  double hi = kNoBound;
  bool lo_open = false;
  bool hi_open = false;
};

// ReadIntFlag's twin for floating-point flags: a value that does not
// parse or falls outside `range` is rejected with a one-line error
// naming the flag; the caller exits 2.
inline bool ReadDoubleFlag(const Flags& flags, const char* name,
                           double fallback, FILE* err, double* value,
                           const Interval& range) {
  if (!flags.Has(name)) {
    *value = fallback;
    return true;
  }
  const std::string text = flags.GetString(name, "");
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  const bool in_range = (range.lo_open ? parsed > range.lo
                                       : parsed >= range.lo) &&
                        (range.hi_open ? parsed < range.hi
                                       : parsed <= range.hi);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || !in_range) {
    std::fprintf(err,
                 "error: --%s must be a number in %c%g, %g%c (got '%s')\n",
                 name, range.lo_open ? '(' : '[', range.lo, range.hi,
                 range.hi_open || std::isinf(range.hi) ? ')' : ']',
                 text.c_str());
    return false;
  }
  *value = parsed;
  return true;
}

inline constexpr Interval kNonNegative{0.0};
inline constexpr Interval kProbability{0.0, 1.0};
inline constexpr Interval kRate{0.0, 1.0, false, true};            // [0, 1)
inline constexpr Interval kPowerLawExponent{1.0, kNoBound, true};  // (1, inf)
inline constexpr Interval kPositive{0.0, kNoBound, true};          // (0, inf)
}  // namespace cli
}  // namespace avt

#endif  // AVT_TOOLS_FLAG_READERS_H_
