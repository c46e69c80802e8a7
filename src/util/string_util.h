#ifndef FSJOIN_UTIL_STRING_UTIL_H_
#define FSJOIN_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fsjoin {

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitString(std::string_view s,
                                          std::string_view delims);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// "1.5 GB"-style rendering of a byte count.
std::string HumanBytes(uint64_t bytes);

/// "12,345,678"-style rendering of a count.
std::string WithThousandsSep(uint64_t v);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Checked parsing of numbers from outside input (flags, environment). The
/// whole of `text` must be the number: no whitespace, no sign other than a
/// leading '-', no trailing characters. Each rejection is InvalidArgument
/// quoting the text.

/// A base-10 integer in [min, max].
Result<int64_t> ParseInt64(std::string_view text, int64_t min, int64_t max);

/// A decimal number in (0, max], e.g. a scale factor.
Result<double> ParsePositive(std::string_view text, double max);

/// A decimal fraction in (0, 1], e.g. a similarity threshold or a rate:
/// ParsePositive(text, 1).
Result<double> ParseFraction(std::string_view text);

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_STRING_UTIL_H_
