#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace fsjoin {

std::vector<std::string_view> SplitString(std::string_view s,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string WithThousandsSep(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (size_t i = digits.size(); i > 0; --i) {
    out.push_back(digits[i - 1]);
    if (++count == 3 && i != 1) {
      out.push_back(',');
      count = 0;
    }
  }
  return std::string(out.rbegin(), out.rend());
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

namespace {

/// from_chars over all of `text`: false on no number or trailing bytes. A
/// whole but unrepresentable number returns true with *ec set.
template <typename T>
bool FromCharsWhole(std::string_view text, T* value, std::errc* ec) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *value);
  *ec = r.ec;
  return r.ptr == end && r.ptr != text.data();
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view text, int64_t min, int64_t max) {
  int64_t value = 0;
  std::errc ec{};
  if (!FromCharsWhole(text, &value, &ec)) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not an integer");
  }
  if (ec != std::errc{} || value < min || value > max) {
    return Status::InvalidArgument(
        "'" + std::string(text) + "' is out of range [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

Result<double> ParsePositive(std::string_view text, double max) {
  double value = 0;
  std::errc ec{};
  if (!FromCharsWhole(text, &value, &ec)) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not a number");
  }
  // The negated test also rejects NaN.
  if (ec != std::errc{} || !(value > 0.0 && value <= max)) {
    return Status::InvalidArgument(
        StrFormat("'%s' is out of range (0, %g]", std::string(text).c_str(),
                  max));
  }
  return value;
}

Result<double> ParseFraction(std::string_view text) {
  return ParsePositive(text, 1.0);
}

}  // namespace fsjoin
