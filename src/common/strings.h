#ifndef OCULAR_COMMON_STRINGS_H_
#define OCULAR_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ocular {

/// Splits `s` on `delim`, keeping empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string_view> Split(std::string_view s, char delim);

/// Splits `s` on any character in `delims`, dropping empty fields
/// (whitespace-tokenizer behavior).
std::vector<std::string_view> SplitAny(std::string_view s,
                                       std::string_view delims);

/// Splits on a multi-character separator (e.g. "::" for MovieLens-1M).
std::vector<std::string_view> SplitSeparator(std::string_view s,
                                             std::string_view sep);

/// True for the C locale's whitespace set: ' ', '\t', '\n', '\v', '\f',
/// '\r'. What std::isspace answers in the "C" locale, without the locale
/// lookup (the program never calls setlocale).
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Removes leading/trailing ASCII whitespace (IsAsciiSpace).
constexpr std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Strict integer / floating-point parsers. Reject trailing garbage.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `digits` significant decimal places (for report
/// tables; avoids std::format dependence).
std::string FormatDouble(double v, int digits = 4);

/// Renders a human-readable count, e.g. 1234567 -> "1,234,567".
std::string FormatCount(uint64_t v);

}  // namespace ocular

#endif  // OCULAR_COMMON_STRINGS_H_
