#include "common/strings.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ocular {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> SplitAny(std::string_view s,
                                       std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = std::string_view::npos;
  for (size_t i = 0; i < s.size(); ++i) {
    const bool is_delim = delims.find(s[i]) != std::string_view::npos;
    if (is_delim) {
      if (start != std::string_view::npos) {
        out.push_back(s.substr(start, i - start));
        start = std::string_view::npos;
      }
    } else if (start == std::string_view::npos) {
      start = i;
    }
  }
  if (start != std::string_view::npos) out.push_back(s.substr(start));
  return out;
}

std::vector<std::string_view> SplitSeparator(std::string_view s,
                                             std::string_view sep) {
  std::vector<std::string_view> out;
  if (sep.empty()) {
    out.push_back(s);
    return out;
  }
  size_t start = 0;
  for (;;) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + sep.size();
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty integer field");
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("invalid integer: '" + std::string(s) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty float field");
  // std::from_chars for double is available in libstdc++ >= 11.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("invalid float: '" + std::string(s) + "'");
  }
  return value;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string FormatDouble(double v, int digits) {
  if (std::isnan(v)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string FormatCount(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace ocular
