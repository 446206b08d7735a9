#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace bgl {

std::string trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return std::string(text.substr(begin, end - begin));
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      break;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> fields;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) fields.emplace_back(text.substr(start, i - start));
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::optional<long long> parse_int(std::string_view token) {
  long long value = 0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view token) {
  // std::from_chars<double> is available on GCC 12; use it for strictness.
  double value = 0.0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

long long require_int(const std::string& flag, const std::string& token) {
  const auto v = parse_int(token);
  if (!v) throw ConfigError(flag + " requires an integer, got '" + token + "'");
  return *v;
}

double require_double(const std::string& flag, const std::string& token) {
  const auto v = parse_double(token);
  if (!v) throw ConfigError(flag + " requires a number, got '" + token + "'");
  return *v;
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

std::string format_duration(double seconds) {
  if (!std::isfinite(seconds)) return "inf";
  const bool negative = seconds < 0;
  long long total = static_cast<long long>(std::llround(std::fabs(seconds)));
  const long long days = total / 86400;
  total %= 86400;
  const long long hours = total / 3600;
  total %= 3600;
  const long long minutes = total / 60;
  const long long secs = total % 60;
  char buffer[64];
  if (days > 0) {
    std::snprintf(buffer, sizeof buffer, "%s%lldd %02lld:%02lld:%02lld",
                  negative ? "-" : "", days, hours, minutes, secs);
  } else {
    std::snprintf(buffer, sizeof buffer, "%s%02lld:%02lld:%02lld",
                  negative ? "-" : "", hours, minutes, secs);
  }
  return buffer;
}

std::string artifact_stamp() {
  const char* env = std::getenv("BGL_GIT_DESCRIBE");
  if (env == nullptr || *env == '\0') return "unknown";
  std::string stamp;
  for (const char* p = env; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    const bool safe = std::isalnum(c) != 0 || c == '.' || c == '_' ||
                      c == '/' || c == '+' || c == '-';
    stamp += safe ? *p : '_';
  }
  return stamp;
}

}  // namespace bgl
