// Small string helpers used by the SWF/trace parsers and table writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bgl {

/// Strip ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view text);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Split on runs of whitespace; drops empty fields (SWF-style tokenising).
std::vector<std::string> split_ws(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Strict numeric parsing: the full token must be consumed.
std::optional<long long> parse_int(std::string_view token);
std::optional<double> parse_double(std::string_view token);

/// The number a command-line flag or positional argument names: parse_int
/// or parse_double of `token`, or a ConfigError naming `flag` and the
/// token ("--jobs requires an integer, got 'banana'"), never a default.
long long require_int(const std::string& flag, const std::string& token);
double require_double(const std::string& flag, const std::string& token);

/// printf-like double formatting with fixed precision.
std::string format_double(double value, int precision);

/// Human-readable duration like "2d 03:04:05" for report output.
std::string format_duration(double seconds);

/// Build stamp for checked-in bench artifacts (docs/BENCH_*.json): the
/// BGL_GIT_DESCRIBE environment variable — set by CI / the bench invocation
/// to `git describe --always --dirty` — sanitized to [A-Za-z0-9._/+-] so it
/// can be embedded in JSON unescaped, or "unknown" when unset.
std::string artifact_stamp();

}  // namespace bgl
