/**
 * @file
 * Small string helpers used by the parsers and report writers.
 */

#ifndef GPUMC_SUPPORT_STRING_UTILS_HPP
#define GPUMC_SUPPORT_STRING_UTILS_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/diagnostics.hpp"

namespace gpumc {

/** Split @p s on @p sep; empty fields are kept. */
std::vector<std::string> split(std::string_view s, char sep);

/** Split @p s on any run of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view s);

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/** Join the items with @p sep between them. */
std::string join(const std::vector<std::string> &items,
                 std::string_view sep);

/** Lower-case ASCII copy. */
std::string toLower(std::string_view s);

/** True if @p s is a non-empty decimal integer with optional leading '-'. */
bool isInteger(std::string_view s);

/**
 * Parse a whole string as a decimal integer (optional leading '-').
 * Returns nullopt on empty input, trailing garbage or overflow — the
 * safe alternative to std::stoi for CLI flags and litmus metadata.
 */
std::optional<int64_t> parseInt(std::string_view s);

/**
 * Parse an integer literal of an input file into a @p T. A malformed
 * literal, or one outside @p T's range, is the input's fault:
 * FatalError at @p loc, naming the text.
 */
template <typename T = int64_t>
T
parseLiteral(std::string_view text, const SourceLoc &loc)
{
    std::optional<int64_t> parsed = parseInt(text);
    if (!parsed || *parsed < std::numeric_limits<T>::min() ||
        *parsed > std::numeric_limits<T>::max())
        fatalAt(loc, "bad integer literal '", text, "'");
    return static_cast<T>(*parsed);
}

/**
 * Guarded replacement for std::stoi on CLI flag values, behind the
 * integer flags of cli::Parser. Parses @p value
 * and range-checks it against [@p min, @p max]; on failure prints
 * "<tool>: invalid value '<value>' for <flag> ..." to stderr and
 * exits with the usage status (2).
 */
int64_t cliInt(std::string_view tool, std::string_view flag,
               const std::string &value, int64_t min, int64_t max);

} // namespace gpumc

#endif // GPUMC_SUPPORT_STRING_UTILS_HPP
