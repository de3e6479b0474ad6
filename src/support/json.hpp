/**
 * @file
 * Minimal JSON emission helpers shared by every machine-readable
 * report writer (gpumc-corpus --json, the --trace/--metrics exports,
 * the bench emitters). One escaping routine instead of per-tool
 * copies: a newline or control character in an error message or file
 * path must never produce invalid JSON anywhere.
 */

#ifndef GPUMC_SUPPORT_JSON_HPP
#define GPUMC_SUPPORT_JSON_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpumc {

/**
 * Escape @p s for embedding inside a JSON string literal (without the
 * surrounding quotes): `"` and `\` are backslash-escaped, `\n`/`\r`/
 * `\t` use their short forms, and every other character below 0x20
 * becomes a `\u00XX` sequence.
 */
std::string jsonEscape(std::string_view s);

/** @p s escaped and wrapped in double quotes. */
std::string jsonString(std::string_view s);

/**
 * A parsed JSON document. Added for the gpumc-serve request path: the
 * daemon reads line-delimited JSON from untrusted clients, so parse
 * errors are reported via parseJson's out-parameter (and turned into
 * an `error` response), never via exceptions or process exit.
 */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** A string's decoded value, or a number's source text. */
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * The number exactly, if its source text is an integer literal
     * (no fraction or exponent) within int64_t's range; nullopt
     * otherwise, and for anything but a number.
     */
    std::optional<int64_t> asInt() const;
};

/**
 * Strict RFC 8259 parse of a complete document. On failure returns a
 * Null value and describes the problem (with byte offset) in @p error;
 * on success @p error is cleared. Rejects trailing content, trailing
 * commas, duplicate object keys and bad escapes; `\uXXXX` escapes
 * (including surrogate pairs) are decoded to UTF-8.
 */
JsonValue parseJson(std::string_view text, std::string &error);

} // namespace gpumc

#endif // GPUMC_SUPPORT_JSON_HPP
