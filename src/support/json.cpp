#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/string_utils.hpp"

namespace gpumc {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonString(std::string_view s)
{
    return "\"" + jsonEscape(s) + "\"";
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
}

std::optional<int64_t>
JsonValue::asInt() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    return parseInt(text);
}

namespace {

/**
 * Recursive-descent parser; errors unwind through a `bool ok` flow
 * (no exceptions — the serve path handles adversarial input).
 */
class JsonParser {
  public:
    JsonParser(std::string_view text, std::string &error)
        : text_(text), error_(error)
    {
    }

    JsonValue parse()
    {
        error_.clear();
        JsonValue v;
        skipWs();
        if (!parseValue(v, 0))
            return JsonValue{};
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing content after JSON document");
            return JsonValue{};
        }
        return v;
    }

  private:
    // Defense against stack exhaustion from deeply nested documents
    // ([[[[...]]]]): far deeper than any legitimate request, far
    // shallower than the thread stack.
    static constexpr int kMaxDepth = 64;

    bool fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = "JSON error at offset " + std::to_string(pos_) +
                     ": " + what;
        }
        return false;
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void skipWs()
    {
        while (!atEnd()) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                pos_++;
            else
                break;
        }
    }

    bool expect(char c)
    {
        if (atEnd() || peek() != c)
            return fail(std::string("expected '") + c + "'");
        pos_++;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("document nested too deeply");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"': return parseString(out);
          case 't': return parseKeyword("true", out);
          case 'f': return parseKeyword("false", out);
          case 'n': return parseKeyword("null", out);
          default: return parseNumber(out);
        }
    }

    bool parseKeyword(std::string_view word, JsonValue &out)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return fail("invalid keyword");
        pos_ += word.size();
        if (word == "true") {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
        } else if (word == "false") {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
        } else {
            out.kind = JsonValue::Kind::Null;
        }
        return true;
    }

    bool parseObject(JsonValue &out, int depth)
    {
        pos_++; // '{'
        out.kind = JsonValue::Kind::Object;
        skipWs();
        if (!atEnd() && peek() == '}') {
            pos_++;
            return true;
        }
        for (;;) {
            skipWs();
            if (atEnd() || peek() != '"')
                return fail("object key must be a string");
            JsonValue key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!expect(':'))
                return false;
            skipWs();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            if (!out.members.emplace(key.text, std::move(value)).second)
                return fail("duplicate object key: " + key.text);
            skipWs();
            if (atEnd())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        pos_++; // '['
        out.kind = JsonValue::Kind::Array;
        skipWs();
        if (!atEnd() && peek() == ']') {
            pos_++;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue item;
            if (!parseValue(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (atEnd())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
    }

    int hexDigit(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    }

    bool parseHex4(int &code)
    {
        code = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd())
                return fail("truncated \\u escape");
            int digit = hexDigit(text_[pos_++]);
            if (digit < 0)
                return fail("invalid \\u escape digit");
            code = code * 16 + digit;
        }
        return true;
    }

    void appendUtf8(std::string &s, uint32_t cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parseString(JsonValue &out)
    {
        pos_++; // '"'
        out.kind = JsonValue::Kind::String;
        for (;;) {
            if (atEnd())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out.text += c;
                continue;
            }
            if (atEnd())
                return fail("truncated escape sequence");
            char e = text_[pos_++];
            switch (e) {
              case '"': out.text += '"'; break;
              case '\\': out.text += '\\'; break;
              case '/': out.text += '/'; break;
              case 'b': out.text += '\b'; break;
              case 'f': out.text += '\f'; break;
              case 'n': out.text += '\n'; break;
              case 'r': out.text += '\r'; break;
              case 't': out.text += '\t'; break;
              case 'u': {
                int code;
                if (!parseHex4(code))
                    return false;
                uint32_t cp = static_cast<uint32_t>(code);
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: a \uXXXX low surrogate must
                    // follow to form one astral code point.
                    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u')
                        return fail("unpaired high surrogate");
                    pos_ += 2;
                    int low;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (static_cast<uint32_t>(low) - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired low surrogate");
                }
                appendUtf8(out.text, cp);
                break;
              }
              default: return fail("invalid escape sequence");
            }
        }
    }

    bool parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (!atEnd() && peek() == '-')
            pos_++;
        if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
            return fail("invalid number");
        if (text_[pos_++] == '0' && !atEnd() &&
            std::isdigit(static_cast<unsigned char>(peek()))) {
            return fail("leading zero in number");
        }
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek())))
            pos_++;
        if (!atEnd() && peek() == '.') {
            pos_++;
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("digit required after decimal point");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                pos_++;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            pos_++;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                pos_++;
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("digit required in exponent");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                pos_++;
        }
        out.kind = JsonValue::Kind::Number;
        out.text = text_.substr(start, pos_ - start);
        out.number = std::strtod(out.text.c_str(), nullptr);
        if (!std::isfinite(out.number))
            return fail("non-finite number");
        return true;
    }

    std::string_view text_;
    std::string &error_;
    size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text, std::string &error)
{
    return JsonParser(text, error).parse();
}

} // namespace gpumc
