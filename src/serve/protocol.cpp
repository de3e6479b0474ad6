#include "serve/protocol.hpp"

#include "program/unroller.hpp"
#include "support/json.hpp"

namespace gpumc::serve {

namespace {

/** Re-serialize a parsed id value for verbatim echoing: a number as
 *  its source text, which may be out of any C++ type's range. */
std::string
serializeId(const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::String:
        return jsonString(v.text);
      case JsonValue::Kind::Number:
        return v.text;
      case JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
      default:
        return "null";
    }
}

bool
failParse(std::string &error, const std::string &what)
{
    error = what;
    return false;
}

} // namespace

const char *
propertyWireName(core::Property property)
{
    switch (property) {
      case core::Property::Safety:
        return "program_spec";
      case core::Property::CatSpec:
        return "cat_spec";
      case core::Property::Liveness:
        return "liveness";
    }
    return "program_spec";
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    if (line.size() > kMaxLineBytes)
        return failParse(error, "request line exceeds " +
                                    std::to_string(kMaxLineBytes) +
                                    " bytes");

    JsonValue doc = parseJson(line, error);
    if (!error.empty())
        return false;
    if (!doc.isObject())
        return failParse(error, "request must be a JSON object");

    if (const JsonValue *id = doc.find("id"))
        out.id = serializeId(*id);

    std::string op = "verify";
    if (const JsonValue *v = doc.find("op")) {
        if (!v->isString())
            return failParse(error, "'op' must be a string");
        op = v->text;
    }
    if (op == "verify") {
        out.op = Op::Verify;
    } else if (op == "metrics") {
        out.op = Op::Metrics;
    } else if (op == "ping") {
        out.op = Op::Ping;
    } else if (op == "shutdown") {
        out.op = Op::Shutdown;
    } else {
        return failParse(error, "unknown op '" + op + "'");
    }
    if (out.op != Op::Verify)
        return true;

    const JsonValue *litmus = doc.find("litmus");
    if (!litmus || !litmus->isString() || litmus->text.empty())
        return failParse(error,
                         "verify request needs a non-empty 'litmus' "
                         "string");
    out.litmus = litmus->text;

    if (const JsonValue *v = doc.find("model")) {
        if (!v->isString())
            return failParse(error, "'model' must be a string");
        out.model = v->text;
    }
    if (const JsonValue *v = doc.find("model_source")) {
        if (!v->isString())
            return failParse(error, "'model_source' must be a string");
        out.modelSource = v->text;
    }
    if (out.model.empty() == out.modelSource.empty()) {
        return failParse(error,
                         "verify request needs exactly one of 'model' "
                         "(a name) or 'model_source' (inline .cat "
                         "text)");
    }
    // Model names become "<cat-dir>/<name>.cat"; reject separators so
    // a client cannot escape the configured directory.
    if (out.model.find('/') != std::string::npos ||
        out.model.find('\\') != std::string::npos ||
        out.model.find("..") != std::string::npos) {
        return failParse(error, "'model' must be a bare model name");
    }

    if (const JsonValue *v = doc.find("property")) {
        if (!v->isString())
            return failParse(error, "'property' must be a string");
        if (v->text == "program_spec") {
            out.property = core::Property::Safety;
        } else if (v->text == "cat_spec") {
            out.property = core::Property::CatSpec;
        } else if (v->text == "liveness") {
            out.property = core::Property::Liveness;
        } else {
            return failParse(error,
                             "unknown property '" + v->text + "'");
        }
    }
    if (const JsonValue *v = doc.find("bound")) {
        std::optional<int64_t> bound = v->asInt();
        if (!bound || *bound < prog::kMinBound || *bound > prog::kMaxBound) {
            return failParse(error,
                             "'bound' must be an integer in [" +
                                 std::to_string(prog::kMinBound) + ", " +
                                 std::to_string(prog::kMaxBound) + "]");
        }
        out.bound = static_cast<int>(*bound);
    }
    if (const JsonValue *v = doc.find("backend")) {
        if (!v->isString())
            return failParse(error, "'backend' must be a string");
        if (v->text == "builtin") {
            out.backend = smt::BackendKind::Builtin;
        } else if (v->text == "z3") {
            out.backend = smt::BackendKind::Z3;
        } else {
            return failParse(error, "unknown backend '" + v->text + "'");
        }
    }
    if (const JsonValue *v = doc.find("timeout_ms")) {
        std::optional<int64_t> timeoutMs = v->asInt();
        if (!timeoutMs || *timeoutMs < 0)
            return failParse(error, "'timeout_ms' must be an integer in "
                                    "[0, 9223372036854775807]");
        out.timeoutMs = *timeoutMs;
    }
    if (const JsonValue *v = doc.find("no_cache")) {
        if (!v->isBool())
            return failParse(error, "'no_cache' must be a boolean");
        out.noCache = v->boolean;
    }
    return true;
}

std::string
errorResponse(const std::string &id, const std::string &message)
{
    return "{\"id\":" + id + ",\"status\":\"error\",\"message\":" +
           jsonString(message) + "}";
}

std::string
overloadedResponse(const std::string &id)
{
    return "{\"id\":" + id + ",\"status\":\"overloaded\"}";
}

} // namespace gpumc::serve
