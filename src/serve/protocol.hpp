/**
 * @file
 * Wire protocol of gpumc-serve: line-delimited JSON, one request
 * object per line in, one response object per line out.
 *
 * Request fields (all optional unless noted):
 *   op          "verify" (default) | "metrics" | "ping" | "shutdown"
 *   id          string or number, echoed verbatim into the response
 *               (a number as its source text)
 *   litmus      litmus source text (required for verify)
 *   model       model name resolved as <cat-dir>/<name>.cat
 *   model_source  inline .cat source (alternative to `model`)
 *   property    "program_spec" (default) | "cat_spec" | "liveness"
 *   bound       loop unroll bound, an integer (default 2)
 *   backend     "builtin" (default) | "z3"
 *   timeout_ms  wall-clock budget for the whole request, admission to
 *               verdict, an integer (0 = unlimited, subject to the
 *               server cap)
 *   no_cache    bypass the result cache for this request
 *
 * Responses (see docs/SERVING.md for the full schema):
 *   {"id":..,"status":"ok","holds":..,"unknown":..,"detail":..,
 *    "cache":"hit"|"miss",...}
 *   {"id":..,"status":"overloaded"}          admission rejected
 *   {"id":..,"status":"error","message":..}  malformed request etc.
 */

#ifndef GPUMC_SERVE_PROTOCOL_HPP
#define GPUMC_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "core/verifier.hpp"

namespace gpumc::serve {

/**
 * Upper bound on one request line. A line that reaches this size
 * without a newline is answered with an `error` response and input is
 * resynchronized at the next newline — a client bug must not make the
 * daemon buffer without limit.
 */
constexpr size_t kMaxLineBytes = 4u << 20;

enum class Op { Verify, Metrics, Ping, Shutdown };

struct Request {
    Op op = Op::Verify;
    /** Client correlation id, echoed verbatim (pre-serialized JSON:
     *  either a quoted string or a number literal). */
    std::string id = "null";
    std::string litmus;
    std::string model;
    std::string modelSource;
    core::Property property = core::Property::Safety;
    int bound = 2;
    smt::BackendKind backend = smt::BackendKind::Builtin;
    int64_t timeoutMs = 0;
    bool noCache = false;
};

/**
 * Parse one request line. On failure returns false and fills
 * @p error; @p out.id is still set when the line carried a usable id,
 * so the error response can be correlated.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/** The canonical wire name of a property ("program_spec", ...). */
const char *propertyWireName(core::Property property);

// Response builders; all return one JSON object without the trailing
// newline. @p id is pre-serialized (Request::id).
std::string errorResponse(const std::string &id,
                          const std::string &message);
std::string overloadedResponse(const std::string &id);

} // namespace gpumc::serve

#endif // GPUMC_SERVE_PROTOCOL_HPP
