#include "smt/backend.hpp"

#include <algorithm>

#include "smt/builtin_backend.hpp"
#include "smt/z3_backend.hpp"

namespace gpumc::smt {

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Z3:
        return "z3";
      default:
        return "builtin";
    }
}

std::unique_ptr<Backend>
makeBackend(BackendKind kind, const BackendConfig &config)
{
    if (kind == BackendKind::Z3)
        return std::make_unique<Z3Backend>();
    return std::make_unique<BuiltinBackend>(config);
}

bool
armTimeLimit(Backend &backend, const Deadline &deadline)
{
    if (!deadline.limited()) {
        backend.setTimeLimitMs(0);
        return true;
    }
    if (deadline.expired()) {
        // Defence in depth: should the caller solve anyway, the query
        // is capped at 1 ms rather than running without a limit.
        backend.setTimeLimitMs(1);
        return false;
    }
    backend.setTimeLimitMs(std::max<int64_t>(1, deadline.remainingMs()));
    return true;
}

} // namespace gpumc::smt
