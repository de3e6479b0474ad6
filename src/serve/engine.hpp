/**
 * @file
 * The gpumc-serve verification engine: everything the daemon does
 * except transport. One Engine instance serves every connection.
 *
 * Request flow (Engine::handle):
 *  1. parse the JSON line (errors answer inline),
 *  2. compute the session key; consult the fingerprint result cache —
 *     hits answer inline without touching a solver,
 *  3. admission control: a miss is admitted into the bounded executor
 *     queue, or answered `overloaded` when the queue is full,
 *  4. a worker checks a live session out of the LRU session pool (or
 *     builds one), arms the request's remaining deadline, solves,
 *     checks the session back in, fills the result cache, responds,
 *     and only then destroys the session the checkin displaced.
 *
 * The per-request deadline covers queueing: it is armed at admission,
 * and the worker gives the solver only what is left of it (drawn from
 * the shared gpumc::Deadline just like Verifier's per-check budget).
 * No budget enters the session key: requests that differ only in
 * their timeout share one session and one cached verdict.
 *
 * `respond` may be invoked inline (cache hits, errors, ping/metrics)
 * or later from a worker thread; transports must tolerate both.
 */

#ifndef GPUMC_SERVE_ENGINE_HPP
#define GPUMC_SERVE_ENGINE_HPP

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/executor.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/session_pool.hpp"

namespace gpumc::serve {

struct EngineOptions {
    /** Verification worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Bounded request queue for admission control. */
    size_t maxQueued = 64;
    size_t resultCacheCapacity = 1024;
    size_t sessionCacheCapacity = 32;
    /**
     * Cap applied to every request's budget, and the budget of
     * requests that ask for none; 0 = uncapped (requests without a
     * timeout run to completion).
     */
    int64_t maxTimeoutMs = 0;
    /** Directory where `model` names resolve to <name>.cat files. */
    std::string catDir;
    /**
     * Result-cache persistence path: loaded at construction (missing,
     * corrupt or version-mismatched files silently start cold) and
     * written back on clean shutdown. Empty = in-memory only.
     */
    std::string cacheFile;
};

class Engine {
  public:
    explicit Engine(EngineOptions options = {});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Delivers one response line (without the trailing newline). */
    using Respond = std::function<void(const std::string &line)>;

    /**
     * Handle one request line; @p respond is called exactly once.
     * Returns false when the request was a `shutdown` op (the
     * transport should stop accepting input).
     */
    bool handle(const std::string &line, Respond respond);

    /** handle() + wait for the response (tests, bench, thin client). */
    std::string handleSync(const std::string &line);

    /** Wait until every admitted request has responded. */
    void drain();

    const EngineOptions &options() const { return options_; }

  private:
    struct ModelEntry {
        std::shared_ptr<const cat::CatModel> model;
    };

    /**
     * Resolve the request's model to a shared immutable CatModel:
     * named models are loaded from catDir once and pinned; inline
     * `model_source` models are parsed and deduplicated by content
     * fingerprint. Throws FatalError on load/parse errors.
     */
    std::shared_ptr<const cat::CatModel> resolveModel(const Request &req);

    void handleVerify(Request req, const Respond &respond);
    std::string metricsResponse(const std::string &id) const;

    EngineOptions options_;
    ResultCache resultCache_;
    SessionPool sessions_;
    std::unique_ptr<Executor> executor_;

    mutable std::mutex modelsMutex_;
    /** Named models, by name. */
    std::map<std::string, std::shared_ptr<const cat::CatModel>>
        namedModels_;
    /** Inline models, by content fingerprint. */
    std::map<cat::ModelFingerprint,
             std::shared_ptr<const cat::CatModel>>
        inlineModels_;

    mutable std::mutex statsMutex_;
    int64_t requests_ = 0;
    int64_t errors_ = 0;
};

} // namespace gpumc::serve

#endif // GPUMC_SERVE_ENGINE_HPP
