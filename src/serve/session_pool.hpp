/**
 * @file
 * LRU pool of live incremental Verifier sessions for gpumc-serve.
 *
 * A result-cache miss still profits from an earlier request with the
 * same session key: the unroll/analysis/encode pipeline and all
 * learned clauses live in the checked-in Verifier, and the new
 * property (or re-check) is one assumption-guarded query on it — the
 * same amortization core::BatchVerifier gets from its session groups,
 * extended across requests.
 *
 * checkout() *removes* the session from the pool, so two concurrent
 * requests with the same key never share one live solver; the second
 * builds fresh and the later checkin() keeps whichever session was
 * returned last. A session owns its inputs (program + model) because
 * Verifier holds references — the pool keeps them alive together.
 */

#ifndef GPUMC_SERVE_SESSION_POOL_HPP
#define GPUMC_SERVE_SESSION_POOL_HPP

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "core/session_key.hpp"

namespace gpumc::serve {

struct LiveSession {
    std::shared_ptr<const prog::Program> program;
    std::shared_ptr<const cat::CatModel> model;
    std::unique_ptr<core::Verifier> verifier;
};

class SessionPool {
  public:
    explicit SessionPool(size_t capacity) : capacity_(capacity) {}

    /** Remove and return the session for @p key; nullptr if absent. */
    std::unique_ptr<LiveSession> checkout(const core::SessionKey &key);

    /**
     * Return a session to the pool (most-recent position), evicting
     * the least recently used session beyond capacity. A session that
     * threw mid-check must NOT be checked in — drop it instead, like
     * BatchVerifier discards a poisoned group session.
     *
     * Returns the session this one displaced (the evicted one, the
     * one it replaces under the same key, or itself when the pool
     * holds none), so that the caller destroys it outside the pool's
     * lock and after it has answered; nullptr if none.
     */
    [[nodiscard]] std::unique_ptr<LiveSession>
    checkin(const core::SessionKey &key,
            std::unique_ptr<LiveSession> session);

    struct Counters {
        int64_t hits = 0;      // checkout found a live session
        int64_t misses = 0;    // checkout came up empty
        int64_t evictions = 0; // LRU drops at capacity
        int64_t size = 0;
    };
    Counters counters() const;

  private:
    using Entry =
        std::pair<core::SessionKey, std::unique_ptr<LiveSession>>;

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::list<Entry> lru_; // front = most recent
    std::map<core::SessionKey, std::list<Entry>::iterator> index_;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
    int64_t evictions_ = 0;
};

} // namespace gpumc::serve

#endif // GPUMC_SERVE_SESSION_POOL_HPP
