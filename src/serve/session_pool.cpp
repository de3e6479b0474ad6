#include "serve/session_pool.hpp"

namespace gpumc::serve {

std::unique_ptr<LiveSession>
SessionPool::checkout(const core::SessionKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        misses_++;
        return nullptr;
    }
    hits_++;
    std::unique_ptr<LiveSession> session =
        std::move(it->second->second);
    lru_.erase(it->second);
    index_.erase(it);
    return session;
}

std::unique_ptr<LiveSession>
SessionPool::checkin(const core::SessionKey &key,
                     std::unique_ptr<LiveSession> session)
{
    if (capacity_ == 0 || !session)
        return session;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // A concurrent request raced us with the same key; keep the
        // newest session (it has the freshest learned clauses).
        std::swap(it->second->second, session);
        lru_.splice(lru_.begin(), lru_, it->second);
        return session;
    }
    lru_.emplace_front(key, std::move(session));
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
        session = std::move(lru_.back().second);
        index_.erase(lru_.back().first);
        lru_.pop_back();
        evictions_++;
    }
    return session;
}

SessionPool::Counters
SessionPool::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Counters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.size = static_cast<int64_t>(lru_.size());
    return c;
}

} // namespace gpumc::serve
