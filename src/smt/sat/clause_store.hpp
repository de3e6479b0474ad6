/**
 * @file
 * Shared store of learned clauses for cross-solver clause sharing.
 *
 * A ClauseStore is an append-only, capacity-bounded sequence of
 * learned clauses published by attached solvers (see
 * Solver::attachStore). Publishing and fetching are both batched and
 * guarded by a single mutex — solvers only touch the store at learn
 * time (after passing the export filter) and at restart boundaries,
 * so the lock is far off the propagation hot path.
 *
 * Entries carry the id of the publishing source so a solver never
 * re-imports its own clauses. Eviction is FIFO: when the store is
 * full the oldest clause is dropped and the global base index
 * advances; a reader whose cursor points into the evicted range
 * simply skips it (sharing is an optimization — losing old clauses
 * never affects soundness).
 *
 * Soundness contract (kept by the *callers*, not the store): a
 * published clause must be a logical consequence of the clause
 * database shared by every attached solver. The one caller, the
 * builtin backend's cube-and-conquer mode, attaches only solvers
 * with identical databases (the main solver and the cube workers that
 * replay its clauses), so every learned clause qualifies.
 */

#ifndef GPUMC_SMT_SAT_CLAUSE_STORE_HPP
#define GPUMC_SMT_SAT_CLAUSE_STORE_HPP

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "smt/sat/types.hpp"

namespace gpumc::smt::sat {

class ClauseStore {
  public:
    struct Config {
        /** Clauses retained; the oldest is evicted beyond this. */
        size_t capacity = 8192;
        /** Export filter: maximum literal-block distance. */
        int maxLbd = 8;
        /** Export filter: maximum clause size (literal count). */
        size_t maxSize = 32;
    };

    ClauseStore();
    explicit ClauseStore(Config config) : config_(config) {}

    ClauseStore(const ClauseStore &) = delete;
    ClauseStore &operator=(const ClauseStore &) = delete;

    /** Unique id for one publishing/consuming solver attachment. */
    int registerSource();

    int maxLbd() const { return config_.maxLbd; }
    size_t maxSize() const { return config_.maxSize; }
    size_t capacity() const { return config_.capacity; }

    /** Append a clause published by @p source (already filtered). */
    void publish(int source, const std::vector<Lit> &lits);

    /**
     * Append every clause published after @p cursor by sources other
     * than @p source to @p out, and advance the cursor past the end of
     * the store. Clauses evicted since the last fetch are skipped.
     * Returns the number of clauses appended.
     */
    size_t fetch(int source, uint64_t &cursor,
                 std::vector<std::vector<Lit>> &out) const;

    /** Clauses currently held. */
    size_t size() const;

    struct Counters {
        int64_t published = 0;
        int64_t evicted = 0;
    };
    Counters counters() const;

  private:
    struct Entry {
        std::vector<Lit> lits;
        int source = -1;
    };

    const Config config_;
    mutable std::mutex mutex_;
    std::deque<Entry> entries_;
    /** Global index of entries_.front(); grows with each eviction. */
    uint64_t begin_ = 0;
    int nextSource_ = 0;
    int64_t published_ = 0;
    int64_t evicted_ = 0;
};

} // namespace gpumc::smt::sat

#endif // GPUMC_SMT_SAT_CLAUSE_STORE_HPP
