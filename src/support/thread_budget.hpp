/**
 * @file
 * Process-wide thread budget shared by every parallelism axis, and the
 * parallel-for that draws on it.
 *
 * gpumc has nesting sources of threads — the serve daemon's executor
 * workers, parallelFor fan-outs (batch verification, the fuzz
 * campaign) and the builtin solver's cube-and-conquer farm — and each
 * used to size itself from defaultConcurrency(), multiplying into
 * jobs x cubes threads. The budget makes `--jobs=N` mean what it says:
 * every layer asks the budget for helper slots before spawning, and
 * gracefully degrades to sequential execution when none are available.
 *
 * Accounting counts *helper* threads only: the calling thread is free
 * (it either does a share of the work itself or blocks while lending
 * its slot to one worker), so a budget of N grants at most N - 1
 * helper slots in total at any moment. acquire() never blocks —
 * callers must be prepared to receive fewer slots than requested
 * (possibly zero) and run the remainder inline, which also makes the
 * scheme trivially deadlock-free under nesting.
 */

#ifndef GPUMC_SUPPORT_THREAD_BUDGET_HPP
#define GPUMC_SUPPORT_THREAD_BUDGET_HPP

#include <cstdint>
#include <functional>
#include <mutex>

namespace gpumc {

/**
 * Worker count used when a caller asks for "auto" (0) parallelism:
 * std::thread::hardware_concurrency(), or 1 if that is unknown.
 */
unsigned defaultConcurrency();

class ThreadBudget {
  public:
    /** The one process-wide budget. */
    static ThreadBudget &instance();

    /**
     * Cap the total number of concurrently running threads (callers
     * plus helpers) at @p total; 0 restores the default,
     * defaultConcurrency(). Set by the `--jobs=N` flag of
     * cli::Parser. Does not reclaim slots already handed out.
     */
    void setTotal(unsigned total);

    /** The current cap (resolving 0 to defaultConcurrency()). */
    unsigned total() const;

    /**
     * Request up to @p want helper slots. Returns how many were
     * granted, possibly 0 — never blocks. Every granted slot must be
     * returned with release() (or use a Lease).
     */
    unsigned acquire(unsigned want);

    /** Return @p n slots previously granted by acquire(). */
    void release(unsigned n);

    /** RAII grant: acquires in the constructor, releases on scope exit. */
    class Lease {
      public:
        explicit Lease(unsigned want)
            : granted_(ThreadBudget::instance().acquire(want))
        {}
        ~Lease() { ThreadBudget::instance().release(granted_); }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        /** Helper slots actually obtained (0 = run sequentially). */
        unsigned granted() const { return granted_; }

      private:
        unsigned granted_;
    };

  private:
    ThreadBudget() = default;

    mutable std::mutex mutex_;
    unsigned total_ = 0; // 0 = defaultConcurrency()
    unsigned used_ = 0;  // helper slots currently out
};

/**
 * Run body(i) for every i in [0, n), spread over up to @p threads
 * threads (0 = defaultConcurrency()): the caller plus as many helper
 * threads as the ThreadBudget grants. With one thread (or n <= 1, or
 * no helper slot free) the body runs inline on the calling thread in
 * index order. Determinism is the caller's job — indices are handed
 * out dynamically, so results go into pre-sized slots.
 *
 * Exceptions thrown by the body are caught; after all indices finish
 * or are abandoned, the first exception (by completion time) is
 * rethrown on the calling thread. Once an exception is pending,
 * not-yet-started indices are skipped.
 */
void parallelFor(int64_t n, unsigned threads,
                 const std::function<void(int64_t)> &body);

} // namespace gpumc

#endif // GPUMC_SUPPORT_THREAD_BUDGET_HPP
