/**
 * @file
 * Lightweight timing and counter utilities for the verifier and the
 * benchmark harnesses.
 */

#ifndef GPUMC_SUPPORT_STATS_HPP
#define GPUMC_SUPPORT_STATS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace gpumc {

/** Wall-clock stopwatch with millisecond resolution accessors. */
class Stopwatch {
  public:
    Stopwatch() { restart(); }

    void restart() { start_ = Clock::now(); }

    /** Elapsed time in milliseconds since construction/restart. */
    double elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * A wall-clock deadline shared by every solver query of one property
 * check. `Verifier` arms one deadline per check and derives each
 * query's remaining budget from it, so a check that issues several
 * queries (flag-violation enumeration, witness-validation re-solve)
 * never exceeds the configured `solverTimeoutMs` N-fold.
 */
class Deadline {
  public:
    /** Unlimited deadline (never expires). */
    Deadline() = default;

    /**
     * Deadline @p ms milliseconds from now; ms <= 0 means unlimited. A
     * budget past the end of the clock's range saturates at its end
     * instead of wrapping into the past.
     */
    static Deadline in(int64_t ms)
    {
        Deadline d;
        if (ms > 0) {
            d.limited_ = true;
            Clock::time_point now = Clock::now();
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::time_point::max() - now);
            d.expiry_ = ms < left.count()
                            ? now + std::chrono::milliseconds(ms)
                            : Clock::time_point::max();
        }
        return d;
    }

    bool limited() const { return limited_; }

    /** Remaining budget in milliseconds; 0 when expired. */
    int64_t remainingMs() const
    {
        if (!limited_)
            return 0;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            expiry_ - Clock::now());
        return left.count() > 0 ? left.count() : 0;
    }

    bool expired() const { return limited_ && remainingMs() == 0; }

  private:
    using Clock = std::chrono::steady_clock;
    bool limited_ = false;
    Clock::time_point expiry_{};
};

/**
 * Named counters collected during a verification run (number of events,
 * SMT variables, clauses, ...). Useful for the encoding-size ablations.
 */
class StatsRegistry {
  public:
    void add(const std::string &name, int64_t delta)
    {
        counters_[name] += delta;
    }

    void set(const std::string &name, int64_t value)
    {
        counters_[name] = value;
    }

    int64_t get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    const std::map<std::string, int64_t> &all() const { return counters_; }

  private:
    std::map<std::string, int64_t> counters_;
};

} // namespace gpumc

#endif // GPUMC_SUPPORT_STATS_HPP
