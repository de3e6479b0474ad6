/**
 * @file
 * Queue-driven task executor of the gpumc-serve daemon: verification
 * requests are admitted into one long-lived instance.
 *
 * The executor owns a bounded FIFO task queue drained by a fixed set of
 * worker threads. Admission is trySubmit(): a full queue turns into a
 * graceful `overloaded` response instead of unbounded memory growth
 * (admission control).
 *
 * Thread accounting matches parallelFor: the creator is assumed to
 * block (in drain() or a server accept loop) while tasks run, so its
 * slot goes to one worker and only `workers - 1` *helper* slots are
 * charged to the process-wide ThreadBudget. When the budget is
 * exhausted the executor degrades to a single worker — same results,
 * less parallelism — and never deadlocks.
 *
 * Exceptions thrown by tasks are captured; the first one is rethrown
 * by drain(). (The serve engine catches per-request failures itself,
 * so anything reaching the executor is a programming error, mirroring
 * the parallelFor contract.)
 */

#ifndef GPUMC_SERVE_EXECUTOR_HPP
#define GPUMC_SERVE_EXECUTOR_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "support/thread_budget.hpp"

namespace gpumc::serve {

class Executor {
  public:
    enum class Admit { Accepted, Overloaded };

    /**
     * @param workers    requested worker count; 0 = defaultConcurrency().
     *                   The actual count is 1 + however many helper
     *                   slots the ThreadBudget grants (at least 1).
     * @param maxQueued  trySubmit() bound (at least 1).
     * @param threadName trace lane label for the workers.
     */
    Executor(unsigned workers, size_t maxQueued,
             const char *threadName = "executor");

    /** Drains the queue (pending tasks still run), then joins. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Worker threads actually running. */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Bounded admission: reject instead of queueing beyond maxQueued
     * (counting queued tasks only, not ones already executing). Never
     * blocks.
     */
    Admit trySubmit(std::function<void()> task);

    /**
     * Block until the queue is empty and every worker is idle, then
     * rethrow the first exception any task raised (if any).
     */
    void drain();

    /** Lifetime counters (monotonic; thread-safe). */
    struct Counters {
        int64_t accepted = 0;
        int64_t rejected = 0;
        int64_t executed = 0;
        int64_t maxQueueDepth = 0;
    };
    Counters counters() const;

  private:
    void workerLoop();

    const size_t maxQueued_;
    const char *threadName_;
    std::optional<ThreadBudget::Lease> lease_;
    std::vector<std::thread> threads_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    size_t active_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
    Counters counters_;
};

} // namespace gpumc::serve

#endif // GPUMC_SERVE_EXECUTOR_HPP
