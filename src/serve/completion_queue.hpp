/**
 * @file
 * Single-threaded completion drain: callbacks pushed from any worker
 * are delivered one at a time, in push order, on a dedicated thread.
 *
 * This is what keeps gpumc-serve's response delivery off the
 * verification workers. Writing a response on the worker would let one
 * slow consumer (a client that stops reading its socket) stall every
 * worker in the pool. With a drain, workers only pay for the enqueue;
 * a slow consumer backs up this queue, never the solvers.
 *
 * The drain thread is a consumer like the caller itself and is not
 * charged to the ThreadBudget (it spends its life blocked or inside
 * user callbacks, not computing).
 */

#ifndef GPUMC_SERVE_COMPLETION_QUEUE_HPP
#define GPUMC_SERVE_COMPLETION_QUEUE_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace gpumc::serve {

class CompletionQueue {
  public:
    CompletionQueue();

    /** Flushes pending callbacks, then joins the drain thread. */
    ~CompletionQueue();

    CompletionQueue(const CompletionQueue &) = delete;
    CompletionQueue &operator=(const CompletionQueue &) = delete;

    /**
     * Enqueue a callback for in-order delivery. Never blocks on the
     * consumer. Callbacks must not throw; a throwing callback
     * terminates.
     */
    void push(std::function<void()> callback);

    /**
     * Block until every callback pushed before this call has
     * *returned* (not merely been dequeued).
     */
    void flush();

  private:
    void drainLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    bool running_ = false; // a callback is mid-delivery
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace gpumc::serve

#endif // GPUMC_SERVE_COMPLETION_QUEUE_HPP
