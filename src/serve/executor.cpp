#include "serve/executor.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"
#include "support/trace.hpp"

namespace gpumc::serve {

Executor::Executor(unsigned workers, size_t maxQueued,
                   const char *threadName)
    : maxQueued_(maxQueued), threadName_(threadName)
{
    GPUMC_ASSERT(maxQueued > 0, "an executor queue holds at least one task");
    if (workers == 0)
        workers = defaultConcurrency();
    // The creator's slot is lent while it blocks, so only workers - 1
    // helpers are charged; a zero grant still leaves one worker.
    lease_.emplace(workers > 0 ? workers - 1 : 0);
    unsigned count = 1 + lease_->granted();
    threads_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

Executor::Admit
Executor::trySubmit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.size() >= maxQueued_) {
            counters_.rejected++;
            return Admit::Overloaded;
        }
        queue_.push_back(std::move(task));
        counters_.accepted++;
        counters_.maxQueueDepth = std::max(
            counters_.maxQueueDepth, static_cast<int64_t>(queue_.size()));
    }
    wake_.notify_one();
    return Admit::Accepted;
}

void
Executor::drain()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock,
                   [this] { return queue_.empty() && active_ == 0; });
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

Executor::Counters
Executor::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
Executor::workerLoop()
{
    trace::Tracer::instance().nameCurrentThread(threadName_);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock,
                   [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) // stopping_ and drained
            return;
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        active_++;
        lock.unlock();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> errorLock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        lock.lock();
        active_--;
        counters_.executed++;
        if (queue_.empty() && active_ == 0)
            idle_.notify_all();
    }
}

} // namespace gpumc::serve
