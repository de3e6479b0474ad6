#include "support/thread_budget.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"

namespace gpumc {

unsigned
defaultConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

ThreadBudget &
ThreadBudget::instance()
{
    static ThreadBudget budget;
    return budget;
}

void
ThreadBudget::setTotal(unsigned total)
{
    std::lock_guard<std::mutex> lock(mutex_);
    total_ = total;
}

unsigned
ThreadBudget::total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_ == 0 ? defaultConcurrency() : total_;
}

unsigned
ThreadBudget::acquire(unsigned want)
{
    if (want == 0)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    unsigned cap = total_ == 0 ? defaultConcurrency() : total_;
    // One slot is implicitly the caller's own thread; only cap - 1
    // helpers may ever be out at once.
    unsigned helpers = cap > 0 ? cap - 1 : 0;
    unsigned available = helpers > used_ ? helpers - used_ : 0;
    unsigned granted = want < available ? want : available;
    used_ += granted;
    return granted;
}

void
ThreadBudget::release(unsigned n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    GPUMC_ASSERT(n <= used_, "releasing more thread-budget slots than held");
    used_ -= n;
}

void
parallelFor(int64_t n, unsigned threads,
            const std::function<void(int64_t)> &body)
{
    if (n <= 0)
        return;
    if (threads == 0)
        threads = defaultConcurrency();
    if (threads > n)
        threads = static_cast<unsigned>(n);

    // The caller works too, so only threads - 1 helpers are charged to
    // the shared budget. When none is available the loop degrades to a
    // sequential sweep — same results, one thread.
    ThreadBudget::Lease lease(threads > 1 ? threads - 1 : 0);
    if (lease.granted() == 0) {
        for (int64_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<int64_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    std::atomic<bool> failed{false};

    auto worker = [&] {
        for (;;) {
            int64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(lease.granted());
    for (unsigned t = 0; t < lease.granted(); ++t)
        helpers.emplace_back(worker);
    worker();
    for (std::thread &helper : helpers)
        helper.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace gpumc
