/**
 * @file
 * serve::Executor and serve::CompletionQueue: admission control,
 * drain/rethrow semantics, thread-budget degradation and in-order
 * completion delivery — including a completion consumer that waits on
 * the rest of the workload, which must not stall (or deadlock) the
 * workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/completion_queue.hpp"
#include "serve/executor.hpp"
#include "support/thread_budget.hpp"

namespace gpumc::test {
namespace {

/** Restore the process thread budget on scope exit. */
struct BudgetGuard {
    explicit BudgetGuard(unsigned total)
    {
        ThreadBudget::instance().setTotal(total);
    }
    ~BudgetGuard() { ThreadBudget::instance().setTotal(0); }
};

TEST(Executor, ExecutesEverySubmittedTask)
{
    serve::Executor exec(4, 64);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(exec.trySubmit([&ran] { ran++; }),
                  serve::Executor::Admit::Accepted);
    }
    exec.drain();
    EXPECT_EQ(ran.load(), 64);

    serve::Executor::Counters counters = exec.counters();
    EXPECT_EQ(counters.accepted, 64);
    EXPECT_EQ(counters.executed, 64);
    EXPECT_EQ(counters.rejected, 0);
}

TEST(Executor, ReusableAcrossDrains)
{
    serve::Executor exec(2, 1);
    std::atomic<int> ran{0};
    ASSERT_EQ(exec.trySubmit([&ran] { ran++; }),
              serve::Executor::Admit::Accepted);
    exec.drain();
    ASSERT_EQ(exec.trySubmit([&ran] { ran++; }),
              serve::Executor::Admit::Accepted);
    exec.drain();
    EXPECT_EQ(ran.load(), 2);
}

TEST(Executor, BoundedAdmissionRejectsWhenSaturated)
{
    serve::Executor exec(1, 1);
    ASSERT_EQ(exec.workers(), 1u);

    // Handshake so the queue state is deterministic: the one worker is
    // provably busy (and the queue empty) before the trySubmits below.
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> ran{0};
    ASSERT_EQ(exec.trySubmit([&started, gate, &ran] {
                  started.set_value();
                  gate.wait();
                  ran++;
              }),
              serve::Executor::Admit::Accepted);
    started.get_future().wait();

    EXPECT_EQ(exec.trySubmit([&ran] { ran++; }),
              serve::Executor::Admit::Accepted); // fills the queue
    EXPECT_EQ(exec.trySubmit([&ran] { ran++; }),
              serve::Executor::Admit::Overloaded);

    release.set_value();
    exec.drain();
    EXPECT_EQ(ran.load(), 2);

    serve::Executor::Counters counters = exec.counters();
    EXPECT_EQ(counters.accepted, 2);
    EXPECT_EQ(counters.executed, 2);
    EXPECT_EQ(counters.rejected, 1);
    EXPECT_GE(counters.maxQueueDepth, 1);
}

TEST(Executor, DrainRethrowsFirstTaskException)
{
    serve::Executor exec(2, 1);
    ASSERT_EQ(exec.trySubmit([] { throw std::runtime_error("task failed"); }),
              serve::Executor::Admit::Accepted);
    EXPECT_THROW(exec.drain(), std::runtime_error);

    // The error is consumed: the executor keeps serving afterwards.
    std::atomic<int> ran{0};
    ASSERT_EQ(exec.trySubmit([&ran] { ran++; }),
              serve::Executor::Admit::Accepted);
    exec.drain();
    EXPECT_EQ(ran.load(), 1);
}

TEST(Executor, DegradesToOneWorkerWhenBudgetExhausted)
{
    BudgetGuard budget(1); // no helper slots at all
    serve::Executor exec(8, 16);
    EXPECT_EQ(exec.workers(), 1u);

    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(exec.trySubmit([&ran] { ran++; }),
                  serve::Executor::Admit::Accepted);
    }
    exec.drain();
    EXPECT_EQ(ran.load(), 16);
}

TEST(CompletionQueue, DeliversInPushOrder)
{
    serve::CompletionQueue queue;
    std::vector<int> seen; // drain thread only; no lock needed
    for (int i = 0; i < 100; ++i)
        queue.push([&seen, i] { seen.push_back(i); });
    queue.flush();
    ASSERT_EQ(seen.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(CompletionQueue, FlushWaitsForCallbackReturn)
{
    serve::CompletionQueue queue;
    std::atomic<bool> finished{false};
    queue.push([&finished] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        finished = true;
    });
    queue.flush();
    EXPECT_TRUE(finished.load());
}

TEST(CompletionQueue, SlowConsumerDoesNotBlockProducers)
{
    serve::CompletionQueue queue;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    queue.push([gate] { gate.wait(); });

    // With the first callback parked, later pushes must still return
    // immediately — and stay undelivered (in-order contract).
    std::atomic<int> delivered{0};
    for (int i = 0; i < 1000; ++i)
        queue.push([&delivered] { delivered++; });
    EXPECT_EQ(delivered.load(), 0);

    release.set_value();
    queue.flush();
    EXPECT_EQ(delivered.load(), 1000);
}

TEST(CompletionQueue, BlockedConsumerDoesNotStallExecutorWorkers)
{
    // Delivered on the worker itself under a lock, a completion
    // callback waiting for the *rest of the workload to compute* would
    // wedge the whole pool (the other workers blocked on the lock; the
    // computation the callback waited for never ran). With the drain,
    // workers only pay for the enqueue, so every callback below
    // eventually observes all tasks computed.
    serve::Executor exec(2, 8);
    serve::CompletionQueue drain;
    constexpr int total = 8;
    std::atomic<int> computed{0};
    std::atomic<int> sawAllComputed{0};

    for (int i = 0; i < total; ++i) {
        auto task = [&computed, &drain, &sawAllComputed] {
            computed++;
            drain.push([&computed, &sawAllComputed] {
                for (int spin = 0;
                     computed.load() < total && spin < 2000; ++spin)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                if (computed.load() == total)
                    sawAllComputed++;
            });
        };
        ASSERT_EQ(exec.trySubmit(task), serve::Executor::Admit::Accepted);
    }
    exec.drain();
    drain.flush();
    EXPECT_EQ(computed.load(), total);
    EXPECT_EQ(sawAllComputed.load(), total);
}

} // namespace
} // namespace gpumc::test
