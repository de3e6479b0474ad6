/**
 * @file
 * smt::Backend time-limit semantics, identical across both shipped
 * backends: setTimeLimitMs(ms <= 0) must restore the backend's
 * unlimited default, not install a zero-millisecond budget.
 *
 * Regression: Z3 interprets the `timeout` parameter literally, so
 * mapping "disable" to `timeout=0` would leave every subsequent query
 * with a 0 ms budget and turn all results into Unknown — silently
 * poisoning any check that runs after a timed one on a shared session.
 *
 * The converse footgun lives in armTimeLimit: Deadline::remainingMs()
 * returns 0 both when expired and when unlimited, so forwarding an
 * expired deadline's remainder into setTimeLimitMs would launch an
 * unbounded solve from a budget that is already gone. The ArmTimeLimit
 * tests below pin the expired -> refuse-to-solve mapping.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "smt/backend.hpp"
#include "support/stats.hpp"

namespace gpumc::test {
namespace {

/**
 * Assert the pigeonhole principle PHP(holes+1, holes): every pigeon
 * gets a hole, no hole gets two pigeons. Unsat, and hard enough that
 * deciding it requires real search (no preprocessing shortcut). With a
 * nonzero @p guard every clause holds only while the guard is assumed.
 */
void
assertPigeonhole(smt::Backend &backend, int holes, smt::Lit guard = 0)
{
    auto add = [&](std::vector<smt::Lit> clause) {
        if (guard != 0)
            clause.push_back(-guard);
        backend.addClause(clause);
    };
    const int pigeons = holes + 1;
    std::vector<std::vector<smt::Lit>> var(pigeons);
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p].push_back(backend.newVar());
    for (int p = 0; p < pigeons; ++p)
        add(var[p]);
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                add({-var[p][h], -var[q][h]});
}

class TimeLimit : public ::testing::TestWithParam<smt::BackendKind> {};

TEST_P(TimeLimit, ClearingTheLimitRestoresUnlimitedDefault)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    assertPigeonhole(*backend, 6);

    // Install a 1 ms budget, then clear it. The solve must behave as
    // if no limit was ever set: PHP(7,6) needs far more than 1 ms of
    // default-budget search but is decided comfortably without one.
    backend->setTimeLimitMs(1);
    backend->setTimeLimitMs(0);
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unsat);
}

TEST_P(TimeLimit, NegativeValuesDisableLikeZero)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    assertPigeonhole(*backend, 6);
    backend->setTimeLimitMs(5000);
    backend->setTimeLimitMs(-42);
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unsat);
}

TEST_P(TimeLimit, TinyBudgetYieldsUnknown)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    // PHP(11,10) is out of reach for a 1 ms budget on any machine.
    assertPigeonhole(*backend, 10);
    backend->setTimeLimitMs(1);
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unknown);
}

/**
 * Regression for the built-in solver's split deadlines: search() and
 * solveLimited() used to keep two independent locally-derived budgets,
 * and long unit-propagation runs checked neither — a solve could
 * overshoot its budget by the length of whatever propagation or
 * restart it was inside. With the single shared gpumc::Deadline the
 * whole solve (restart loop, conflict loop and propagation runs) must
 * come back promptly once the budget is exhausted.
 */
TEST_P(TimeLimit, BudgetSpansRestartSearchAndPropagationLoops)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    // Big enough that 50 ms lands mid-search, deep inside propagation
    // runs and across several restarts.
    assertPigeonhole(*backend, 11);
    backend->setTimeLimitMs(50);
    Stopwatch watch;
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unknown);
    // Generous CI margin, but far below the minutes PHP(12,11) needs:
    // the deadline fired from inside the loops, not after them.
    EXPECT_LT(watch.elapsedMs(), 5000.0);
}

/**
 * A timed-out solve must not leak its expired deadline into later
 * incremental use of the same solver: clauses added afterwards (which
 * propagate internally) and the next unlimited solve start fresh.
 */
TEST_P(TimeLimit, TimedOutSolveDoesNotPoisonLaterQueries)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    // PHP(11,10) stays undecided even when a loaded machine fires the
    // 1 ms timer late, which a small instance like PHP(7,6) does not.
    // Its clauses hang off an activation literal so they can be retired.
    smt::Lit hard = backend->mkActivationLit();
    assertPigeonhole(*backend, 10, hard);
    backend->setTimeLimitMs(1);
    EXPECT_EQ(backend->solve({hard}), smt::SolveResult::Unknown);

    // Adding clauses after the timeout exercises the propagation path
    // with the (now disarmed) deadline still in scope. PHP(7,6) needs
    // real search, which an unlimited solve finishes well within
    // seconds.
    backend->addClause({-hard});
    assertPigeonhole(*backend, 6);
    backend->setTimeLimitMs(0);
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unsat);
}

INSTANTIATE_TEST_SUITE_P(Backends, TimeLimit,
                         ::testing::Values(smt::BackendKind::Builtin,
                                           smt::BackendKind::Z3),
                         [](const auto &info) {
                             return smt::backendKindName(info.param);
                         });

class ArmTimeLimit : public ::testing::TestWithParam<smt::BackendKind> {
};

TEST_P(ArmTimeLimit, ExpiredDeadlineRefusesToSolve)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    assertPigeonhole(*backend, 10);

    // A deadline whose budget is already gone — the exact state a
    // session query sees when earlier properties ate the whole budget.
    // armTimeLimit must refuse (the caller reports Unknown) instead of
    // mapping remainingMs() == 0 to "unlimited".
    Deadline expired = Deadline::in(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(expired.expired());
    EXPECT_FALSE(smt::armTimeLimit(*backend, expired));

    // Defence in depth: even a caller that ignores the refusal must
    // not get an unbounded solve — PHP(11,10) would otherwise pin a
    // core for minutes here.
    Stopwatch watch;
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unknown);
    EXPECT_LT(watch.elapsedMs(), 5000.0);
}

TEST_P(ArmTimeLimit, UnlimitedDeadlineRestoresUnlimitedDefault)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    assertPigeonhole(*backend, 6);

    // Leave a stale 1 ms budget behind, then arm from an unlimited
    // deadline: the solve must run without any limit.
    backend->setTimeLimitMs(1);
    Deadline unlimited;
    ASSERT_FALSE(unlimited.limited());
    EXPECT_TRUE(smt::armTimeLimit(*backend, unlimited));
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unsat);
}

TEST_P(ArmTimeLimit, LiveDeadlineForwardsItsRemainder)
{
    std::unique_ptr<smt::Backend> backend = smt::makeBackend(GetParam());
    assertPigeonhole(*backend, 10);

    Deadline live = Deadline::in(50);
    EXPECT_TRUE(smt::armTimeLimit(*backend, live));
    Stopwatch watch;
    EXPECT_EQ(backend->solve(), smt::SolveResult::Unknown);
    EXPECT_LT(watch.elapsedMs(), 5000.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ArmTimeLimit,
                         ::testing::Values(smt::BackendKind::Builtin,
                                           smt::BackendKind::Z3),
                         [](const auto &info) {
                             return smt::backendKindName(info.param);
                         });

} // namespace
} // namespace gpumc::test
