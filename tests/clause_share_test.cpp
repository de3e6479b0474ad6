/**
 * @file
 * Learned-clause sharing: the ClauseStore (publish/fetch/eviction),
 * import-at-restart re-validation against the importing solver's root
 * trail, solvers racing on one store, and the sharing mode's place in
 * the session key.
 *
 * The ClauseShareConcurrency suite is additionally run under
 * ThreadSanitizer as the `tsan_share_store` ctest entry.
 */

#include <atomic>
#include <gtest/gtest.h>
#include <thread>

#include "core/session_key.hpp"
#include "smt/sat/solver.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using smt::sat::ClauseStore;
using smt::sat::LBool;
using smt::sat::Lit;
using smt::sat::mkLit;
using smt::sat::Solver;
using smt::sat::Var;

// --- the store itself -------------------------------------------------

TEST(ClauseShareStore, FetchSkipsOwnClausesAndAdvancesCursor)
{
    ClauseStore store;
    int alice = store.registerSource();
    int bob = store.registerSource();

    store.publish(alice, {mkLit(0)});
    store.publish(bob, {mkLit(1), mkLit(2, true)});

    // Alice never re-imports her own clause.
    uint64_t cursor = 0;
    std::vector<std::vector<Lit>> out;
    EXPECT_EQ(store.fetch(alice, cursor, out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (std::vector<Lit>{mkLit(1), mkLit(2, true)}));

    // The cursor moved past everything: a second fetch is empty.
    out.clear();
    EXPECT_EQ(store.fetch(alice, cursor, out), 0u);
    EXPECT_TRUE(out.empty());

    // New clauses published after the fetch are picked up.
    store.publish(bob, {mkLit(3)});
    EXPECT_EQ(store.fetch(alice, cursor, out), 1u);
    EXPECT_EQ(store.size(), 3u);
}

TEST(ClauseShareStore, FifoEvictionPastCapacity)
{
    ClauseStore store(ClauseStore::Config{2, 8, 32});
    int writer = store.registerSource();
    int reader = store.registerSource();

    store.publish(writer, {mkLit(0)});
    store.publish(writer, {mkLit(1)});
    store.publish(writer, {mkLit(2)});

    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.counters().published, 3);
    EXPECT_EQ(store.counters().evicted, 1);

    // A reader whose cursor predates the eviction just skips the lost
    // clause: it gets the two survivors, never a stale entry.
    uint64_t cursor = 0;
    std::vector<std::vector<Lit>> out;
    EXPECT_EQ(store.fetch(reader, cursor, out), 2u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::vector<Lit>{mkLit(1)}));
    EXPECT_EQ(out[1], (std::vector<Lit>{mkLit(2)}));
}

// --- import re-validation at restart boundaries -----------------------

TEST(ClauseShareImport, ForeignUnitIsImportedAtSolveStart)
{
    auto store = std::make_shared<ClauseStore>();
    int foreign = store->registerSource();

    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a), mkLit(b)}));
    solver.attachStore(store);

    store->publish(foreign, {~mkLit(a)});
    ASSERT_TRUE(solver.solve());
    // The imported unit forces a=false, and (a or b) then forces b.
    EXPECT_EQ(solver.modelValue(mkLit(a)), LBool::False);
    EXPECT_EQ(solver.modelValue(mkLit(b)), LBool::True);
    EXPECT_EQ(solver.shareStats().imported, 1u);
    EXPECT_EQ(solver.shareStats().rejected, 0u);
}

TEST(ClauseShareImport, RootSatisfiedClauseIsSkipped)
{
    auto store = std::make_shared<ClauseStore>();
    int foreign = store->registerSource();

    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a)}));
    solver.attachStore(store);

    // `a` is root-true in the importer: nothing to learn.
    store->publish(foreign, {mkLit(a), mkLit(b)});
    ASSERT_TRUE(solver.solve());
    EXPECT_EQ(solver.shareStats().imported, 0u);
    EXPECT_EQ(solver.shareStats().rejected, 1u);
}

TEST(ClauseShareImport, RootFalseLiteralsArePrunedToAUnit)
{
    auto store = std::make_shared<ClauseStore>();
    int foreign = store->registerSource();

    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    ASSERT_TRUE(solver.addClause({~mkLit(a)}));
    solver.attachStore(store);

    // `a` is root-false: the import shrinks to the implied unit {b}.
    store->publish(foreign, {mkLit(a), mkLit(b)});
    ASSERT_TRUE(solver.solve());
    EXPECT_EQ(solver.modelValue(mkLit(b)), LBool::True);
    EXPECT_EQ(solver.shareStats().imported, 1u);
}

TEST(ClauseShareImport, EmptyRemainderIsARootConflict)
{
    auto store = std::make_shared<ClauseStore>();
    int foreign = store->registerSource();

    Solver solver;
    Var a = solver.newVar();
    ASSERT_TRUE(solver.addClause({~mkLit(a)}));
    solver.attachStore(store);

    // Every literal of the import is root-false: Unsat at level 0.
    store->publish(foreign, {mkLit(a)});
    EXPECT_FALSE(solver.solve());
    EXPECT_TRUE(solver.inConflict());
}

TEST(ClauseShareImport, UnknownVariableIsRejected)
{
    auto store = std::make_shared<ClauseStore>();
    int foreign = store->registerSource();

    Solver solver;
    Var a = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a)}));
    solver.attachStore(store);

    // The publisher knew more variables than this importer.
    store->publish(foreign, {mkLit(7), mkLit(8, true)});
    ASSERT_TRUE(solver.solve());
    EXPECT_EQ(solver.shareStats().imported, 0u);
    EXPECT_EQ(solver.shareStats().rejected, 1u);
}

// --- the Verifier ---------------------------------------------------

TEST(ClauseShareVerifier, ShareModeIsPartOfTheSessionKey)
{
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("vulkan/basic/mp-rel-acq.litmus"));
    core::VerifierOptions off;
    core::VerifierOptions on = off;
    on.clauseShare = smt::ClauseShareMode::Cube;
    // Different sharing modes must never alias pooled sessions or
    // cached results.
    EXPECT_NE(core::sessionKey(program, vulkanModel(), off),
              core::sessionKey(program, vulkanModel(), on));
}

// --- concurrency (also the tsan_share_store ctest entry) --------------

TEST(ClauseShareConcurrency, PublishFetchHammer)
{
    auto store = std::make_shared<ClauseStore>(
        ClauseStore::Config{256, 8, 32});
    constexpr int kThreads = 4;
    constexpr int kRounds = 500;

    std::atomic<int64_t> fetched{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            int source = store->registerSource();
            uint64_t cursor = 0;
            std::vector<std::vector<Lit>> out;
            for (int i = 0; i < kRounds; ++i) {
                store->publish(source,
                               {mkLit(t), mkLit(kThreads + i % 7, true)});
                out.clear();
                fetched.fetch_add(static_cast<int64_t>(
                    store->fetch(source, cursor, out)));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(store->counters().published, kThreads * kRounds);
    EXPECT_LE(store->size(), 256u);
    EXPECT_GT(fetched.load(), 0);
}

TEST(ClauseShareConcurrency, SolversRacingOnOneStoreAgree)
{
    // Two solvers on the same (Unsat) pigeonhole instance, publishing
    // and importing through one store while both search.
    auto store = std::make_shared<ClauseStore>();
    constexpr int kHoles = 5;
    auto solveOne = [&](bool &unsat) {
        Solver solver;
        int pigeons = kHoles + 1;
        std::vector<std::vector<Var>> at(
            pigeons, std::vector<Var>(kHoles));
        for (int p = 0; p < pigeons; ++p)
            for (int h = 0; h < kHoles; ++h)
                at[p][h] = solver.newVar();
        for (int p = 0; p < pigeons; ++p) {
            std::vector<Lit> some;
            for (int h = 0; h < kHoles; ++h)
                some.push_back(mkLit(at[p][h]));
            solver.addClause(some);
        }
        for (int h = 0; h < kHoles; ++h)
            for (int p = 0; p < pigeons; ++p)
                for (int q = p + 1; q < pigeons; ++q)
                    solver.addClause(
                        {~mkLit(at[p][h]), ~mkLit(at[q][h])});
        solver.attachStore(store);
        unsat = !solver.solve();
    };

    bool first = false, second = false;
    std::thread a([&] { solveOne(first); });
    std::thread b([&] { solveOne(second); });
    a.join();
    b.join();
    EXPECT_TRUE(first);
    EXPECT_TRUE(second);
    EXPECT_GT(store->counters().published, 0);
}

} // namespace
} // namespace gpumc::test
