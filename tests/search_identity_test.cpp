/**
 * @file
 * Search identity of the builtin CDCL solver: the conflicts, decisions
 * and propagations of fixed instances are pinned, on a bare
 * sat::Solver and on three Table 7 kernels through core::Verifier. A
 * change to the solver's storage must not move them: any reordering
 * of a clause's literals or of a watch list changes the search. The
 * bare-solver pins are those of the solver before its clauses moved
 * into one arena; the kernel pins are those since the `acyclic` axioms
 * moved into the solver's acyclicity propagator. Also checks that a
 * long-lived solver whose learned-clause database is reduced many
 * times keeps its clause arena and its watch pool bounded.
 */

#include <gtest/gtest.h>

#include <random>

#include "kernels/sync_kernels.hpp"
#include "smt/sat/solver.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using smt::sat::Lit;
using smt::sat::mkLit;
using smt::sat::Solver;
using smt::sat::Var;

struct Search {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
};

void
expectSearch(const Search &actual, const Search &pinned)
{
    EXPECT_EQ(actual.conflicts, pinned.conflicts);
    EXPECT_EQ(actual.decisions, pinned.decisions);
    EXPECT_EQ(actual.propagations, pinned.propagations);
}

Search
searchOf(const Solver &solver)
{
    const smt::sat::SolverStats &st = solver.stats();
    return {st.conflicts, st.decisions, st.propagations};
}

/** The pigeonhole CNF over fresh variables; each clause gets
 *  @p guard appended when it is defined. */
void
addPigeonhole(Solver &solver, int pigeons, int holes,
              Lit guard = smt::sat::kUndefLit)
{
    std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
    for (auto &row : at) {
        for (Var &v : row)
            v = solver.newVar();
    }
    std::vector<Lit> clause;
    auto add = [&] {
        if (guard != smt::sat::kUndefLit)
            clause.push_back(guard);
        solver.addClause(clause);
        clause.clear();
    };
    for (int p = 0; p < pigeons; ++p) {
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(at[p][h]));
        add();
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                clause = {~mkLit(at[p1][h]), ~mkLit(at[p2][h])};
                add();
            }
        }
    }
}

TEST(SearchIdentity, Pigeonhole7In6)
{
    Solver solver;
    addPigeonhole(solver, 7, 6);
    EXPECT_FALSE(solver.solve());
    expectSearch(searchOf(solver), {638, 747, 7206});
}

TEST(SearchIdentity, SeededRandom3Cnf)
{
    // mt19937 is fully specified, and the draws use only `%`, so the
    // instance is the same on every platform. At ratio 4.26 it takes
    // enough conflicts for reduceDB to fire, and so for the clause
    // arena to be compacted, several times.
    std::mt19937 rng(1);
    const int numVars = 250;
    const int numClauses = 1065;
    Solver solver;
    for (int v = 0; v < numVars; ++v)
        solver.newVar();
    std::vector<Lit> clause;
    for (int c = 0; c < numClauses; ++c) {
        clause.clear();
        for (int k = 0; k < 3; ++k)
            clause.push_back(mkLit(static_cast<Var>(rng() % numVars),
                                   rng() % 2 == 0));
        solver.addClause(clause);
    }
    EXPECT_TRUE(solver.solve());
    EXPECT_GT(solver.stats().removedClauses, 0u);
    expectSearch(searchOf(solver), {17525, 21582, 779699});
}

Search
searchOf(const core::VerificationResult &result)
{
    auto count = [&](const char *key) {
        return static_cast<uint64_t>(result.stats.get(key));
    };
    return {count("solver.conflicts"), count("solver.decisions"),
            count("solver.propagations")};
}

core::VerifierOptions
table7Options()
{
    core::VerifierOptions options;
    options.bound = 2;
    options.wantWitness = false;
    return options;
}

TEST(SearchIdentity, CaslockAcq2RlxSafety)
{
    prog::Program program = kernels::buildCaslock(
        {2, 2}, kernels::LockVariant::Acq2Rlx);
    core::Verifier verifier(program, vulkanModel(), table7Options());
    core::VerificationResult safety = verifier.checkSafety();
    EXPECT_TRUE(safety.holds); // the violation is reachable: buggy
    expectSearch(searchOf(safety), {81, 2514, 110268});
}

TEST(SearchIdentity, XfBarrierSafetyAndDrf)
{
    prog::Program program =
        kernels::buildXfBarrier({2, 2}, kernels::XfVariant::Base);
    core::Verifier verifier(program, vulkanModel(), table7Options());
    core::VerificationResult safety = verifier.checkSafety();
    EXPECT_FALSE(safety.holds); // no stale read: correct
    expectSearch(searchOf(safety), {29, 272, 8537});
    core::VerificationResult drf = verifier.checkCatSpec();
    EXPECT_TRUE(drf.holds); // race-free
    expectSearch(searchOf(drf), {13, 13, 6177});
}

TEST(SearchIdentity, TicketlockRel2RlxSafety)
{
    prog::Program program = kernels::buildTicketlock(
        {2, 2}, kernels::LockVariant::Rel2Rlx);
    core::Verifier verifier(program, vulkanModel(), table7Options());
    core::VerificationResult safety = verifier.checkSafety();
    EXPECT_TRUE(safety.holds);
    expectSearch(searchOf(safety), {91, 1696, 46288});
}

TEST(ClauseArena, StaysBoundedAcrossGuardedQueries)
{
    // A pooled session asks one solver query after query, each behind
    // its own activation literal. Here the queries alternate between
    // PHP(8,7), which is unsatisfiable, and PHP(7,7), which is not;
    // each is retired by a root unit on its activation literal. The
    // learned clauses of the hard ones make reduceDB fire again and
    // again, and the clauses it drops must not pile up in the arena.
    Solver solver;
    for (int query = 0; query < 12; ++query) {
        const bool unsat = query % 2 == 0;
        const Lit act = mkLit(solver.newVar());
        addPigeonhole(solver, unsat ? 8 : 7, 7, ~act);
        EXPECT_EQ(solver.solve({act}), !unsat) << "query " << query;
        ASSERT_TRUE(solver.addClause({~act}));
        EXPECT_LE(solver.arenaWords(), 2 * solver.liveClauseWords())
            << "query " << query;
    }
    EXPECT_GT(solver.stats().removedClauses, 0u);
}

TEST(WatchPool, StaysBoundedAcrossGuardedQueries)
{
    // The queries of ClauseArena.StaysBoundedAcrossGuardedQueries. A
    // list keeps the capacity of its largest size, rounded up to a
    // power of two, and the blocks lists leave wait on free lists for
    // the next list that grows to their size, so the pool runs ahead
    // of the live watchers: 6x after the first query, before the pool
    // is first compacted. reduceDB detaches half the learnt clauses
    // each time; without compacting the pool behind them, it reached
    // 17x by the last query and kept growing.
    Solver solver;
    for (int query = 0; query < 12; ++query) {
        const bool unsat = query % 2 == 0;
        const Lit act = mkLit(solver.newVar());
        addPigeonhole(solver, unsat ? 8 : 7, 7, ~act);
        EXPECT_EQ(solver.solve({act}), !unsat) << "query " << query;
        ASSERT_TRUE(solver.addClause({~act}));
        EXPECT_LE(solver.watchPoolSize(), 8 * solver.liveWatchers())
            << "query " << query;
    }
    EXPECT_GT(solver.stats().removedClauses, 0u);
}

} // namespace
} // namespace gpumc::test
