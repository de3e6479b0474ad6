/**
 * @file
 * The acyclicity constraint of the builtin CDCL solver
 * (sat::Solver::addAcyclic) on bare solvers: root cycles, cycles that
 * close only under assumptions, and a seeded differential against the
 * same formulas with the constraint encoded eagerly by clocks on a
 * second solver.
 */

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "smt/sat/solver.hpp"

namespace gpumc::test {
namespace {

using smt::sat::AcyclicEdge;
using smt::sat::Lit;
using smt::sat::LBool;
using smt::sat::mkLit;
using smt::sat::Solver;
using smt::sat::Var;

/** Do the edges true in @p solver's model form a cycle? */
bool
modelHasCycle(const Solver &solver, const std::vector<AcyclicEdge> &edges,
              int numNodes)
{
    std::vector<std::vector<int>> succ(numNodes);
    for (const AcyclicEdge &e : edges) {
        if (solver.modelValue(e.lit) == LBool::True)
            succ[e.from].push_back(e.to);
    }
    // 0 unvisited, 1 on the DFS stack, 2 done.
    std::vector<int> state(numNodes, 0);
    std::function<bool(int)> visit = [&](int x) {
        state[x] = 1;
        for (int y : succ[x]) {
            if (state[y] == 1 || (state[y] == 0 && visit(y)))
                return true;
        }
        state[x] = 2;
        return false;
    };
    for (int x = 0; x < numNodes; ++x) {
        if (state[x] == 0 && visit(x))
            return true;
    }
    return false;
}

/**
 * The eager encoding: each node gets a unary clock ge[x][k] ("clock(x)
 * >= k", k = 1..n-1, monotone in k), and an edge x -> y implies
 * clock(x) < clock(y), i.e. ge[x][k] -> ge[y][k+1] for k = 0..n-1,
 * with ge[.][0] true and ge[.][n] false.
 */
void
addClocks(Solver &solver, const std::vector<AcyclicEdge> &edges,
          int numNodes)
{
    std::vector<std::vector<Var>> ge(numNodes);
    for (auto &clock : ge) {
        for (int k = 1; k < numNodes; ++k)
            clock.push_back(solver.newVar());
        for (int k = 1; k + 1 < numNodes; ++k)
            solver.addClause({~mkLit(clock[k]), mkLit(clock[k - 1])});
    }
    for (const AcyclicEdge &e : edges) {
        for (int k = 0; k < numNodes; ++k) {
            std::vector<Lit> clause = {~e.lit};
            if (k > 0)
                clause.push_back(~mkLit(ge[e.from][k - 1]));
            if (k + 1 < numNodes)
                clause.push_back(mkLit(ge[e.to][k]));
            solver.addClause(clause);
        }
    }
}

TEST(AcyclicPropagator, RootCycleOfTrueEdgesIsUnsatAtRegistration)
{
    Solver solver;
    const Lit x = mkLit(solver.newVar());
    const Lit y = mkLit(solver.newVar());
    ASSERT_TRUE(solver.addClause({x}));
    ASSERT_TRUE(solver.addClause({y}));
    const std::vector<AcyclicEdge> edges = {{0, 1, x}, {1, 2, y}, {2, 0, x}};
    EXPECT_FALSE(solver.addAcyclic(edges));
    EXPECT_TRUE(solver.inConflict());
    EXPECT_FALSE(solver.solve());
}

TEST(AcyclicPropagator, LiteralWhoseOwnEdgesCloseACycleIsFalse)
{
    // A self-loop, and a two-cycle under one literal.
    Solver solver;
    const Lit x = mkLit(solver.newVar());
    const Lit y = mkLit(solver.newVar());
    const Lit z = mkLit(solver.newVar());
    const std::vector<AcyclicEdge> edges = {
        {0, 0, x}, {1, 2, y}, {2, 1, y}, {0, 1, z}};
    ASSERT_TRUE(solver.addAcyclic(edges));
    EXPECT_FALSE(solver.solve({x}));
    EXPECT_FALSE(solver.solve({y}));
    ASSERT_TRUE(solver.solve({z}));
    EXPECT_EQ(solver.modelValue(x), LBool::False);
    EXPECT_EQ(solver.modelValue(y), LBool::False);
}

TEST(AcyclicPropagator, CycleUnderAssumptionsIsUnsatOnlyUnderThem)
{
    // 0 -> 1 -> 2 -> 3 -> 0 with one free literal per edge, plus a
    // chord 1 -> 3; the cycle closes only when all four are assumed.
    Solver solver;
    std::vector<Lit> lits;
    for (int i = 0; i < 5; ++i)
        lits.push_back(mkLit(solver.newVar()));
    const std::vector<AcyclicEdge> edges = {{0, 1, lits[0]},
                                            {1, 2, lits[1]},
                                            {2, 3, lits[2]},
                                            {3, 0, lits[3]},
                                            {1, 3, lits[4]}};
    ASSERT_TRUE(solver.addAcyclic(edges));
    const std::vector<Lit> cycle = {lits[0], lits[1], lits[2], lits[3]};
    const std::vector<Lit> chordCycle = {lits[0], lits[4], lits[3]};
    for (int query = 0; query < 4; ++query) {
        EXPECT_FALSE(solver.solve(cycle)) << "query " << query;
        EXPECT_FALSE(solver.solve(chordCycle)) << "query " << query;
        ASSERT_TRUE(solver.solve()) << "query " << query;
        EXPECT_FALSE(modelHasCycle(solver, edges, 4));
        // Three of the four cycle edges may hold together.
        ASSERT_TRUE(solver.solve({lits[0], lits[1], lits[2], lits[4]}))
            << "query " << query;
        EXPECT_EQ(solver.modelValue(lits[3]), LBool::False);
    }
    EXPECT_GT(solver.stats().acyclicConflicts, 0u);
}

TEST(AcyclicPropagator, MatchesClockEncodingOnRandomGraphs)
{
    std::mt19937 rng(7);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    int sat = 0;
    int unsat = 0;
    for (int round = 0; round < 200; ++round) {
        const int numNodes = 2 + pick(7);
        const int numFree = 3 + pick(4);
        Solver lazy;
        Solver eager;
        for (int v = 0; v < numFree; ++v) {
            lazy.newVar();
            eager.newVar();
        }
        auto randomLit = [&] {
            return mkLit(static_cast<Var>(pick(numFree)), pick(2) == 0);
        };
        std::vector<std::vector<Lit>> sideClauses(pick(4));
        for (auto &clause : sideClauses) {
            clause.resize(1 + pick(3));
            for (Lit &l : clause)
                l = randomLit();
        }
        // Some side clauses are asserted before the graphs, so some
        // edges are decided at the root when they are added.
        const size_t early = sideClauses.empty()
                                 ? 0
                                 : static_cast<size_t>(
                                       pick(static_cast<int>(
                                           sideClauses.size()) + 1));
        // A solver that turns unsatisfiable on the way answers Unsat.
        for (size_t i = 0; i < early; ++i) {
            lazy.addClause(sideClauses[i]);
            eager.addClause(sideClauses[i]);
        }
        std::vector<std::vector<AcyclicEdge>> graphs(1 + pick(2));
        for (auto &edges : graphs) {
            edges.resize(1 + pick(3 * numNodes));
            for (AcyclicEdge &e : edges)
                e = {pick(numNodes), pick(numNodes), randomLit()};
            lazy.addAcyclic(edges);
            addClocks(eager, edges, numNodes);
        }
        for (size_t i = early; i < sideClauses.size(); ++i) {
            lazy.addClause(sideClauses[i]);
            eager.addClause(sideClauses[i]);
        }
        // Three queries on each pair: none, then two random
        // assumption sets.
        for (int query = 0; query < 3; ++query) {
            std::vector<Lit> assumptions;
            for (int k = 0; query > 0 && k < 1 + pick(3); ++k)
                assumptions.push_back(randomLit());
            const bool lazySat = lazy.solve(assumptions);
            const bool eagerSat = eager.solve(assumptions);
            ASSERT_EQ(lazySat, eagerSat)
                << "round " << round << " query " << query;
            if (lazySat) {
                sat++;
                for (const auto &edges : graphs)
                    EXPECT_FALSE(modelHasCycle(lazy, edges, numNodes))
                        << "round " << round << " query " << query;
            } else {
                unsat++;
            }
        }
    }
    // The instances must exercise both answers.
    EXPECT_GT(sat, 100);
    EXPECT_GT(unsat, 100);
}

} // namespace
} // namespace gpumc::test
