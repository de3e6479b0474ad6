/**
 * @file
 * Unit and property tests for the built-in CDCL SAT solver: hand
 * instances, pigeonhole UNSATs, assumptions, incremental use,
 * cross-thread interrupts, and a randomized cross-check against
 * brute-force enumeration.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "smt/sat/solver.hpp"

namespace gpumc::smt::sat {
namespace {

TEST(SatSolver, EmptyInstanceIsSat)
{
    Solver solver;
    EXPECT_TRUE(solver.solve());
}

TEST(SatSolver, UnitPropagation)
{
    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a)}));
    ASSERT_TRUE(solver.addClause({~mkLit(a), mkLit(b)}));
    ASSERT_TRUE(solver.solve());
    EXPECT_EQ(solver.modelValue(mkLit(a)), LBool::True);
    EXPECT_EQ(solver.modelValue(mkLit(b)), LBool::True);
}

TEST(SatSolver, ContradictionIsUnsat)
{
    Solver solver;
    Var a = solver.newVar();
    ASSERT_TRUE(solver.addClause({mkLit(a)}));
    EXPECT_FALSE(solver.addClause({~mkLit(a)}));
    EXPECT_FALSE(solver.solve());
}

TEST(SatSolver, DuplicateAndTautologicalLiterals)
{
    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    // Tautology: ignored.
    ASSERT_TRUE(solver.addClause({mkLit(a), ~mkLit(a)}));
    // Duplicates collapse.
    ASSERT_TRUE(solver.addClause({mkLit(b), mkLit(b)}));
    ASSERT_TRUE(solver.solve());
    EXPECT_EQ(solver.modelValue(mkLit(b)), LBool::True);
}

TEST(SatSolver, XorChainSat)
{
    // x1 xor x2 xor x3 = 1 via CNF.
    Solver solver;
    Var x1 = solver.newVar(), x2 = solver.newVar(), x3 = solver.newVar();
    Lit a = mkLit(x1), b = mkLit(x2), c = mkLit(x3);
    solver.addClause({a, b, c});
    solver.addClause({a, ~b, ~c});
    solver.addClause({~a, b, ~c});
    solver.addClause({~a, ~b, c});
    ASSERT_TRUE(solver.solve());
    bool v1 = solver.modelValue(a) == LBool::True;
    bool v2 = solver.modelValue(b) == LBool::True;
    bool v3 = solver.modelValue(c) == LBool::True;
    EXPECT_TRUE(v1 ^ v2 ^ v3);
}

/** Pigeonhole principle: n+1 pigeons, n holes — classic UNSAT. */
void
addPigeonhole(Solver &solver, int holes)
{
    int pigeons = holes + 1;
    std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p) {
        for (int h = 0; h < holes; ++h)
            at[p][h] = solver.newVar();
    }
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(at[p][h]));
        solver.addClause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                solver.addClause({~mkLit(at[p1][h]), ~mkLit(at[p2][h])});
        }
    }
}

void
pigeonhole(int holes)
{
    Solver solver;
    addPigeonhole(solver, holes);
    EXPECT_FALSE(solver.solve()) << "PHP(" << holes << ") must be UNSAT";
}

TEST(SatSolver, Pigeonhole4)
{
    pigeonhole(4);
}

TEST(SatSolver, Pigeonhole6)
{
    pigeonhole(6);
}

TEST(SatSolver, InterruptFromAnotherThreadStopsUnlimitedSolve)
{
    // PHP(12,11) takes minutes unaided; the cross-thread interrupt has
    // to be what brings the unlimited solve back. Cube-and-conquer
    // relies on it: a Sat cube cancels its higher-index siblings.
    Solver solver;
    addPigeonhole(solver, 11);
    std::thread canceller([&solver] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        solver.interrupt();
    });
    Stopwatch watch;
    EXPECT_EQ(solver.solveLimited(), Solver::Status::Unknown);
    EXPECT_LT(watch.elapsedMs(), 10000.0);
    canceller.join();
}

TEST(SatSolver, Assumptions)
{
    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    solver.addClause({~mkLit(a), mkLit(b)});
    solver.addClause({~mkLit(b), ~mkLit(a)});
    // Consistent alone.
    EXPECT_TRUE(solver.solve());
    // a forces b and ~b: contradiction under the assumption only.
    EXPECT_FALSE(solver.solve({mkLit(a)}));
    // Still satisfiable afterwards (assumptions are not permanent).
    EXPECT_TRUE(solver.solve());
    EXPECT_TRUE(solver.solve({~mkLit(a)}));
}

TEST(SatSolver, IncrementalClauses)
{
    Solver solver;
    Var a = solver.newVar(), b = solver.newVar();
    solver.addClause({mkLit(a), mkLit(b)});
    EXPECT_TRUE(solver.solve());
    solver.addClause({~mkLit(a)});
    EXPECT_TRUE(solver.solve());
    EXPECT_EQ(solver.modelValue(mkLit(b)), LBool::True);
    solver.addClause({~mkLit(b)});
    EXPECT_FALSE(solver.solve());
}

/** Brute-force satisfiability of a CNF over n <= 16 variables. */
bool
bruteForceSat(int numVars, const std::vector<std::vector<Lit>> &clauses)
{
    for (uint32_t assignment = 0; assignment < (1u << numVars);
         ++assignment) {
        bool all = true;
        for (const auto &clause : clauses) {
            bool any = false;
            for (Lit l : clause) {
                bool value = (assignment >> l.var()) & 1;
                any = any || (value != l.sign());
            }
            if (!any) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

TEST(SatSolver, RandomCnfAgreesWithBruteForce)
{
    std::mt19937 rng(12345);
    for (int round = 0; round < 300; ++round) {
        int numVars = 3 + static_cast<int>(rng() % 8);
        int numClauses = 2 + static_cast<int>(rng() % (numVars * 4));
        Solver solver;
        for (int v = 0; v < numVars; ++v)
            solver.newVar();
        std::vector<std::vector<Lit>> clauses;
        bool addOk = true;
        for (int c = 0; c < numClauses; ++c) {
            int width = 1 + static_cast<int>(rng() % 3);
            std::vector<Lit> clause;
            for (int k = 0; k < width; ++k) {
                Var v = static_cast<Var>(rng() % numVars);
                clause.push_back(mkLit(v, rng() % 2 == 0));
            }
            clauses.push_back(clause);
            addOk = solver.addClause(clause) && addOk;
        }
        bool expected = bruteForceSat(numVars, clauses);
        bool actual = addOk && solver.solve();
        ASSERT_EQ(expected, actual) << "mismatch in round " << round;

        if (actual) {
            // The model must satisfy every clause.
            for (const auto &clause : clauses) {
                bool any = false;
                for (Lit l : clause)
                    any = any ||
                          solver.modelValue(l) == LBool::True;
                ASSERT_TRUE(any) << "model violates clause in round "
                                 << round;
            }
        }
    }
}

} // namespace
} // namespace gpumc::smt::sat
