/**
 * @file
 * Cube-and-conquer in the builtin backend: split queries must agree
 * verdict-for-verdict with the plain solve, both on raw CNF and
 * through the Verifier.
 *
 * The CubeAndConquer suite is additionally run under ThreadSanitizer
 * as the `tsan_cube_and_conquer` ctest entry: cube workers race on the
 * Sat CAS, the active-cube registry and the shared stats accumulation.
 */

#include <gtest/gtest.h>

#include "smt/backend.hpp"
#include "support/thread_budget.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

/** Give the cube farm helper threads; restore the default on exit. */
struct CubeBudget {
    CubeBudget() { ThreadBudget::instance().setTotal(4); }
    ~CubeBudget() { ThreadBudget::instance().setTotal(0); }
};

/** PHP(holes+1, holes): Unsat, needs real search. */
void
assertPigeonhole(smt::Backend &backend, int holes)
{
    const int pigeons = holes + 1;
    std::vector<std::vector<smt::Lit>> var(pigeons);
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p].push_back(backend.newVar());
    for (int p = 0; p < pigeons; ++p)
        backend.addClause(var[p]);
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                backend.addClause({-var[p][h], -var[q][h]});
}

/** A satisfiable formula with some propagation structure; returns the
 *  asserted clauses so the model can be checked against them. */
std::vector<std::vector<smt::Lit>>
assertSatisfiable(smt::Backend &backend)
{
    smt::Lit a = backend.newVar();
    smt::Lit b = backend.newVar();
    smt::Lit c = backend.newVar();
    smt::Lit d = backend.newVar();
    std::vector<std::vector<smt::Lit>> clauses = {
        {a}, {-a, b}, {-b, c, d}, {-c, -d}, {c, d}};
    for (const std::vector<smt::Lit> &clause : clauses)
        backend.addClause(clause);
    return clauses;
}

bool
modelSatisfies(const smt::Backend &backend,
               const std::vector<std::vector<smt::Lit>> &clauses)
{
    for (const std::vector<smt::Lit> &clause : clauses) {
        bool sat = false;
        for (smt::Lit lit : clause)
            sat = sat || backend.modelValue(lit) == smt::TruthValue::True;
        if (!sat)
            return false;
    }
    return true;
}

/** checkAll() verdicts for one litmus program at one cube depth. */
std::vector<core::VerificationResult>
verdictsOf(const prog::Program &program, const cat::CatModel &model,
           int cubeDepth)
{
    core::VerifierOptions vo;
    vo.validateWitness = true;
    vo.cubeDepth = cubeDepth;
    core::Verifier verifier(program, model, vo);
    return verifier.checkAll();
}

class CubeAndConquer : public ::testing::TestWithParam<int> {};

TEST_P(CubeAndConquer, VerdictsMatchPlainSolve)
{
    CubeBudget budget;
    const smt::BackendConfig config{GetParam()};

    std::unique_ptr<smt::Backend> unsatCase =
        smt::makeBackend(smt::BackendKind::Builtin, config);
    assertPigeonhole(*unsatCase, 6);
    EXPECT_EQ(unsatCase->solve(), smt::SolveResult::Unsat);

    std::unique_ptr<smt::Backend> satCase =
        smt::makeBackend(smt::BackendKind::Builtin, config);
    auto clauses = assertSatisfiable(*satCase);
    ASSERT_EQ(satCase->solve(), smt::SolveResult::Sat);
    EXPECT_TRUE(modelSatisfies(*satCase, clauses));
    if (GetParam() > 0) {
        std::map<std::string, int64_t> stats = satCase->statistics();
        EXPECT_GE(stats.at("cube.rounds"), 1);
        EXPECT_GE(stats.at("cube.solves"), 1);
    }

    // An acyclicity constraint, which the cube workers get along with
    // the clauses: every pair of four nodes is ordered one way or the
    // other, and the chain 0 -> 1 -> 2 -> 3 then forces each edge
    // forward.
    std::unique_ptr<smt::Backend> orderCase =
        smt::makeBackend(smt::BackendKind::Builtin, config);
    std::vector<smt::AcyclicEdge> edges;
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            if (a != b)
                edges.push_back({a, b, orderCase->newVar()});
        }
    }
    auto edge = [&edges](int a, int b) {
        return edges[static_cast<size_t>(3 * a + (b < a ? b : b - 1))].lit;
    };
    for (int a = 0; a < 4; ++a) {
        for (int b = a + 1; b < 4; ++b)
            orderCase->addClause({edge(a, b), edge(b, a)});
    }
    ASSERT_TRUE(orderCase->addAcyclic(edges));
    for (int a = 0; a < 3; ++a)
        orderCase->addClause({edge(a, a + 1)});
    ASSERT_EQ(orderCase->solve(), smt::SolveResult::Sat);
    for (const smt::AcyclicEdge &e : edges) {
        EXPECT_EQ(orderCase->modelValue(e.lit) == smt::TruthValue::True,
                  e.from < e.to)
            << e.from << " -> " << e.to;
    }
    EXPECT_EQ(orderCase->solve({edge(3, 0)}), smt::SolveResult::Unsat);

    // Incremental reuse with assumptions falls back to the plain
    // solver path or stays correct through cubes — either way the
    // verdict under an assumption must flip with its sign.
    smt::Lit y = satCase->newVar();
    satCase->addClause({y});
    EXPECT_EQ(satCase->solve({-y}), smt::SolveResult::Unsat);
    EXPECT_EQ(satCase->solve({y}), smt::SolveResult::Sat);
}

INSTANTIATE_TEST_SUITE_P(Depths, CubeAndConquer,
                         ::testing::Values(0, 1, 3),
                         [](const auto &info) {
                             return "depth" +
                                    std::to_string(info.param);
                         });

TEST(CubeAndConquer, VerifierVerdictsMatchUncubedRun)
{
    CubeBudget budget;
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("vulkan/basic/mp-rel-acq.litmus"));
    std::vector<core::VerificationResult> plain =
        verdictsOf(program, vulkanModel(), 0);
    std::vector<core::VerificationResult> cubed =
        verdictsOf(program, vulkanModel(), 3);
    ASSERT_EQ(plain.size(), cubed.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].holds, cubed[i].holds) << i;
        EXPECT_EQ(plain[i].unknown, cubed[i].unknown) << i;
        EXPECT_EQ(plain[i].detail, cubed[i].detail) << i;
    }
}

} // namespace
} // namespace gpumc::test
