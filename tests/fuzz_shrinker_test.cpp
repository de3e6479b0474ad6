/**
 * @file
 * Delta-debugging shrinker tests: minimization under structural
 * predicates, validity of every result, and preservation of a real
 * oracle disagreement while shrinking.
 */

#include <gtest/gtest.h>

#include "fuzz/oracle.hpp"
#include "fuzz/random_program.hpp"
#include "fuzz/shrinker.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using namespace prog;

bool
hasBackwardBranch(const Program &program)
{
    for (const Thread &thread : program.threads) {
        std::vector<std::string> seen;
        for (const Instruction &ins : thread.instrs) {
            if (ins.op == Opcode::Label)
                seen.push_back(ins.label);
            if ((ins.isBranch() || ins.op == Opcode::Goto) &&
                std::find(seen.begin(), seen.end(), ins.label) !=
                    seen.end()) {
                return true;
            }
        }
    }
    return false;
}

TEST(FuzzShrinker, CloneIsDeepAndEquivalent)
{
    Program program = fuzz::randomProgram(
        3, 0, fuzz::FuzzConfig::full(Arch::Vulkan));
    Program copy = fuzz::cloneProgram(program);
    EXPECT_EQ(fuzz::programSize(program), fuzz::programSize(copy));
    ASSERT_TRUE(copy.assertion);
    EXPECT_EQ(program.assertion->str(), copy.assertion->str());
    // Deep: mutating the copy's condition leaves the original alone.
    std::string before = program.assertion->str();
    copy.assertion = Cond::mkTrue();
    EXPECT_EQ(program.assertion->str(), before);
}

TEST(FuzzShrinker, MinimizesUnderStructuralPredicate)
{
    // Find a control-flow program with a loop, then shrink it while
    // "still has a backward branch" keeps holding. The fixpoint should
    // strip everything else.
    fuzz::FuzzConfig config =
        fuzz::FuzzConfig::withControlFlow(Arch::Ptx);
    for (uint64_t i = 0;; ++i) {
        ASSERT_LT(i, 200u) << "no loopy program in 200 draws";
        Program program = fuzz::randomProgram(17, i, config);
        if (!hasBackwardBranch(program))
            continue;

        fuzz::ShrinkOutcome outcome = fuzz::shrinkProgram(
            program, [](const Program &p) { return hasBackwardBranch(p); });
        EXPECT_TRUE(hasBackwardBranch(outcome.program));
        EXPECT_LE(outcome.finalSize, outcome.initialSize);
        // A single loop needs only label + branch (+ loop counter
        // bookkeeping); anything above a handful of instructions means
        // the shrinker stopped early.
        EXPECT_LE(fuzz::programSize(outcome.program), 4);
        EXPECT_EQ(outcome.program.threads.size(), 1u);
        ASSERT_NO_THROW(fuzz::cloneProgram(outcome.program).validate());
        break;
    }
}

TEST(FuzzShrinker, RespectsAttemptBudget)
{
    Program program =
        fuzz::randomProgram(5, 0, fuzz::FuzzConfig::full(Arch::Ptx));
    fuzz::ShrinkOptions options;
    options.maxAttempts = 7;
    int calls = 0;
    fuzz::ShrinkOutcome outcome = fuzz::shrinkProgram(
        program,
        [&](const Program &) {
            calls++;
            return true;
        },
        options);
    EXPECT_LE(outcome.attempts, 7);
    EXPECT_LE(calls, 7);
}

TEST(FuzzShrinker, PreservesOracleDisagreement)
{
    // The injected bound-gap disagreement from the oracle tests, with
    // noise instructions around it; shrinking must keep the loop that
    // causes the gap and drop the noise.
    const char *source = "PTX \"noisy-bound-gap\"\n"
                         "{ v0 = 0; v1 = 0; }\n"
                         "P0@cta 0,gpu 0  | P1@cta 1,gpu 0 ;\n"
                         "st.relaxed.cta v1, 1 | ld.relaxed.cta r9, v1 ;\n"
                         "mov r0, 0       |                ;\n"
                         "L0:             |                ;\n"
                         "add r0, r0, 1   |                ;\n"
                         "bne r0, 3, L0   |                ;\n"
                         "exists (P0:r0 == 3)\n";
    Program program = litmus::parseLitmus(source);

    fuzz::OracleOptions options;
    options.bound = 2;
    options.z3Bound = 1;
    const cat::CatModel &model = ptx75Model();
    auto stillFails = [&](const Program &candidate) {
        fuzz::OracleReport report = fuzz::runOracles(
            candidate, model, options, fuzz::OracleKind::Z3VsBuiltin);
        const fuzz::OracleOutcome *o =
            report.find(fuzz::OracleKind::Z3VsBuiltin);
        return o && o->verdict == fuzz::OracleVerdict::Disagree;
    };
    ASSERT_TRUE(stillFails(program)) << "premise: injection disagrees";

    fuzz::ShrinkOutcome outcome =
        fuzz::shrinkProgram(program, stillFails);
    EXPECT_TRUE(stillFails(outcome.program));
    EXPECT_LT(outcome.finalSize, outcome.initialSize);
    EXPECT_EQ(outcome.program.threads.size(), 1u)
        << "the noise thread should be gone";
    EXPECT_TRUE(hasBackwardBranch(outcome.program))
        << "the loop causing the bound gap must survive";
}

} // namespace
} // namespace gpumc::test
