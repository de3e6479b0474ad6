/**
 * @file
 * Differential-oracle harness unit tests. The critical regression
 * here is the silent-skip hazard: when the explicit checker declines a
 * program (`unsupportedReason`), the harness must report SKIPPED with
 * that reason — never agreement. Plus the bound-monotonicity
 * metamorphic property over a fixed seed set, on both SMT backends,
 * and the injected bound-gap fault detection.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/oracle.hpp"
#include "fuzz/random_program.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using namespace prog;

/** Two-thread CAS program: outside the explicit checker's fragment. */
Program
casProgram()
{
    Program p;
    p.arch = Arch::Ptx;
    p.name = "cas-skip";

    Thread t0;
    t0.name = "P0";
    Instruction cas;
    cas.op = Opcode::Rmw;
    cas.rmwKind = RmwKind::Cas;
    cas.location = "x";
    cas.dst = "r0";
    cas.src = Operand::makeConst(0);  // expected
    cas.src2 = Operand::makeConst(1); // desired
    cas.order = MemOrder::AcqRel;
    cas.atomic = true;
    t0.instrs.push_back(std::move(cas));
    p.threads.push_back(std::move(t0));

    Thread t1;
    t1.name = "P1";
    Instruction ld;
    ld.op = Opcode::Load;
    ld.location = "x";
    ld.dst = "r1";
    ld.order = MemOrder::Acq;
    ld.atomic = true;
    t1.instrs.push_back(std::move(ld));
    p.threads.push_back(std::move(t1));

    VarDecl x;
    x.name = "x";
    p.vars.push_back(std::move(x));

    p.assertKind = AssertKind::Exists;
    p.assertion = Cond::mkCmp(true, CondTerm::makeReg(1, "r1"),
                              CondTerm::makeConst(1));
    p.validate();
    return p;
}

TEST(FuzzOracle, UnsupportedExplicitIsSkippedNotAgreement)
{
    Program program = casProgram();
    fuzz::OracleOptions options;
    fuzz::OracleReport report =
        fuzz::runOracles(program, ptx75Model(), options);

    const fuzz::OracleOutcome *outcome =
        report.find(fuzz::OracleKind::SmtVsExplicit);
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome->verdict, fuzz::OracleVerdict::Skipped);
    EXPECT_NE(outcome->detail.find("compare-and-swap"),
              std::string::npos)
        << "skip must carry the checker's reason, got: "
        << outcome->detail;
    // The skip must also be visible in the campaign log line.
    EXPECT_NE(report.summary().find(
                  "smt-vs-explicit=skip(compare-and-swap"),
              std::string::npos)
        << report.summary();
}

TEST(FuzzOracle, CompareNeverTurnsUnsupportedIntoAgree)
{
    // Even with an agreeing holds bit, an unsupported explicit result
    // must not count as agreement.
    Program program = casProgram();
    std::vector<fuzz::Oracle> oracles = fuzz::makeOracles(
        {}, ptx75Model(), fuzz::OracleKind::SmtVsExplicit);
    ASSERT_EQ(oracles.size(), 1u);
    ASSERT_EQ(oracles[0].pairs.size(), 1u);
    auto &[reference, variant] = oracles[0].pairs[0];
    ASSERT_EQ(variant.options.engine, core::Engine::Explicit);
    reference.jobs = {0};
    variant.jobs = {1};

    std::vector<core::BatchEntry> entries(2);
    entries[0].result.holds = true;
    entries[1].result.unknown = true;
    entries[1].result.detail =
        std::string(core::kUnsupportedDetail) + "compare-and-swap";
    entries[1].result.holds = true; // would "agree"

    fuzz::OracleReport report =
        fuzz::compareOracles(program, oracles, entries);
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].verdict, fuzz::OracleVerdict::Skipped);
    EXPECT_EQ(report.outcomes[0].detail, "compare-and-swap");
}

/**
 * Session-reuse and clause-sharing compare two configurations of one
 * engine, which must also run out of budget alike: an unknown on one
 * side only is a disagreement, never a skip.
 */
TEST(FuzzOracle, OneSidedUnknownDisagrees)
{
    Program program = casProgram();
    for (fuzz::OracleKind kind :
         {fuzz::OracleKind::SessionReuse, fuzz::OracleKind::ClauseSharing}) {
        std::vector<fuzz::Oracle> oracles =
            fuzz::makeOracles({}, ptx75Model(), kind);
        ASSERT_EQ(oracles.size(), 1u);
        size_t jobs = 0;
        for (auto &[reference, variant] : oracles[0].pairs) {
            for (fuzz::OracleSide *side : {&reference, &variant}) {
                side->jobs.clear();
                for (size_t i = 0; i < side->properties.size(); ++i)
                    side->jobs.push_back(jobs++);
            }
        }
        std::vector<core::BatchEntry> entries(jobs);
        for (core::BatchEntry &entry : entries)
            entry.result.holds = true;
        // The first variant's second property gave up.
        const fuzz::OracleSide &variant = oracles[0].pairs[0].second;
        ASSERT_EQ(variant.properties.at(1), core::Property::Liveness);
        entries[variant.jobs[1]].result.unknown = true;

        fuzz::OracleReport report =
            fuzz::compareOracles(program, oracles, entries);
        ASSERT_EQ(report.outcomes.size(), 1u);
        const fuzz::OracleOutcome &outcome = report.outcomes[0];
        EXPECT_EQ(outcome.verdict, fuzz::OracleVerdict::Disagree)
            << fuzz::oracleName(kind) << ": " << outcome.detail;
        EXPECT_EQ(outcome.detail.rfind("liveness: ", 0), 0u)
            << outcome.detail;
        EXPECT_NE(outcome.detail.find(variant.name + "=unknown"),
                  std::string::npos)
            << outcome.detail;
    }
}

/**
 * Every side that asks for the builtin safety run reads one job (on
 * straight-line code the session key drops the bound, so bound-mono's
 * k+1 side asks for it too), and session-reuse's fresh side never
 * shares one.
 */
TEST(FuzzOracle, SidesAskingForTheSameRunShareOneJob)
{
    Program program = casProgram();
    Program reparsed;
    ASSERT_EQ(fuzz::reparse(program, reparsed), "");
    fuzz::OracleOptions options;
    options.sessionReuse = true;
    options.clauseSharing = true;
    std::vector<fuzz::Oracle> oracles =
        fuzz::makeOracles(options, ptx75Model());
    ASSERT_EQ(oracles.size(), 7u);
    fuzz::OracleJobs jobs;
    fuzz::addOracleJobs(program, &reparsed, ptx75Model(), oracles, "t",
                        jobs);

    const size_t builtinSafety = oracles[0].pairs[0].first.jobs.at(0);
    int fresh = 0;
    for (const fuzz::Oracle &oracle : oracles) {
        for (const auto &[reference, variant] : oracle.pairs) {
            for (const fuzz::OracleSide *side : {&reference, &variant}) {
                const bool sharedBuiltin =
                    side->name == "builtin" || side->name == "builtin@k+1";
                EXPECT_EQ(side->jobs.at(0) == builtinSafety, sharedBuiltin)
                    << fuzz::oracleName(oracle.kind) << " " << side->name;
                fresh += side->fresh ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(fresh, 2);
    EXPECT_EQ(std::count(jobs.fresh.begin(), jobs.fresh.end(), true), 6);
}

/**
 * Metamorphic property: a witness found at unroll bound k must persist
 * at bound k+1 (larger bounds only admit more executions). Checked
 * directly against both SMT backends over a fixed seed set of
 * control-flow-heavy programs.
 */
TEST(FuzzOracle, BoundMonotonicityBothBackends)
{
    const int bound = 2;
    for (Arch arch : {Arch::Ptx, Arch::Vulkan}) {
        const cat::CatModel &model =
            arch == Arch::Ptx ? ptx75Model() : vulkanModel();
        fuzz::FuzzConfig config = fuzz::FuzzConfig::withControlFlow(arch);
        for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
            Program program = fuzz::randomProgram(seed, 0, config);
            for (smt::BackendKind backend :
                 {smt::BackendKind::Builtin, smt::BackendKind::Z3}) {
                auto run = [&](int k) {
                    core::VerifierOptions vo;
                    vo.backend = backend;
                    vo.bound = k;
                    vo.validateWitness = true;
                    core::Verifier verifier(program, model, vo);
                    return fuzz::witnessFound(program,
                                              verifier.checkSafety());
                };
                bool atK = run(bound);
                bool atK1 = run(bound + 1);
                if (atK) {
                    EXPECT_TRUE(atK1)
                        << archName(arch) << " seed=" << seed
                        << " backend="
                        << (backend == smt::BackendKind::Z3 ? "z3"
                                                            : "builtin")
                        << ": witness at bound " << bound
                        << " vanished at bound " << bound + 1;
                }
            }
        }
    }
}

/** The harness's own bound-mono oracle agrees on the same seed set. */
TEST(FuzzOracle, BoundMonoOracleAgreesOnFixedSeeds)
{
    for (Arch arch : {Arch::Ptx, Arch::Vulkan}) {
        const cat::CatModel &model =
            arch == Arch::Ptx ? ptx75Model() : vulkanModel();
        fuzz::FuzzConfig config = fuzz::FuzzConfig::withControlFlow(arch);
        for (uint64_t i = 0; i < 8; ++i) {
            Program program = fuzz::randomProgram(0xb0cd, i, config);
            fuzz::OracleReport report = fuzz::runOracles(
                program, model, {}, fuzz::OracleKind::BoundMono);
            const fuzz::OracleOutcome *outcome =
                report.find(fuzz::OracleKind::BoundMono);
            ASSERT_NE(outcome, nullptr);
            EXPECT_NE(outcome->verdict, fuzz::OracleVerdict::Disagree)
                << archName(arch) << " case " << i << ": "
                << outcome->detail;
        }
    }
}

/**
 * The session-reuse oracle: shared-session checkAll() must agree
 * verdict-for-verdict with three fresh single-property sessions, on
 * both backends, over a fixed seed set.
 */
TEST(FuzzOracle, SessionReuseOracleAgreesOnFixedSeeds)
{
    for (Arch arch : {Arch::Ptx, Arch::Vulkan}) {
        const cat::CatModel &model =
            arch == Arch::Ptx ? ptx75Model() : vulkanModel();
        fuzz::FuzzConfig config = fuzz::FuzzConfig::withControlFlow(arch);
        for (uint64_t i = 0; i < 6; ++i) {
            Program program = fuzz::randomProgram(0x5e55, i, config);
            fuzz::OracleReport report = fuzz::runOracles(
                program, model, {}, fuzz::OracleKind::SessionReuse);
            const fuzz::OracleOutcome *outcome =
                report.find(fuzz::OracleKind::SessionReuse);
            ASSERT_NE(outcome, nullptr);
            EXPECT_NE(outcome->verdict, fuzz::OracleVerdict::Disagree)
                << archName(arch) << " case " << i << ": "
                << outcome->detail;
        }
    }
}

/** The injected bound-gap fault is detected as a disagreement. */
TEST(FuzzOracle, InjectedBoundGapIsDetected)
{
    // Counted loop with 3 iterations: needs 2 backward jumps, so the
    // exists-witness is visible at bound 2 but not at bound 1.
    const char *source = "PTX \"bound-gap\"\n"
                         "{ v0 = 0; }\n"
                         "P0@cta 0,gpu 0 ;\n"
                         "mov r0, 0      ;\n"
                         "L0:            ;\n"
                         "add r0, r0, 1  ;\n"
                         "bne r0, 3, L0  ;\n"
                         "exists (P0:r0 == 3)\n";
    Program program = litmus::parseLitmus(source);

    fuzz::OracleOptions options;
    options.bound = 2;
    const fuzz::OracleKind z3VsBuiltin = fuzz::OracleKind::Z3VsBuiltin;

    fuzz::OracleReport healthy =
        fuzz::runOracles(program, ptx75Model(), options, z3VsBuiltin);
    EXPECT_EQ(healthy.outcomes[0].verdict, fuzz::OracleVerdict::Agree)
        << healthy.outcomes[0].detail;

    options.z3Bound = 1; // the --inject=bound-gap fault
    fuzz::OracleReport injected =
        fuzz::runOracles(program, ptx75Model(), options, z3VsBuiltin);
    EXPECT_EQ(injected.outcomes[0].verdict,
              fuzz::OracleVerdict::Disagree);
    EXPECT_NE(injected.outcomes[0].detail.find("builtin[bound=2]"),
              std::string::npos)
        << injected.outcomes[0].detail;
}

} // namespace
} // namespace gpumc::test
