/**
 * @file
 * Tests for the Verifier facade: property dispatch, quantifier
 * semantics, filters, witness extraction and DOT output, liveness
 * details (co-maximal stale reads, hard vs spin kills), and the
 * GPUVerify-like static analyser.
 */

#include <gtest/gtest.h>

#include "gpuverify/static_drf.hpp"
#include "kernels/sync_kernels.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

core::VerificationResult
check(const char *source, core::Property property,
      core::VerifierOptions options = {})
{
    prog::Program program = litmus::parseLitmus(source);
    options.validateWitness = true;
    core::Verifier verifier(program, modelFor(program), options);
    return verifier.check(property);
}

TEST(Verifier, ForallCounterexampleWitness)
{
    core::VerificationResult r = check(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, x  ;
forall (P1:r0 == 1)
)",
                                       core::Property::Safety);
    EXPECT_FALSE(r.holds); // reading the init value is a counterexample
    ASSERT_TRUE(r.witness.has_value());
    // The witness must assign r0 something other than 1.
    EXPECT_EQ(r.witness->finalRegisters.at("P1:r0"), 0);
}

TEST(Verifier, WitnessContainsRfAndValues)
{
    core::VerificationResult r = check(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 7   | ld.weak r0, x  ;
exists (P1:r0 == 7)
)",
                                       core::Property::Safety);
    ASSERT_TRUE(r.holds);
    ASSERT_TRUE(r.witness.has_value());
    const core::ExecutionWitness &w = *r.witness;
    ASSERT_EQ(w.rf.size(), 1u);
    // The read observes value 7 from the non-init store.
    EXPECT_EQ(w.events[w.rf[0].second].value, 7);
    EXPECT_FALSE(w.events[w.rf[0].first].display.find("st") ==
                 std::string::npos);

    std::string dot = w.toDot("test");
    EXPECT_NE(dot.find("digraph execution"), std::string::npos);
    EXPECT_NE(dot.find("rf"), std::string::npos);
    EXPECT_NE(dot.find("cluster_t1"), std::string::npos);

    std::string text = w.toText();
    EXPECT_NE(text.find("P1:r0 = 7"), std::string::npos);
}

TEST(Verifier, DrfWitnessFlagsRacyPair)
{
    core::VerificationResult r = check(R"(
VULKAN
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1       | ld.sc0 r0, x      ;
exists (true)
)",
                                       core::Property::CatSpec);
    EXPECT_FALSE(r.holds);
    ASSERT_TRUE(r.witness.has_value());
    EXPECT_FALSE(r.witness->flaggedPairs.empty());
}

TEST(Verifier, CatSpecHoldsWhenNoFlags)
{
    // PTX models have no flag axioms: trivially holds.
    core::VerificationResult r = check(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1   ;
exists (true)
)",
                                       core::Property::CatSpec);
    EXPECT_TRUE(r.holds);
}

TEST(Liveness, StuckNeedsCoMaximalRead)
{
    // The flag IS eventually set: reading the co-maximal value exits
    // the loop, so the spin always terminates.
    core::VerificationResult live = check(R"(
PTX
P0@cta 0,gpu 0         | P1@cta 0,gpu 0          ;
st.release.gpu flag, 1 | LC00:                   ;
                       | ld.acquire.gpu r0, flag ;
                       | beq r0, 0, LC00         ;
exists (true)
)",
                                          core::Property::Liveness);
    EXPECT_TRUE(live.holds);
}

TEST(Liveness, HardLoopsAreNotLivenessBugs)
{
    // A loop with a store is not a spinloop: bounded executions are
    // simply cut off; no violation is reported (Section 8 limitation).
    core::VerificationResult r = check(R"(
PTX
P0@cta 0,gpu 0  ;
LC00:           ;
ld.weak r0, f   ;
st.weak x, 1    ;
beq r0, 0, LC00 ;
exists (true)
)",
                                       core::Property::Liveness);
    EXPECT_TRUE(r.holds);
}

TEST(Liveness, ViolationWitnessShowsSpin)
{
    core::VerificationResult r = check(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0          ;
st.weak x, 1   | LC00:                   ;
               | ld.acquire.gpu r0, flag ;
               | beq r0, 0, LC00         ;
exists (true)
)",
                                       core::Property::Liveness);
    EXPECT_FALSE(r.holds);
    ASSERT_TRUE(r.witness.has_value());
}

TEST(Liveness, MutualHandshakeDeadlocks)
{
    core::VerificationResult r = check(R"(
VULKAN
P0@sg 0,wg 0,qf 0          | P1@sg 0,wg 1,qf 0          ;
LC00:                      | LC10:                      ;
ld.atom.acq.dv.sc0 r0, a   | ld.atom.acq.dv.sc0 r1, b   ;
beq r0, 0, LC00            | beq r1, 0, LC10            ;
st.atom.rel.dv.sc0 b, 1    | st.atom.rel.dv.sc0 a, 1    ;
exists (true)
)",
                                       core::Property::Liveness);
    EXPECT_FALSE(r.holds);
}

TEST(Verifier, BoundAffectsReachability)
{
    // The loop must run at least 3 iterations to see c == 3; with
    // bound 1 that path is cut off, with bound 4 it is reachable.
    const char *source = R"(
PTX
P0@cta 0,gpu 0 ;
mov r0, 0      ;
LC00:          ;
atom.rlx.gpu.add r1, c, 1 ;
ld.relaxed.gpu r0, c ;
bne r0, 3, LC00 ;
exists (P0:r0 == 3)
)";
    core::VerifierOptions small;
    small.bound = 1;
    EXPECT_FALSE(check(source, core::Property::Safety, small).holds);
    core::VerifierOptions big;
    big.bound = 4;
    EXPECT_TRUE(check(source, core::Property::Safety, big).holds);
}

TEST(StaticDrf, BarrierIntervalsSeparate)
{
    prog::Program program = litmus::parseLitmus(R"(
VULKAN
P0@sg 0,wg 0,qf 0 | P1@sg 1,wg 0,qf 0 ;
st.sc0 x, 1       | cbar.wg 1         ;
cbar.wg 1         | ld.sc0 r0, x      ;
exists (true)
)");
    EXPECT_FALSE(gpuverify::analyzeStaticDrf(program).raceFound);
}

TEST(StaticDrf, SameIntervalRaces)
{
    prog::Program program = litmus::parseLitmus(R"(
VULKAN
P0@sg 0,wg 0,qf 0 | P1@sg 1,wg 0,qf 0 ;
st.sc0 x, 1       | ld.sc0 r0, x      ;
exists (true)
)");
    gpuverify::StaticDrfResult r = gpuverify::analyzeStaticDrf(program);
    ASSERT_TRUE(r.raceFound);
    EXPECT_EQ(r.races[0].location, "x");
}

TEST(StaticDrf, ScopeUnawareMissesScopedRace)
{
    // Workgroup-scope atomics across workgroups race under the Vulkan
    // model but look synchronizing to the static tool.
    prog::Program program = litmus::parseLitmus(R"(
VULKAN
P0@sg 0,wg 0,qf 0      | P1@sg 0,wg 1,qf 0      ;
st.atom.wg.sc0 x, 1    | ld.atom.wg.sc0 r0, x   ;
exists (true)
)");
    EXPECT_FALSE(gpuverify::analyzeStaticDrf(program).raceFound);
    core::Verifier verifier(program, vulkanModel(), {});
    EXPECT_FALSE(verifier.checkCatSpec().holds);
}

} // namespace
} // namespace gpumc::test

namespace gpumc::test {
namespace {

TEST(Verifier, SolverTimeoutReportsUnknown)
{
    // A hard mutual-exclusion UNSAT proof (tens of thousands of
    // conflicts at full speed) with a 1 ms budget must come back
    // unknown rather than wrong.
    prog::Program program = kernels::buildCaslock(
        {2, 2}, kernels::LockVariant::Base);
    core::VerifierOptions options;
    options.solverTimeoutMs = 1;
    options.wantWitness = false;
    core::Verifier verifier(program, vulkanModel(), options);
    core::VerificationResult r = verifier.checkSafety();
    EXPECT_TRUE(r.unknown);
    EXPECT_NE(r.detail.find("resource limit"), std::string::npos);
}

TEST(Verifier, EnumerativeEngineReexploresAnExhaustedExploration)
{
    // Four writers per location: millions of candidates for the
    // explicit baseline, so any budget below that runs out.
    prog::Program program = litmus::parseLitmus(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 | P3@cta 0,gpu 0 | P4@cta 0,gpu 0 ;
st.weak x, 1   | st.weak x, 2   | st.weak x, 3   | st.weak x, 4   | ld.weak r0, x  ;
st.weak y, 1   | st.weak y, 2   | st.weak y, 3   | st.weak y, 4   | ld.weak r1, y  ;
exists (P4:r0 == 1 /\ P4:r1 == 2)
)");
    core::VerifierOptions options;
    options.engine = core::Engine::Explicit;
    options.maxCandidates = 200;
    options.solverTimeoutMs = 1;
    core::Verifier verifier(program, ptx75Model(), options);
    core::VerificationResult starved = verifier.checkSafety();
    EXPECT_TRUE(starved.unknown);
    EXPECT_LT(starved.stats.get("candidatesExplored"), 200);

    // The next check explores again, under its own budget, rather than
    // reusing the exhausted exploration.
    verifier.setSolverTimeoutMs(0);
    core::VerificationResult capped = verifier.checkSafety();
    EXPECT_TRUE(capped.unknown);
    EXPECT_EQ(capped.detail,
              "exploration budget exhausted after 200 candidates");
    EXPECT_EQ(capped.stats.get("sessionsBuilt"), 1);
    EXPECT_EQ(capped.stats.get("candidatesExplored"), 200);
}

TEST(Verifier, GenerousTimeoutStillDecides)
{
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("ptx/basic/mp-rel-acq.litmus"));
    core::VerifierOptions options;
    options.solverTimeoutMs = 60000;
    core::Verifier verifier(program, ptx60Model(), options);
    core::VerificationResult r = verifier.checkSafety();
    EXPECT_FALSE(r.unknown);
    EXPECT_FALSE(r.holds);
}

} // namespace
} // namespace gpumc::test
