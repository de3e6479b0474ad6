/**
 * @file
 * Tests for the DPOR stateless model-checking engine: polarity
 * classification of the shipped .cat axioms, agreement with the SMT
 * verifier and the explicit baseline over the whole litmus corpus and
 * over fixed fuzz seeds, strictly-fewer-candidates guarantees on
 * multi-write locations, the exhaustive mode that is the explicit
 * baseline, and budget/deadline handling.
 */

#include <filesystem>
#include <gtest/gtest.h>

#include "dpor/dpor_checker.hpp"
#include "explicit/explicit_checker.hpp"
#include "fuzz/random_program.hpp"
#include "litmus/generator.hpp"
#include "support/string_utils.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

namespace fs = std::filesystem;

dpor::DporResult
runDpor(const prog::Program &program, const cat::CatModel &model,
        dpor::DporOptions options = {})
{
    dpor::DporChecker checker(program, model, options);
    return checker.run();
}

dpor::DporResult
runDpor(const char *source, dpor::DporOptions options = {})
{
    prog::Program program = litmus::parseLitmus(source);
    return runDpor(program, modelFor(program), options);
}

const cat::Axiom *
findAxiom(const cat::CatModel &model, const std::string &name)
{
    for (const cat::Axiom &axiom : model.axioms()) {
        if (axiom.name == name)
            return &axiom;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Polarity analysis: the hand-checked classification of every shipped
// axiom that the engine's staged pruning relies on.
// ---------------------------------------------------------------------

const std::vector<std::string> kUndecidedAtRf = {
    "rf", "co", "sync_fence", "syncbar", "sync_barrier"};
const std::vector<std::string> kUndecidedAtCo = {"co"};

TEST(DporMonotone, PtxAxiomClassification)
{
    const cat::CatModel &m = ptx75Model();

    const cat::Axiom *cohCause = findAxiom(m, "coherence-causality");
    const cat::Axiom *cohMs = findAxiom(m, "coherence-ms");
    const cat::Axiom *fenceSc = findAxiom(m, "fence-sc");
    const cat::Axiom *atomicity = findAxiom(m, "atomicity");
    const cat::Axiom *noThinAir = findAxiom(m, "no-thin-air");
    const cat::Axiom *causality = findAxiom(m, "causality");
    ASSERT_TRUE(cohCause && cohMs && fenceSc && atomicity &&
                noThinAir && causality);
    auto of = [&](const cat::Axiom *ax) {
        return dpor::AxiomPolarity(m, *ax);
    };

    // Both coherence axioms subtract co (`\ co`, `\ (co | co^-1)`):
    // antitone, so violations on a partial co cannot be trusted.
    EXPECT_EQ(of(cohCause).of("co"), cat::Polarity::Neg);
    EXPECT_EQ(of(cohMs).of("co"), cat::Polarity::Neg);
    EXPECT_FALSE(of(cohCause).prunableWithPartial(kUndecidedAtCo));
    EXPECT_FALSE(of(cohMs).prunableWithPartial(kUndecidedAtCo));

    // fence-sc subtracts sync_fence but never mentions co: it is a
    // constant of the co subtree and prunes it at the root.
    EXPECT_EQ(of(fenceSc).of("sync_fence"), cat::Polarity::Both);
    EXPECT_TRUE(of(fenceSc).constantIn(kUndecidedAtCo));
    EXPECT_FALSE(of(fenceSc).prunableWithPartial(kUndecidedAtRf));
    EXPECT_TRUE(of(fenceSc).prunableWithPartial(kUndecidedAtCo));

    // atomicity and causality are positive in rf and co (through `fr`
    // and `cause`); no-thin-air is rf-only. All three are usable from
    // the very first rf decision.
    for (const cat::Axiom *ax : {atomicity, noThinAir, causality}) {
        EXPECT_EQ(of(ax).of("rf"), cat::Polarity::Pos) << ax->name;
        EXPECT_TRUE(of(ax).prunableWithPartial(kUndecidedAtRf))
            << ax->name;
        EXPECT_TRUE(of(ax).prunableWithPartial(kUndecidedAtCo))
            << ax->name;
    }
    EXPECT_EQ(of(atomicity).of("co"), cat::Polarity::Pos);
    EXPECT_EQ(of(causality).of("co"), cat::Polarity::Pos);
    EXPECT_EQ(of(noThinAir).of("co"), cat::Polarity::None);
}

TEST(DporMonotone, VulkanAxiomClassification)
{
    const cat::CatModel &m = vulkanModel();

    const cat::Axiom *atomicity = findAxiom(m, "atomicity");
    const cat::Axiom *cycle = findAxiom(m, "consistency-cycle");
    const cat::Axiom *race = findAxiom(m, "race");
    ASSERT_TRUE(atomicity && cycle && race);
    auto of = [&](const cat::Axiom *ax) {
        return dpor::AxiomPolarity(m, *ax);
    };

    // Only atomicity is monotone in co: every other axiom reaches co
    // through `rs` / `locord`, whose immediate-asmo-edge pattern
    // (`asmo \ (asmo; asmo+)`) mixes polarities.
    EXPECT_EQ(of(atomicity).of("co"), cat::Polarity::Pos);
    EXPECT_TRUE(of(atomicity).prunableWithPartial(kUndecidedAtCo));
    EXPECT_EQ(of(cycle).of("co"), cat::Polarity::Both);
    EXPECT_FALSE(of(cycle).prunableWithPartial(kUndecidedAtCo));
    for (const char *name :
         {"coherence", "read-from", "locord-complete"}) {
        const cat::Axiom *ax = findAxiom(m, name);
        ASSERT_TRUE(ax) << name;
        EXPECT_FALSE(of(ax).prunableWithPartial(kUndecidedAtCo)) << name;
    }

    // Flag axioms never prune, and the Vulkan race flag depends on co
    // (through locord), so racy leaves cannot be skipped per subtree.
    EXPECT_FALSE(of(race).prunableWithPartial(kUndecidedAtCo));
    EXPECT_FALSE(of(race).constantIn(kUndecidedAtCo));
}

TEST(DporMonotone, PolarityAlgebra)
{
    using cat::Polarity;
    EXPECT_EQ(cat::joinPolarity(Polarity::None, Polarity::Neg),
              Polarity::Neg);
    EXPECT_EQ(cat::joinPolarity(Polarity::Pos, Polarity::Pos),
              Polarity::Pos);
    EXPECT_EQ(cat::joinPolarity(Polarity::Pos, Polarity::Neg),
              Polarity::Both);
    EXPECT_EQ(cat::flipPolarity(Polarity::Pos), Polarity::Neg);
    EXPECT_EQ(cat::flipPolarity(Polarity::Neg), Polarity::Pos);
    EXPECT_EQ(cat::flipPolarity(Polarity::Both), Polarity::Both);
    EXPECT_EQ(cat::flipPolarity(Polarity::None), Polarity::None);
}

// ---------------------------------------------------------------------
// Support envelope: identical gating to the explicit baseline.
// ---------------------------------------------------------------------

TEST(DporChecker, RejectsControlFlow)
{
    dpor::DporResult r = runDpor(R"(
PTX
P0@cta 0,gpu 0 ;
LC00:          ;
ld.weak r0, x  ;
beq r0, 0, LC00 ;
exists (true)
)");
    EXPECT_FALSE(r.supported);
    EXPECT_EQ(r.unsupportedReason, "control-flow instructions");
}

TEST(DporChecker, RejectsCas)
{
    dpor::DporResult r = runDpor(R"(
PTX
P0@cta 0,gpu 0 ;
atom.acq.gpu.cas r0, l, 0, 1 ;
exists (true)
)");
    EXPECT_FALSE(r.supported);
    EXPECT_EQ(r.unsupportedReason, "compare-and-swap");
}

// ---------------------------------------------------------------------
// Verdicts on hand-written tests, mirroring the explicit suite.
// ---------------------------------------------------------------------

TEST(DporChecker, MessagePassingWeak)
{
    dpor::DporResult r = runDpor(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, y  ;
st.weak y, 1   | ld.weak r1, x  ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)");
    ASSERT_TRUE(r.supported);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.conditionHolds);
}

TEST(DporChecker, OutOfThinAirRejected)
{
    dpor::DporResult r = runDpor(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
ld.weak r0, x  | ld.weak r1, y  ;
st.weak y, r0  | st.weak x, r1  ;
exists (P0:r0 == 1 /\ P1:r1 == 1)
)");
    ASSERT_TRUE(r.supported);
    EXPECT_FALSE(r.conditionHolds);
    EXPECT_GT(r.prunedRfPrefixes + r.candidatesExplored, 0u);
}

TEST(DporChecker, RmwAtomicity)
{
    dpor::DporResult r = runDpor(R"(
PTX
P0@cta 0,gpu 0             | P1@cta 0,gpu 0             ;
atom.acq.gpu.add r0, c, 1  | atom.acq.gpu.add r0, c, 1  ;
exists (P0:r0 == P1:r0)
)");
    ASSERT_TRUE(r.supported);
    EXPECT_FALSE(r.conditionHolds);
}

TEST(DporChecker, VulkanRaceDetection)
{
    dpor::DporResult r = runDpor(R"(
VULKAN
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1       | ld.sc0 r0, x      ;
exists (P1:r0 == 1)
)");
    ASSERT_TRUE(r.supported);
    EXPECT_TRUE(r.raceFound);
    EXPECT_TRUE(r.conditionHolds);
}

TEST(DporChecker, ForallSemantics)
{
    dpor::DporResult r = runDpor(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.relaxed.gpu x, 1 | ld.relaxed.gpu r0, x ;
forall (P1:r0 == 0 \/ P1:r0 == 1)
)");
    ASSERT_TRUE(r.supported);
    EXPECT_TRUE(r.conditionHolds);
}

TEST(DporChecker, FilterRestrictsBehaviours)
{
    dpor::DporResult r = runDpor(R"(
VULKAN
P0@sg 0,wg 0,qf 0    | P1@sg 0,wg 1,qf 0       ;
st.atom.dv.sc0 f, 1  | ld.atom.dv.sc0 r0, f    ;
filter (P1:r0 == 1)
exists (P1:r0 == 0)
)");
    ASSERT_TRUE(r.supported);
    EXPECT_FALSE(r.conditionHolds);
    EXPECT_GT(r.consistentBehaviours, 0u);
}

// ---------------------------------------------------------------------
// Strictly fewer candidates than the explicit baseline on multi-write
// locations (the engine's reason to exist).
// ---------------------------------------------------------------------

TEST(DporChecker, FewerCandidatesThanExplicitOnPtxMultiWrite)
{
    const char *source = R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 ;
st.weak x, 1   | st.weak x, 2   | ld.weak r0, x  ;
st.weak y, 1   | st.weak y, 2   | ld.weak r1, y  ;
exists (P2:r0 == 1 /\ P2:r1 == 2)
)";
    prog::Program program = litmus::parseLitmus(source);
    expl::ExplicitChecker explicitChecker(program, ptx75Model());
    expl::ExplicitResult e = explicitChecker.run();
    dpor::DporResult d = runDpor(program, ptx75Model());
    ASSERT_TRUE(e.supported && d.supported);
    ASSERT_FALSE(e.timedOut || d.timedOut);
    EXPECT_EQ(d.conditionHolds, e.conditionHolds);
    EXPECT_TRUE(d.conditionHolds);
    // Two locations with two stores each: the baseline enumerates the
    // full canonical partial-coherence space per rf choice, the DPOR
    // engine cuts each rf subtree after its first consistent leaf
    // (PTX has no flag axioms) and prunes with atomicity/causality.
    EXPECT_EQ(e.candidatesExplored, 81u);
    EXPECT_LT(d.candidatesExplored, e.candidatesExplored);
    EXPECT_GT(d.earlyStops + d.prunedCoBranches + d.prunedSubtrees, 0u);
}

TEST(DporChecker, FewerCandidatesThanExplicitOnVulkanRacyExists)
{
    const char *source = R"(
VULKAN
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 | P2@sg 0,wg 2,qf 0 | P3@sg 0,wg 3,qf 0 ;
st.sc0 x, 1       | st.sc0 x, 2       | st.sc0 x, 3       | ld.sc0 r0, x      ;
exists (P3:r0 == 3)
)";
    prog::Program program = litmus::parseLitmus(source);
    expl::ExplicitChecker explicitChecker(program, vulkanModel());
    expl::ExplicitResult e = explicitChecker.run();
    dpor::DporResult d = runDpor(program, vulkanModel());
    ASSERT_TRUE(e.supported && d.supported);
    ASSERT_FALSE(e.timedOut || d.timedOut);
    EXPECT_EQ(d.conditionHolds, e.conditionHolds);
    EXPECT_EQ(d.raceFound, e.raceFound);
    EXPECT_TRUE(d.raceFound);
    // `exists` settles as soon as one racy witness appears; the
    // baseline still walks every rf choice x 3! total orders.
    EXPECT_EQ(e.candidatesExplored, 24u);
    EXPECT_LT(d.candidatesExplored, e.candidatesExplored);
}

TEST(DporChecker, CompletesWhereExplicitExhaustsTheSameBudget)
{
    // Four writers per location: the baseline's candidate space (rf
    // choices x canonical partial coherence per location) is in the
    // millions, while DPOR stops at the first consistent witness.
    const char *source = R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 | P3@cta 0,gpu 0 | P4@cta 0,gpu 0 ;
st.weak x, 1   | st.weak x, 2   | st.weak x, 3   | st.weak x, 4   | ld.weak r0, x  ;
st.weak y, 1   | st.weak y, 2   | st.weak y, 3   | st.weak y, 4   | ld.weak r1, y  ;
exists (P4:r0 == 1 /\ P4:r1 == 2)
)";
    prog::Program program = litmus::parseLitmus(source);
    const uint64_t budget = 500;

    expl::ExplicitOptions eopts;
    eopts.maxCandidates = budget;
    expl::ExplicitChecker explicitChecker(program, ptx75Model(), eopts);
    expl::ExplicitResult e = explicitChecker.run();
    ASSERT_TRUE(e.supported);
    EXPECT_TRUE(e.timedOut);

    dpor::DporOptions dopts;
    dopts.maxCandidates = budget;
    dpor::DporResult d = runDpor(program, ptx75Model(), dopts);
    ASSERT_TRUE(d.supported);
    ASSERT_FALSE(d.timedOut);
    EXPECT_LE(d.candidatesExplored, 8u);
    EXPECT_TRUE(d.conditionHolds);

    core::VerifierOptions vopts;
    vopts.backend = smt::BackendKind::Builtin;
    vopts.wantWitness = false;
    core::Verifier verifier(program, ptx75Model(), vopts);
    core::VerificationResult safety = verifier.checkSafety();
    ASSERT_FALSE(safety.unknown);
    EXPECT_EQ(d.conditionHolds, safety.holds);
}

// ---------------------------------------------------------------------
// Budgets: maxCandidates stops the exploration loop with timedOut set.
// ---------------------------------------------------------------------

// `forall (true)` can never settle early, forcing a full exploration.
const char *kBigPtxProgram = R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 | P3@cta 0,gpu 0 ;
st.weak x, 1   | st.weak x, 2   | ld.weak r0, x  | ld.weak r1, x  ;
forall (true)
)";

TEST(DporChecker, MaxCandidatesBudget)
{
    dpor::DporOptions options;
    options.maxCandidates = 2;
    dpor::DporResult r = runDpor(kBigPtxProgram, options);
    ASSERT_TRUE(r.supported);
    EXPECT_TRUE(r.timedOut);
    EXPECT_LE(r.candidatesExplored, 2u);
}

TEST(DporChecker, ExhaustiveRunPrunesNothing)
{
    const prog::Program programs[] = {
        litmus::generateScaled(litmus::ScaledPattern::MP, prog::Arch::Ptx,
                               6),
        litmus::parseLitmus(kBigPtxProgram),
    };
    for (const prog::Program &program : programs) {
        dpor::DporOptions options;
        options.exhaustive = true;
        dpor::DporResult r = runDpor(program, ptx75Model(), options);
        ASSERT_TRUE(r.supported && !r.timedOut) << program.name;
        EXPECT_GT(r.candidatesExplored, 0u) << program.name;
        EXPECT_EQ(r.prunedRfPrefixes, 0u) << program.name;
        EXPECT_EQ(r.prunedCoBranches, 0u) << program.name;
        EXPECT_EQ(r.prunedSubtrees, 0u) << program.name;
        EXPECT_EQ(r.prunedByFilter, 0u) << program.name;
        EXPECT_EQ(r.earlyStops, 0u) << program.name;
        // Only complete graphs are judged.
        EXPECT_EQ(r.consistencyChecks, r.candidatesExplored)
            << program.name;
    }
}

// ---------------------------------------------------------------------
// Agreement with the SMT verifier on fixed fuzz seeds.
// ---------------------------------------------------------------------

TEST(DporChecker, AgreesWithSmtOnFuzzSeeds)
{
    const uint64_t seed = 20260809;
    for (prog::Arch arch : {prog::Arch::Ptx, prog::Arch::Vulkan}) {
        fuzz::FuzzConfig config = fuzz::FuzzConfig::basic(arch);
        for (uint64_t index = 0; index < 10; index++) {
            prog::Program program =
                fuzz::randomProgram(seed, index, config);
            const cat::CatModel &model = arch == prog::Arch::Ptx
                                             ? ptx75Model()
                                             : vulkanModel();
            dpor::DporOptions options;
            options.timeoutMs = 30000;
            options.maxCandidates = 500000;
            dpor::DporResult r = runDpor(program, model, options);
            if (!r.supported || r.timedOut)
                continue;
            core::VerifierOptions vopts;
            vopts.validateWitness = true;
            core::Verifier verifier(program, model, vopts);
            EXPECT_EQ(r.conditionHolds, verifier.checkSafety().holds)
                << (arch == prog::Arch::Ptx ? "PTX" : "Vulkan")
                << " fuzz case " << index;
            if (model.hasFlaggedAxioms()) {
                EXPECT_EQ(r.raceFound, !verifier.checkCatSpec().holds)
                    << (arch == prog::Arch::Ptx ? "PTX" : "Vulkan")
                    << " fuzz case " << index << " drf";
            }
        }
    }
}

// ---------------------------------------------------------------------
// Whole-corpus agreement: every supported litmus test must produce the
// SMT verdicts (safety and DRF) and the explicit baseline's verdicts,
// never exploring more candidates than the baseline does.
// ---------------------------------------------------------------------

class DporCorpus : public ::testing::TestWithParam<std::string> {};

void
checkAgreement(const prog::Program &program, const cat::CatModel &model,
               const std::string &file)
{
    dpor::DporOptions dopts;
    dopts.timeoutMs = 20000;
    dopts.maxCandidates = 500000;
    dpor::DporResult d = runDpor(program, model, dopts);
    if (!d.supported || d.timedOut)
        return;

    core::VerifierOptions vopts;
    vopts.validateWitness = true;
    auto it = program.meta.find("bound");
    if (it != program.meta.end()) {
        std::optional<int64_t> bound = parseInt(it->second);
        ASSERT_TRUE(bound) << file;
        vopts.bound = static_cast<int>(*bound);
    }
    core::Verifier verifier(program, model, vopts);
    EXPECT_EQ(d.conditionHolds, verifier.checkSafety().holds)
        << file << " [" << model.name() << "] safety disagreement";
    if (model.hasFlaggedAxioms()) {
        EXPECT_EQ(d.raceFound, !verifier.checkCatSpec().holds)
            << file << " [" << model.name() << "] drf disagreement";
    }

    expl::ExplicitOptions eopts;
    eopts.timeoutMs = 20000;
    eopts.maxCandidates = 500000;
    expl::ExplicitChecker explicitChecker(program, model, eopts);
    expl::ExplicitResult e = explicitChecker.run();
    ASSERT_TRUE(e.supported) << file << ": support envelopes diverge";
    if (e.timedOut)
        return;
    EXPECT_EQ(d.conditionHolds, e.conditionHolds)
        << file << " [" << model.name() << "] vs explicit";
    EXPECT_EQ(d.raceFound, e.raceFound)
        << file << " [" << model.name() << "] vs explicit drf";
    EXPECT_LE(d.candidatesExplored, e.candidatesExplored)
        << file << " [" << model.name() << "]";
}

TEST_P(DporCorpus, AgreesWithSmtAndExplicit)
{
    const std::string &file = GetParam();
    prog::Program program = litmus::parseLitmusFile(file);
    if (program.arch == prog::Arch::Ptx) {
        checkAgreement(program, ptx60Model(), file);
        checkAgreement(program, ptx75Model(), file);
    } else {
        checkAgreement(program, vulkanModel(), file);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Files, DporCorpus, ::testing::ValuesIn(corpusFiles()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        fs::path p(info.param);
        std::string name = p.stem().string();
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_" + std::to_string(info.index);
    });

} // namespace
} // namespace gpumc::test
