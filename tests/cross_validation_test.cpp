/**
 * @file
 * Cross-validation: the SMT engine, the explicit-state enumerator and
 * the DPOR engine must agree on every supported (straight-line) litmus
 * test — this is the repository's analogue of the paper's
 * Dartagnan-vs-Alloy model validation (Table 5: "For tests supported
 * by both tools, all results match").
 */

#include <gtest/gtest.h>

#include "dpor/dpor_checker.hpp"
#include "explicit/explicit_checker.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

struct CrossCase {
    const char *name;
    const char *source;
};

// gtest lists each parameter beside its test name. Without a printer it
// dumps the two pointers, which move with the load address, so the
// listed name would change from one run to the next.
void
PrintTo(const CrossCase &c, std::ostream *os)
{
    *os << c.name;
}

// A spread of classic patterns in both dialects, with mixed memory
// orders, scopes and storage classes.
const CrossCase kCases[] = {
    {"ptx-mp-weak", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, y  ;
st.weak y, 1   | ld.weak r1, x  ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"ptx-mp-rel-acq", R"(
PTX
P0@cta 0,gpu 0      | P1@cta 0,gpu 0       ;
st.weak x, 1        | ld.acquire.gpu r0, y ;
st.release.gpu y, 1 | ld.weak r1, x        ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"ptx-mp-scope-too-small", R"(
PTX
P0@cta 0,gpu 0      | P1@cta 1,gpu 0       ;
st.weak x, 1        | ld.acquire.cta r0, y ;
st.release.cta y, 1 | ld.weak r1, x        ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"ptx-sb-weak", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | st.weak y, 1   ;
ld.weak r0, y  | ld.weak r1, x  ;
exists (P0:r0 == 0 /\ P1:r1 == 0)
)"},
    {"ptx-sb-fence-sc", R"(
PTX
P0@cta 0,gpu 0       | P1@cta 0,gpu 0       ;
st.relaxed.gpu x, 1  | st.relaxed.gpu y, 1  ;
fence.sc.gpu         | fence.sc.gpu         ;
ld.relaxed.gpu r0, y | ld.relaxed.gpu r1, x ;
exists (P0:r0 == 0 /\ P1:r1 == 0)
)"},
    {"ptx-lb-weak", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
ld.weak r0, x  | ld.weak r1, y  ;
st.weak y, 1   | st.weak x, 1   ;
exists (P0:r0 == 1 /\ P1:r1 == 1)
)"},
    {"ptx-lb-data-dep", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
ld.weak r0, x  | ld.weak r1, y  ;
st.weak y, r0  | st.weak x, r1  ;
exists (P0:r0 == 1 /\ P1:r1 == 1)
)"},
    {"ptx-iriw-acquire", R"(
PTX
P0@cta 0,gpu 0     | P1@cta 0,gpu 0     | P2@cta 0,gpu 0       | P3@cta 0,gpu 0 ;
st.relaxed.sys x, 1 | st.relaxed.sys y, 1 | ld.acquire.sys r0, x | ld.acquire.sys r2, y ;
                   |                    | ld.acquire.sys r1, y | ld.acquire.sys r3, x ;
exists (P2:r0 == 1 /\ P2:r1 == 0 /\ P3:r2 == 1 /\ P3:r3 == 0)
)"},
    {"ptx-corr-weak", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, x  ;
               | ld.weak r1, x  ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"ptx-fig6-co-not-total", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0      | P3@cta 0,gpu 0      ;
st.weak x, 1   | st.weak x, 2   | ld.acquire.sys r0, x | ld.acquire.sys r2, x ;
               |                | ld.acquire.sys r1, x | ld.acquire.sys r3, x ;
exists (P2:r0 == 1 /\ P2:r1 == 2 /\ P3:r2 == 2 /\ P3:r3 == 1)
)"},
    {"ptx-rmw-mutex-entry", R"(
PTX
P0@cta 0,gpu 0           | P1@cta 1,gpu 0           ;
atom.acq.gpu.add r1, in, 1 | atom.acq.gpu.add r1, in, 1 ;
exists (P0:r1 == P1:r1)
)"},
    {"vk-mp-atomic-rel-acq", R"(
VULKAN
P0@sg 0,wg 0,qf 0          | P1@sg 0,wg 1,qf 0           ;
st.atom.dv.sc0 data, 1     | ld.atom.acq.dv.sc0 r0, flag ;
st.atom.rel.dv.sc0 flag, 1 | ld.atom.dv.sc0 r1, data     ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"vk-mp-relaxed", R"(
VULKAN
P0@sg 0,wg 0,qf 0        | P1@sg 0,wg 1,qf 0       ;
st.atom.dv.sc0 data, 1   | ld.atom.dv.sc0 r0, flag ;
st.atom.dv.sc0 flag, 1   | ld.atom.dv.sc0 r1, data ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"vk-mp-scope-too-small", R"(
VULKAN
P0@sg 0,wg 0,qf 0          | P1@sg 0,wg 1,qf 0           ;
st.atom.wg.sc0 data, 1     | ld.atom.acq.wg.sc0 r0, flag ;
st.atom.rel.wg.sc0 flag, 1 | ld.atom.wg.sc0 r1, data     ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"vk-mp-fences", R"(
VULKAN
P0@sg 0,wg 0,qf 0        | P1@sg 0,wg 1,qf 0       ;
st.atom.dv.sc0 data, 1   | ld.atom.dv.sc0 r0, flag ;
membar.rel.dv.semsc0     | membar.acq.dv.semsc0    ;
st.atom.dv.sc0 flag, 1   | ld.atom.dv.sc0 r1, data ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)"},
    {"vk-fig6-race", R"(
VULKAN
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 | P2@sg 0,wg 2,qf 0       | P3@sg 0,wg 3,qf 0       ;
st.sc0 x, 1       | st.sc0 x, 2       | ld.atom.acq.dv.sc0 r0, x | ld.atom.acq.dv.sc0 r2, x ;
                  |                   | ld.atom.acq.dv.sc0 r1, x | ld.atom.acq.dv.sc0 r3, x ;
exists (P2:r0 == 1 /\ P2:r1 == 2 /\ P3:r2 == 2 /\ P3:r3 == 1)
)"},
    {"vk-sb-relaxed", R"(
VULKAN
P0@sg 0,wg 0,qf 0      | P1@sg 0,wg 1,qf 0      ;
st.atom.dv.sc0 x, 1    | st.atom.dv.sc0 y, 1    ;
ld.atom.dv.sc0 r0, y   | ld.atom.dv.sc0 r1, x   ;
exists (P0:r0 == 0 /\ P1:r1 == 0)
)"},
    // Values the three engines once read differently: a condition
    // constant outside the program's stores (a 3-bit SMT encoding made
    // 8 equal 0), a store wider than 8 bits (the enumerative engines
    // kept only its low byte, 300 & 255 = 44), a static barrier id
    // that did not fit the SMT width (8 met the dynamic id 0), a
    // condition constant at the top of int64_t (sizing the SMT width
    // for it overflowed), and adds whose growth the SMT width did not
    // count: doubling a register (16 wrapped to 0) and a constant on
    // the left (36 wrapped to 4).
    {"value-cond-const", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, x  ;
exists (P1:r0 == 8)
)"},
    {"value-wide-store", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 300 | ld.weak r0, x  ;
exists (P1:r0 == 44)
)"},
    {"value-barrier-id", R"(
PTX
P0@cta 0,gpu 0  | P1@cta 0,gpu 0 ;
st.weak x, 1    | st.weak y, 1   ;
ld.weak r2, z   | bar.cta.sync 8 ;
bar.cta.sync r2 | ld.weak r1, x  ;
ld.weak r0, y   |                ;
forall (P0:r0 == 1 \/ P1:r1 == 1)
)"},
    {"value-int64-max", R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 7   | ld.weak r0, x  ;
exists (P1:r0 == 9223372036854775807)
)"},
    {"value-reg-reg-add", R"(
PTX
{ x = 1; }
P0@cta 0,gpu 0 ;
ld.weak r1, x  ;
add r2, r1, r1 ;
add r3, r2, r2 ;
add r4, r3, r3 ;
add r5, r4, r4 ;
exists (P0:r5 == 0)
)"},
    {"value-const-lhs-add", R"(
PTX
{ x = 1; }
P0@cta 0,gpu 0 ;
ld.weak r1, x  ;
add r2, 7, r1  ;
add r3, 7, r2  ;
add r4, 7, r3  ;
add r5, 7, r4  ;
add r6, 7, r5  ;
exists (P0:r6 == 4)
)"},
};

class CrossValidation : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossValidation, EnginesAgreeOnSafety)
{
    const CrossCase &c = GetParam();
    prog::Program program = litmus::parseLitmus(c.source);
    const cat::CatModel &model = modelFor(program);

    expl::ExplicitChecker explicitChecker(program, model);
    expl::ExplicitResult ground = explicitChecker.run();
    ASSERT_TRUE(ground.supported) << ground.unsupportedReason;
    ASSERT_FALSE(ground.timedOut);

    core::VerifierOptions options;
    options.validateWitness = true;
    core::Verifier verifier(program, model, options);
    core::VerificationResult smtResult = verifier.checkSafety();

    EXPECT_EQ(ground.conditionHolds, smtResult.holds)
        << "SMT and explicit engines disagree on " << c.name;

    dpor::DporResult dpor = dpor::DporChecker(program, model).run();
    ASSERT_TRUE(dpor.supported) << dpor.unsupportedReason;
    ASSERT_FALSE(dpor.timedOut);
    EXPECT_EQ(dpor.conditionHolds, smtResult.holds)
        << "SMT and DPOR engines disagree on " << c.name;

    // DRF agreement (only meaningful for models with flags: Vulkan).
    if (model.hasFlaggedAxioms()) {
        core::VerificationResult drf = verifier.checkCatSpec();
        EXPECT_EQ(ground.raceFound, !drf.holds)
            << "DRF disagreement on " << c.name;
        EXPECT_EQ(dpor.raceFound, !drf.holds)
            << "DPOR DRF disagreement on " << c.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CrossValidation, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<CrossCase> &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace gpumc::test
