/**
 * @file
 * Pinned encoding sizes: smtVars/smtClauses after the Safety and then
 * the CatSpec check of one Verifier, for corpus programs under each
 * shipped model. Which closures carry well-foundedness indices follows
 * from the occurrence polarity of the `.cat` axioms (cat::PolarityWalk),
 * and the flagged Vulkan programs are where closures the solver wants
 * true appear, so a change to that walk or to its use moves these
 * numbers. They were measured on the encoder before the walk moved to
 * src/cat; a change that means to alter the CNF updates them. The Z3
 * pins still are those numbers; the builtin pins shrank when the
 * `acyclic` axioms moved into its solver.
 */

#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

/** smtVars/smtClauses after the Safety and then the CatSpec check. */
struct Sizes {
    int64_t safetyVars, safetyClauses;
    int64_t catSpecVars, catSpecClauses;
};

/**
 * Z3 declines the acyclicity constraints, so its sizes include the
 * bit-vector clocks of every `acyclic` axiom; the builtin backend
 * takes the axioms' edges into its solver instead.
 */
struct PinnedSize {
    const char *file;
    const cat::CatModel &(*model)();
    Sizes z3;
    Sizes builtin;
};

const PinnedSize kPinned[] = {
    {"ptx/basic/sb-weak.litmus", ptx60Model,
     {79, 181, 79, 181}, {21, 45, 21, 45}},
    {"ptx/basic/mp-rel-acq.litmus", ptx60Model,
     {86, 196, 86, 196}, {28, 60, 28, 60}},
    {"ptx/paper/fig6-co-partial.litmus", ptx75Model,
     {202, 573, 202, 573}, {61, 165, 61, 165}},
    {"ptx/paper/fig5-mp-proxy.litmus", ptx75Model,
     {108, 248, 108, 248}, {28, 60, 28, 60}},
    {"vulkan/basic/mp-rel-acq.litmus", vulkanModel,
     {124, 316, 125, 317}, {32, 68, 33, 69}},
    {"vulkan/basic/mp-nonatomic-flag-race.litmus", vulkanModel,
     {93, 225, 94, 226}, {21, 45, 22, 46}},
    {"vulkan/paper/fig3-xf-race.litmus", vulkanModel,
     {404, 1140, 405, 1142}, {94, 249, 95, 251}},
    {"vulkan/paper/fig16-rmw-bug.litmus", vulkanModel,
     {388, 1184, 389, 1185}, {112, 356, 113, 357}},
};

TEST(Encoding, SizesArePinnedPerModel)
{
    for (smt::BackendKind backend :
         {smt::BackendKind::Z3, smt::BackendKind::Builtin}) {
        for (const PinnedSize &pin : kPinned) {
            const Sizes &sizes =
                backend == smt::BackendKind::Z3 ? pin.z3 : pin.builtin;
            const std::string label = std::string(pin.file) + " [" +
                                      smt::backendKindName(backend) + "]";
            prog::Program program =
                litmus::parseLitmusFile(litmusPath(pin.file));
            core::VerifierOptions options;
            options.backend = backend;
            core::Verifier verifier(program, pin.model(), options);
            core::VerificationResult safety = verifier.checkSafety();
            core::VerificationResult catSpec = verifier.checkCatSpec();
            EXPECT_EQ(safety.stats.get("smtVars"), sizes.safetyVars)
                << label;
            EXPECT_EQ(safety.stats.get("smtClauses"), sizes.safetyClauses)
                << label;
            EXPECT_EQ(catSpec.stats.get("smtVars"), sizes.catSpecVars)
                << label;
            EXPECT_EQ(catSpec.stats.get("smtClauses"),
                      sizes.catSpecClauses)
                << label;
        }
    }
}

} // namespace
} // namespace gpumc::test
