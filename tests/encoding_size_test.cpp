/**
 * @file
 * Pinned encoding sizes: smtVars/smtClauses after the Safety and then
 * the CatSpec check of one Verifier, for corpus programs under each
 * shipped model. Which closures carry well-foundedness indices follows
 * from the occurrence polarity of the `.cat` axioms (cat::PolarityWalk),
 * and the flagged Vulkan programs are where closures the solver wants
 * true appear, so a change to that walk or to its use moves these
 * numbers. They were measured on the encoder before the walk moved to
 * src/cat; a change that means to alter the CNF updates them.
 */

#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

struct PinnedSize {
    const char *file;
    const cat::CatModel &(*model)();
    int64_t safetyVars, safetyClauses;
    int64_t catSpecVars, catSpecClauses;
};

const PinnedSize kPinned[] = {
    {"ptx/basic/sb-weak.litmus", ptx60Model,
     79, 181, 79, 181},
    {"ptx/basic/mp-rel-acq.litmus", ptx60Model,
     86, 196, 86, 196},
    {"ptx/paper/fig6-co-partial.litmus", ptx75Model,
     202, 573, 202, 573},
    {"ptx/paper/fig5-mp-proxy.litmus", ptx75Model,
     108, 248, 108, 248},
    {"vulkan/basic/mp-rel-acq.litmus", vulkanModel,
     124, 316, 125, 317},
    {"vulkan/basic/mp-nonatomic-flag-race.litmus", vulkanModel,
     93, 225, 94, 226},
    {"vulkan/paper/fig3-xf-race.litmus", vulkanModel,
     404, 1140, 405, 1142},
    {"vulkan/paper/fig16-rmw-bug.litmus", vulkanModel,
     388, 1184, 389, 1185},
};

TEST(Encoding, SizesArePinnedPerModel)
{
    for (const PinnedSize &pin : kPinned) {
        prog::Program program = litmus::parseLitmusFile(litmusPath(pin.file));
        core::Verifier verifier(program, pin.model(), {});
        core::VerificationResult safety = verifier.checkSafety();
        core::VerificationResult catSpec = verifier.checkCatSpec();
        EXPECT_EQ(safety.stats.get("smtVars"), pin.safetyVars) << pin.file;
        EXPECT_EQ(safety.stats.get("smtClauses"), pin.safetyClauses)
            << pin.file;
        EXPECT_EQ(catSpec.stats.get("smtVars"), pin.catSpecVars)
            << pin.file;
        EXPECT_EQ(catSpec.stats.get("smtClauses"), pin.catSpecClauses)
            << pin.file;
    }
}

} // namespace
} // namespace gpumc::test
