/**
 * @file
 * Campaign driver tests: deterministic verdict logs across worker
 * counts, clean runs on healthy configurations, and the end-to-end
 * acceptance path — an injected oracle disagreement is detected,
 * auto-shrunk, written as a `.litmus` repro, and the repro (reparsed
 * from disk) still reproduces the backend disagreement.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "fuzz/campaign.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using namespace prog;

fuzz::CampaignOptions
baseOptions(Arch arch, const cat::CatModel &model, const char *name)
{
    fuzz::CampaignOptions options;
    options.config = fuzz::FuzzConfig::basic(arch);
    options.model = &model;
    options.modelName = name;
    options.seed = 42;
    options.runs = 6;
    return options;
}

TEST(FuzzCampaign, LogIsDeterministicAcrossWorkerCounts)
{
    for (Arch arch : {Arch::Ptx, Arch::Vulkan}) {
        const cat::CatModel &model =
            arch == Arch::Ptx ? ptx75Model() : vulkanModel();
        fuzz::CampaignOptions options = baseOptions(
            arch, model, arch == Arch::Ptx ? "ptx-v7.5" : "vulkan");
        options.jobs = 1;
        fuzz::CampaignResult sequential = fuzz::runCampaign(options);
        options.jobs = 4;
        fuzz::CampaignResult parallel = fuzz::runCampaign(options);
        EXPECT_EQ(sequential.log, parallel.log);
        EXPECT_FALSE(sequential.log.empty());
        EXPECT_EQ(sequential.cases.size(), 6u);
    }
}

TEST(FuzzCampaign, HealthyCampaignIsClean)
{
    fuzz::CampaignOptions options =
        baseOptions(Arch::Ptx, ptx75Model(), "ptx-v7.5");
    options.jobs = 2;
    fuzz::CampaignResult result = fuzz::runCampaign(options);
    EXPECT_EQ(result.disagreements, 0) << result.log;
    EXPECT_EQ(result.errors, 0) << result.log;
    EXPECT_EQ(result.oracleChecks, 6 * 5);
    EXPECT_TRUE(result.clean());
}

/**
 * The acceptance criterion end to end: --inject=bound-gap makes the
 * z3 side run at bound-1; on a loopy case the backends genuinely
 * disagree; the campaign shrinks it, writes a `.litmus` repro, and
 * that file — reparsed from disk through the normal litmus parser —
 * still makes the two backends disagree.
 */
TEST(FuzzCampaign, InjectedBoundGapShrinksToConfirmedRepro)
{
    const std::string outDir =
        (std::filesystem::path(::testing::TempDir()) /
         "gpumc-fuzz-repro")
            .string();
    std::filesystem::remove_all(outDir);

    fuzz::CampaignOptions options =
        baseOptions(Arch::Ptx, ptx75Model(), "ptx-v7.5");
    options.config = fuzz::FuzzConfig::withControlFlow(Arch::Ptx);
    options.seed = 1;
    options.runs = 5; // seed 1 cases 0003/0004 are bound-sensitive
    options.jobs = 2;
    options.oracle.bound = 2;
    options.oracle.z3Bound = 1; // the injected fault
    options.maxShrinks = 1;
    options.outDir = outDir;

    fuzz::CampaignResult result = fuzz::runCampaign(options);
    ASSERT_GT(result.disagreements, 0) << result.log;
    ASSERT_FALSE(result.shrinks.empty()) << result.log;

    const fuzz::ShrinkRecord &record = result.shrinks.front();
    EXPECT_EQ(record.oracle, fuzz::OracleKind::Z3VsBuiltin);
    EXPECT_LT(record.finalSize, record.initialSize);
    EXPECT_TRUE(record.confirmed) << result.log;
    ASSERT_FALSE(record.reproPath.empty());
    ASSERT_TRUE(std::filesystem::exists(record.reproPath));

    // Independent replay: parse the file from disk and compare the two
    // backends directly, exactly as the header commands instruct.
    Program repro = litmus::parseLitmusFile(record.reproPath);
    auto holdsWith = [&](smt::BackendKind backend, int bound) {
        core::VerifierOptions vo;
        vo.backend = backend;
        vo.bound = bound;
        vo.validateWitness = true;
        core::Verifier verifier(repro, ptx75Model(), vo);
        return verifier.checkSafety().holds;
    };
    EXPECT_NE(holdsWith(smt::BackendKind::Builtin, 2),
              holdsWith(smt::BackendKind::Z3, 1))
        << "repro no longer reproduces the disagreement";

    // And the log narrates the confirmation.
    EXPECT_NE(result.log.find("repro confirmed"), std::string::npos)
        << result.log;
}

/** Without injection the same loopy campaign is disagreement-free. */
TEST(FuzzCampaign, NoInjectionNoDisagreement)
{
    fuzz::CampaignOptions options =
        baseOptions(Arch::Ptx, ptx75Model(), "ptx-v7.5");
    options.config = fuzz::FuzzConfig::withControlFlow(Arch::Ptx);
    options.seed = 1;
    options.runs = 5;
    options.jobs = 2;
    fuzz::CampaignResult result = fuzz::runCampaign(options);
    EXPECT_EQ(result.disagreements, 0) << result.log;
}

} // namespace
} // namespace gpumc::test
