/**
 * @file
 * Corpus runner: every shipped litmus test carries `@expect` directives
 * (safety / liveness / drf verdicts per model); this test verifies all
 * of them. The corpus includes every figure of the paper, so this is
 * the repository's model-validation suite (Section 7.1).
 */

#include <filesystem>
#include <gtest/gtest.h>

#include "support/string_utils.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

namespace fs = std::filesystem;

class Corpus : public ::testing::TestWithParam<std::string> {};

void
runExpectations(const prog::Program &program, const cat::CatModel &model,
                const std::string &safetyKey, const std::string &file)
{
    core::VerifierOptions options;
    options.validateWitness = true;
    auto it = program.meta.find("bound");
    if (it != program.meta.end()) {
        std::optional<int64_t> bound = parseInt(it->second);
        ASSERT_TRUE(bound) << file << ": malformed `bound` meta value '"
                           << it->second << "'";
        options.bound = static_cast<int>(*bound);
    }

    auto expect = [&](const std::string &key) -> std::string {
        auto m = program.meta.find(key);
        return m == program.meta.end() ? "" : m->second;
    };

    std::string safety = expect(safetyKey);
    if (safety.empty())
        safety = expect("safety");
    if (!safety.empty()) {
        core::Verifier verifier(program, model, options);
        core::VerificationResult result = verifier.checkSafety();
        EXPECT_EQ(result.holds, safety == "holds")
            << file << " [" << model.name() << "] safety: expected "
            << safety << ", got " << result.detail;
    }

    std::string liveness = expect("liveness");
    if (!liveness.empty()) {
        core::Verifier verifier(program, model, options);
        core::VerificationResult result = verifier.checkLiveness();
        EXPECT_EQ(result.holds, liveness == "live")
            << file << " [" << model.name() << "] liveness: expected "
            << liveness << ", got " << result.detail;
    }

    std::string drf = expect("drf");
    if (!drf.empty() && model.hasFlaggedAxioms()) {
        core::Verifier verifier(program, model, options);
        core::VerificationResult result = verifier.checkCatSpec();
        EXPECT_EQ(result.holds, drf == "racefree")
            << file << " [" << model.name() << "] drf: expected " << drf
            << ", got " << result.detail;
    }
}

TEST_P(Corpus, MeetsExpectations)
{
    const std::string &file = GetParam();
    prog::Program program = litmus::parseLitmusFile(file);
    if (program.arch == prog::Arch::Ptx) {
        runExpectations(program, ptx60Model(), "safety-v60", file);
        runExpectations(program, ptx75Model(), "safety-v75", file);
    } else {
        runExpectations(program, vulkanModel(), "safety", file);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Files, Corpus, ::testing::ValuesIn(corpusFiles()),
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
