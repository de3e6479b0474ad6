/**
 * @file
 * Randomized differential testing: generate small random straight-line
 * programs with the fuzz subsystem's generator and require every
 * differential oracle — emit/reparse round-trip, SMT vs the
 * explicit-state enumerator (safety and data-race verdicts), Z3 vs the
 * built-in solver, and bound monotonicity — to agree, under both
 * architectures. This is the repository's strongest
 * internal-consistency check (the analogue of the paper's
 * Dartagnan-vs-Alloy cross validation, at fuzz scale); gpumc-fuzz runs
 * the same oracles at campaign scale.
 */

#include <gtest/gtest.h>

#include "fuzz/oracle.hpp"
#include "fuzz/random_program.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using namespace prog;

struct RandomConfig {
    Arch arch;
    uint64_t seed;
};

// gtest lists each parameter beside its test name. Without a printer it
// dumps the struct's bytes, padding included, so the listed name would
// change from one build to the next.
void
PrintTo(const RandomConfig &config, std::ostream *os)
{
    *os << archName(config.arch) << " seed " << config.seed;
}

class RandomDifferential
    : public ::testing::TestWithParam<RandomConfig> {};

TEST_P(RandomDifferential, OraclesAgree)
{
    const Arch arch = GetParam().arch;
    const cat::CatModel &model =
        arch == Arch::Ptx ? ptx75Model() : vulkanModel();

    // Straight-line profile: every case is in the explicit checker's
    // supported fragment, so smt-vs-explicit really compares verdicts
    // instead of skipping.
    fuzz::FuzzConfig config = fuzz::FuzzConfig::basic(arch);
    fuzz::OracleOptions options;
    options.enumerativeMaxCandidates = 30000;

    for (uint64_t round = 0; round < 30; ++round) {
        Program program =
            fuzz::randomProgram(GetParam().seed, round, config);
        fuzz::OracleReport report =
            fuzz::runOracles(program, model, options);
        for (const fuzz::OracleOutcome &outcome : report.outcomes) {
            EXPECT_NE(outcome.verdict, fuzz::OracleVerdict::Disagree)
                << "seed=" << GetParam().seed << " round=" << round
                << " oracle=" << fuzz::oracleName(outcome.kind) << ": "
                << outcome.detail;
        }
        // The profile stays inside the explicit fragment: the only
        // legitimate skip is an exhausted enumeration budget. An
        // "unsupported" skip here means the generator or checker
        // regressed.
        const fuzz::OracleOutcome *diff =
            report.find(fuzz::OracleKind::SmtVsExplicit);
        ASSERT_NE(diff, nullptr);
        if (diff->verdict == fuzz::OracleVerdict::Skipped) {
            EXPECT_NE(diff->detail.find("budget"), std::string::npos)
                << "seed=" << GetParam().seed << " round=" << round
                << ": " << diff->detail;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RandomDifferential,
    ::testing::Values(RandomConfig{Arch::Ptx, 1001},
                      RandomConfig{Arch::Ptx, 2002},
                      RandomConfig{Arch::Vulkan, 3003},
                      RandomConfig{Arch::Vulkan, 4004}),
    [](const auto &info) {
        return std::string(archName(info.param.arch)) + "_" +
               std::to_string(info.param.seed);
    });

} // namespace
} // namespace gpumc::test
