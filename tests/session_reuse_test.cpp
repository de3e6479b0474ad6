/**
 * @file
 * The shared incremental verification session: checkAll() must run the
 * unroll/analysis/structural-encoding pipeline exactly once per
 * (program, model, bound), answer every property as an assumption-
 * guarded query on the same live solver, and agree verdict-for-verdict
 * with fresh single-property sessions. Also covers the BatchVerifier
 * session cache (including straight-line bound normalization) and the
 * per-check timeout: a timed-out check must not poison later checks on
 * the same session.
 */

#include <deque>
#include <gtest/gtest.h>

#include "core/batch_verifier.hpp"
#include "kernels/sync_kernels.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

/** Vulkan MP: non-trivial CatSpec (the model has `flag ~empty`). */
prog::Program
vulkanMp()
{
    return litmus::parseLitmusFile(
        litmusPath("vulkan/basic/mp-rel-acq.litmus"));
}

/** The checkAll() order. */
const core::Property kThreeProperties[] = {core::Property::Safety,
                                           core::Property::Liveness,
                                           core::Property::CatSpec};

std::string
describe(const core::VerificationResult &result)
{
    if (result.unknown)
        return "unknown";
    return std::string(result.holds ? "holds(" : "fails(") +
           result.detail + ")";
}

class SessionReuse : public ::testing::TestWithParam<smt::BackendKind> {
  protected:
    core::VerifierOptions opts_;
    void SetUp() override
    {
        opts_.backend = GetParam();
        opts_.validateWitness = true;
    }
};

TEST_P(SessionReuse, ThreePropertiesBuildThePipelineOnce)
{
    prog::Program program = vulkanMp();
    core::Verifier shared(program, vulkanModel(), opts_);
    std::vector<core::VerificationResult> results = shared.checkAll();
    ASSERT_EQ(results.size(), 3u);

    // Exactly one pipeline build across the whole checkAll().
    int64_t built = 0, reused = 0;
    for (const core::VerificationResult &result : results) {
        built += result.stats.get("sessionsBuilt");
        reused += result.stats.get("sessionsReused");
    }
    EXPECT_EQ(built, 1);
    EXPECT_EQ(reused, 2);
    EXPECT_EQ(results[0].stats.get("sessionsBuilt"), 1);

    // Reused checks pay no unroll/analysis time at all; the query
    // counter grows monotonically on the one shared solver.
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].stats.get("phaseUnrollUs"), 0) << i;
        EXPECT_EQ(results[i].stats.get("phaseAnalysisUs"), 0) << i;
        EXPECT_GE(results[i].stats.get("queriesOnSharedSession"),
                  results[i - 1].stats.get("queriesOnSharedSession"))
            << i;
    }
    // All three properties are non-trivial under the Vulkan model, so
    // three guarded queries hit the shared solver.
    EXPECT_EQ(results.back().stats.get("queriesOnSharedSession"), 3);
    // Per-result solver deltas, not session totals.
    EXPECT_EQ(results.back().stats.get("solver.solveCalls"), 1);

    // Verdict-for-verdict agreement with fresh single-property runs.
    for (size_t i = 0; i < 3; ++i) {
        core::Verifier fresh(program, vulkanModel(), opts_);
        core::VerificationResult expected = fresh.check(kThreeProperties[i]);
        EXPECT_EQ(describe(results[i]), describe(expected)) << i;
    }
}

TEST_P(SessionReuse, TrivialCatSpecSkipsTheQuery)
{
    // PTX models carry no flagged axioms: CatSpec holds without ever
    // touching the solver, and no activation literal is allocated.
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("ptx/basic/mp-rel-acq.litmus"));
    core::Verifier verifier(program, ptx75Model(), opts_);
    std::vector<core::VerificationResult> results = verifier.checkAll();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[2].holds);
    EXPECT_FALSE(results[2].unknown);
    // Safety + liveness query; the trivial CatSpec does not.
    EXPECT_EQ(results.back().stats.get("queriesOnSharedSession"), 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, SessionReuse,
                         ::testing::Values(smt::BackendKind::Builtin,
                                           smt::BackendKind::Z3),
                         [](const auto &info) {
                             return info.param ==
                                            smt::BackendKind::Builtin
                                        ? "builtin"
                                        : "z3";
                         });

/** Sum a per-entry stat across a batch. */
int64_t
total(const std::vector<core::BatchEntry> &entries, const char *key)
{
    int64_t sum = 0;
    for (const core::BatchEntry &entry : entries) {
        EXPECT_FALSE(entry.failed) << entry.error;
        sum += entry.result.stats.get(key);
    }
    return sum;
}

std::vector<core::BatchJob>
threePropertyJobs(const prog::Program &program)
{
    std::vector<core::BatchJob> jobs;
    for (core::Property property : kThreeProperties) {
        core::BatchJob job;
        job.program = &program;
        job.model = &vulkanModel();
        job.options.wantWitness = false;
        job.property = property;
        jobs.push_back(job);
    }
    return jobs;
}

/** The baseline: one fresh core::Verifier per property. */
std::vector<core::VerificationResult>
freshThreeProperties(const prog::Program &program)
{
    core::VerifierOptions options;
    options.wantWitness = false;
    std::vector<core::VerificationResult> results;
    for (core::Property property : kThreeProperties) {
        core::Verifier fresh(program, vulkanModel(), options);
        results.push_back(fresh.check(property));
    }
    return results;
}

TEST(SessionCache, BatchGroupsSameKeyJobsOntoOneSession)
{
    prog::Program program = vulkanMp();
    core::BatchVerifier engine(2);

    std::vector<core::BatchEntry> shared =
        engine.run(threePropertyJobs(program));
    EXPECT_EQ(total(shared, "sessionsBuilt"), 1);
    EXPECT_EQ(total(shared, "sessionsReused"), 2);

    std::vector<core::VerificationResult> fresh =
        freshThreeProperties(program);
    int64_t freshBuilt = 0, freshReused = 0;
    for (const core::VerificationResult &result : fresh) {
        freshBuilt += result.stats.get("sessionsBuilt");
        freshReused += result.stats.get("sessionsReused");
    }
    EXPECT_EQ(freshBuilt, 3);
    EXPECT_EQ(freshReused, 0);

    ASSERT_EQ(shared.size(), fresh.size());
    for (size_t i = 0; i < shared.size(); ++i)
        EXPECT_EQ(describe(shared[i].result), describe(fresh[i])) << i;
}

TEST(SessionCache, StraightLineProgramsReuseAcrossBounds)
{
    // Unrolling a straight-line program is bound-independent, so the
    // cache normalizes the bound away and ascending-bound re-solves
    // land on one session. valueBits is pinned because the automatic
    // width is derived per (program, bound) and is part of the key.
    prog::Program program = vulkanMp();
    ASSERT_TRUE(program.isStraightLine());

    std::vector<core::BatchJob> jobs;
    for (int bound : {1, 2, 4}) {
        core::BatchJob job;
        job.program = &program;
        job.model = &vulkanModel();
        job.options.bound = bound;
        job.options.valueBits = 4;
        job.options.wantWitness = false;
        job.property = core::Property::Safety;
        jobs.push_back(job);
    }
    core::BatchVerifier engine(1);
    std::vector<core::BatchEntry> entries = engine.run(jobs);
    EXPECT_EQ(total(entries, "sessionsBuilt"), 1);
    EXPECT_EQ(total(entries, "sessionsReused"), 2);
    // Bound-independent program: one verdict, decided, at every bound.
    for (const core::BatchEntry &entry : entries) {
        EXPECT_FALSE(entry.result.unknown);
        EXPECT_EQ(describe(entry.result), describe(entries[0].result));
    }

    // A program with loops must NOT be grouped across bounds.
    prog::Program looped = litmus::parseLitmusFile(
        litmusPath("progress/spin-flag-set-vk.litmus"));
    ASSERT_FALSE(looped.isStraightLine());
    for (core::BatchJob &job : jobs)
        job.program = &looped;
    std::vector<core::BatchEntry> loopedEntries = engine.run(jobs);
    EXPECT_EQ(total(loopedEntries, "sessionsBuilt"), 3);
}

TEST(SessionCache, ParallelSharedMatchesSequentialFresh)
{
    std::deque<prog::Program> programs;
    std::vector<core::BatchJob> shared;
    std::vector<core::VerificationResult> fresh;
    for (const char *file :
         {"vulkan/basic/mp-rel-acq.litmus", "vulkan/basic/mp-rlx.litmus",
          "vulkan/basic/mp-nonatomic-flag-race.litmus",
          "vulkan/basic/sb-rel-acq.litmus"}) {
        programs.push_back(litmus::parseLitmusFile(litmusPath(file)));
        for (core::BatchJob &job : threePropertyJobs(programs.back()))
            shared.push_back(job);
        for (core::VerificationResult &result :
             freshThreeProperties(programs.back()))
            fresh.push_back(std::move(result));
    }

    core::BatchVerifier parallel(4);
    std::vector<core::BatchEntry> sharedEntries = parallel.run(shared);
    ASSERT_EQ(sharedEntries.size(), fresh.size());
    for (size_t i = 0; i < sharedEntries.size(); ++i) {
        ASSERT_FALSE(sharedEntries[i].failed) << sharedEntries[i].error;
        EXPECT_EQ(describe(sharedEntries[i].result), describe(fresh[i]))
            << i;
    }
    EXPECT_EQ(total(sharedEntries, "sessionsBuilt"), 4);
}

TEST(SessionReuseTimeout, TimedOutCheckDoesNotPoisonTheSession)
{
    // A query big enough that a 1 ms budget cannot finish it.
    prog::Program program =
        kernels::buildCaslock({2, 2}, kernels::LockVariant::Base);
    core::VerifierOptions options;
    options.backend = smt::BackendKind::Builtin;
    options.wantWitness = false;
    options.solverTimeoutMs = 1;

    core::Verifier verifier(program, vulkanModel(), options);
    core::VerificationResult starved = verifier.checkSafety();
    EXPECT_TRUE(starved.unknown);

    // Lifting the budget and re-checking on the SAME session must
    // decide: the backend's solver limit is re-armed per check, so the
    // stale 1 ms cap cannot leak into this query.
    verifier.setSolverTimeoutMs(0);
    core::VerificationResult decided = verifier.checkSafety();
    EXPECT_FALSE(decided.unknown) << decided.detail;
    EXPECT_EQ(decided.stats.get("sessionsBuilt"), 0);
    EXPECT_EQ(decided.stats.get("sessionsReused"), 1);
}

} // namespace
} // namespace gpumc::test
