/**
 * @file
 * core::BatchVerifier: parallel fan-out must be observationally
 * identical to sequential execution (same verdicts, same order), under
 * every engine, and every result must carry per-phase timings and
 * solver statistics for both backends. Jobs that differ only in their
 * budget share one session, and each runs under its own budget.
 */

#include <deque>
#include <filesystem>
#include <gtest/gtest.h>

#include "core/batch_verifier.hpp"
#include "kernels/sync_kernels.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

namespace fs = std::filesystem;

/** A mixed corpus slice: PTX + Vulkan + progress (liveness) tests. */
std::vector<std::string>
mixedCorpusFiles()
{
    std::vector<std::string> out;
    for (const char *sub : {"/ptx/basic", "/progress"}) {
        for (const auto &entry : fs::recursive_directory_iterator(
                 std::string(GPUMC_LITMUS_DIR) + sub)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".litmus") {
                out.push_back(entry.path().string());
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Expand the corpus slice into one safety/liveness query per file and
 * applicable model, mirroring the corpus runner's expansion.
 */
std::vector<core::BatchJob>
buildJobs(std::deque<prog::Program> &programs)
{
    std::vector<core::BatchJob> jobs;
    core::VerifierOptions options;
    options.wantWitness = false;
    for (const std::string &file : mixedCorpusFiles()) {
        programs.push_back(litmus::parseLitmusFile(file));
        const prog::Program &program = programs.back();
        core::BatchJob job;
        job.program = &program;
        job.model = &modelFor(program);
        job.options = options;
        job.property = program.meta.count("liveness")
                           ? core::Property::Liveness
                           : core::Property::Safety;
        job.label = file;
        jobs.push_back(job);
    }
    return jobs;
}

std::string
fingerprint(const std::vector<core::BatchEntry> &entries)
{
    std::string out;
    for (const core::BatchEntry &entry : entries) {
        out += entry.label;
        out += '|';
        out += entry.failed ? "error:" + entry.error
               : entry.result.unknown
                   ? std::string("unknown")
                   : std::string(entry.result.holds ? "holds" : "fails");
        out += '|';
        out += entry.result.detail;
        out += '\n';
    }
    return out;
}

TEST(BatchVerifier, ParallelMatchesSequential)
{
    std::deque<prog::Program> programs;
    std::vector<core::BatchJob> jobs = buildJobs(programs);
    ASSERT_GT(jobs.size(), 10u);

    core::BatchVerifier sequential(1);
    core::BatchVerifier parallel(4);
    std::vector<core::BatchEntry> seqEntries = sequential.run(jobs);
    std::vector<core::BatchEntry> parEntries = parallel.run(jobs);

    ASSERT_EQ(seqEntries.size(), jobs.size());
    ASSERT_EQ(parEntries.size(), jobs.size());
    // Byte-identical verdicts, in input order, for any worker count.
    EXPECT_EQ(fingerprint(seqEntries), fingerprint(parEntries));
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(seqEntries[i].label, jobs[i].label);
        EXPECT_FALSE(seqEntries[i].failed) << seqEntries[i].error;
    }
}

class BatchStats : public ::testing::TestWithParam<smt::BackendKind> {};

TEST_P(BatchStats, PhaseAndSolverStatsPopulated)
{
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("ptx/basic/mp-weak.litmus"));
    core::BatchJob job;
    job.program = &program;
    job.model = &ptx60Model();
    job.options.wantWitness = false;
    job.options.backend = GetParam();
    job.label = "mp-weak";

    core::BatchVerifier engine(2);
    std::vector<core::BatchEntry> entries = engine.run({job, job});
    ASSERT_EQ(entries.size(), 2u);
    for (const core::BatchEntry &entry : entries) {
        ASSERT_FALSE(entry.failed) << entry.error;
        const StatsRegistry &stats = entry.result.stats;
        // Per-phase wall times: keys always present, solve > 0.
        EXPECT_TRUE(stats.all().count("phaseUnrollUs"));
        EXPECT_TRUE(stats.all().count("phaseAnalysisUs"));
        EXPECT_TRUE(stats.all().count("phaseEncodeUs"));
        EXPECT_TRUE(stats.all().count("phaseSolveUs"));
        EXPECT_GE(stats.get("phaseEncodeUs"), 0);
        // Solver statistics exported through smt::Backend.
        EXPECT_EQ(stats.get("solver.solveCalls"), 1);
        if (GetParam() == smt::BackendKind::Builtin) {
            EXPECT_TRUE(stats.all().count("solver.conflicts"));
            EXPECT_TRUE(stats.all().count("solver.decisions"));
            EXPECT_TRUE(stats.all().count("solver.propagations"));
            EXPECT_GT(stats.get("solver.decisions"), 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchStats,
                         ::testing::Values(smt::BackendKind::Builtin,
                                           smt::BackendKind::Z3),
                         [](const auto &info) {
                             return info.param ==
                                            smt::BackendKind::Builtin
                                        ? "builtin"
                                        : "z3";
                         });

TEST(BatchVerifier, MoreWorkersThanJobsIsFine)
{
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("ptx/basic/mp-weak.litmus"));
    core::BatchJob job;
    job.program = &program;
    job.model = &ptx60Model();
    job.options.wantWitness = false;
    job.label = "mp-weak";

    core::BatchVerifier engine(16); // clamped to the 3 queries
    std::vector<core::BatchEntry> entries =
        engine.run({job, job, job});
    ASSERT_EQ(entries.size(), 3u);
    for (const core::BatchEntry &entry : entries) {
        ASSERT_FALSE(entry.failed) << entry.error;
        EXPECT_TRUE(entry.result.holds); // exists: stale read reachable
        EXPECT_FALSE(entry.result.unknown);
    }
    EXPECT_EQ(engine.jobs(), 16u);
}

/**
 * SMT, DPOR and explicit jobs in one batch: the DPOR and explicit jobs
 * fan out like SMT ones, and each program is explored once per
 * enumerative engine.
 */
TEST(BatchVerifier, MixedEnginesMatchAcrossWorkerCounts)
{
    const core::Engine engines[] = {core::Engine::Smt, core::Engine::Dpor,
                                    core::Engine::Explicit};
    const core::Property properties[] = {core::Property::Safety,
                                         core::Property::Liveness,
                                         core::Property::CatSpec};
    std::deque<prog::Program> programs;
    std::vector<core::BatchJob> jobs;
    for (const char *file :
         {"ptx/basic/mp-rel-acq.litmus",
          "vulkan/basic/mp-nonatomic-flag-race.litmus",
          "progress/spin-flag-set-vk.litmus"}) {
        programs.push_back(litmus::parseLitmusFile(litmusPath(file)));
        for (int e = 0; e < 3; ++e) {
            for (int p = 0; p < 3; ++p) {
                core::BatchJob job;
                job.program = &programs.back();
                job.model = &modelFor(programs.back());
                job.property = properties[p];
                job.options.engine = engines[e];
                job.options.wantWitness = false;
                job.label = std::string(file) + " engine " +
                            std::to_string(e) + " property " +
                            std::to_string(p);
                jobs.push_back(job);
            }
        }
    }

    std::vector<core::BatchEntry> sequential =
        core::BatchVerifier(1).run(jobs);
    std::vector<core::BatchEntry> parallel =
        core::BatchVerifier(4).run(jobs);
    ASSERT_EQ(sequential.size(), jobs.size());
    EXPECT_EQ(fingerprint(sequential), fingerprint(parallel));

    for (size_t file = 0; file < 3; ++file) {
        const core::BatchEntry *entry = &sequential[file * 9];
        for (int e = 1; e < 3; ++e) {
            const core::BatchEntry *enumerated = entry + 3 * e;
            for (int p = 0; p < 3; ++p)
                ASSERT_FALSE(enumerated[p].failed) << enumerated[p].error;
            const core::VerificationResult &safety = enumerated[0].result;
            const core::VerificationResult &liveness = enumerated[1].result;
            const core::VerificationResult &drf = enumerated[2].result;
            // Safety explores; CatSpec is answered from that exploration.
            EXPECT_EQ(safety.stats.get("sessionsBuilt"), 1) << safety.detail;
            EXPECT_EQ(safety.stats.get("sessionsReused"), 0);
            EXPECT_EQ(drf.stats.get("sessionsBuilt"), 0);
            EXPECT_EQ(drf.stats.get("sessionsReused"), 1);
            EXPECT_TRUE(liveness.unknown);
            EXPECT_NE(liveness.detail.find("liveness"), std::string::npos);
            if (file == 2) {
                // The spin loop is outside the enumerative fragment.
                EXPECT_TRUE(safety.unknown);
                EXPECT_EQ(safety.detail,
                          "unsupported: control-flow instructions");
                EXPECT_TRUE(drf.unknown);
                continue;
            }
            // Interchangeable with the SMT verdicts.
            for (int p : {0, 2}) {
                ASSERT_FALSE(enumerated[p].result.unknown)
                    << enumerated[p].result.detail;
                EXPECT_EQ(enumerated[p].result.holds, entry[p].result.holds)
                    << enumerated[p].label;
                EXPECT_EQ(enumerated[p].result.detail,
                          entry[p].result.detail);
            }
        }
    }
}

/**
 * Two jobs that differ only in their budget: one session, and each job
 * checked under its own budget. Safety of this kernel needs about
 * 100 ms of search, so 1 ms cannot decide it and no limit does.
 */
TEST(BatchVerifier, JobsDifferingOnlyInBudgetShareOneSession)
{
    prog::Program program =
        kernels::buildCaslock({1, 2}, kernels::LockVariant::Base);
    core::BatchJob starved;
    starved.program = &program;
    starved.model = &vulkanModel();
    starved.options.wantWitness = false;
    starved.options.solverTimeoutMs = 1;
    starved.label = "1 ms";
    core::BatchJob unlimited = starved;
    unlimited.options.solverTimeoutMs = 0;
    unlimited.label = "unlimited";

    std::vector<core::BatchEntry> entries =
        core::BatchVerifier(2).run({starved, unlimited});
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].result.unknown);
    EXPECT_FALSE(entries[1].result.unknown) << entries[1].result.detail;
    EXPECT_EQ(entries[0].result.stats.get("sessionsBuilt"), 1);
    EXPECT_EQ(entries[1].result.stats.get("sessionsBuilt"), 0);
    EXPECT_EQ(entries[1].result.stats.get("sessionsReused"), 1);
}

} // namespace
} // namespace gpumc::test
