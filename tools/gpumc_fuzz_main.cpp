/**
 * @file
 * gpumc-fuzz: differential fuzzing campaigns over random litmus
 * programs. Each case is cross-checked by four oracles (emit/reparse
 * round-trip, SMT vs the explicit-state enumerator, Z3 vs the built-in
 * solver, and bound monotonicity) plus, with --session-reuse, a fifth
 * comparing shared-session checkAll() against fresh sessions, with
 * --clause-sharing a sixth comparing the builtin backend with
 * cube-scope clause sharing against the sharing-off baseline, and with
 * --dpor a seventh comparing the DPOR stateless model-checking engine
 * against the SMT verdicts;
 * disagreements are delta-debugged into minimal `.litmus` repro files.
 *
 *   gpumc-fuzz [--seed=N] [--runs=N] [--jobs=N] [--arch=ptx|vulkan|both]
 *              [--profile=basic|cf|full] [--bound=N] [--out-dir=DIR]
 *              [--inject=bound-gap] [--no-shrink] [--max-shrinks=N]
 *              [--timeout=MS] [--verify-determinism]
 *              [--session-reuse] [--clause-sharing] [--dpor]
 *
 * The verdict log is deterministic for a fixed seed: identical across
 * runs and across --jobs values (every engine run is fanned out through
 * core::BatchVerifier, which reports in input order).
 *
 * `--inject=bound-gap` deliberately runs the Z3 side of z3-vs-builtin
 * at bound-1. On bound-sensitive programs (counted loops) the two
 * backends then genuinely disagree, exercising detection, shrinking
 * and repro emission end to end — the written repro reproduces the
 * disagreement through plain `gpumc` with the commands in its header.
 *
 * Exit status: 0 all oracles agreed, 1 disagreements or engine errors,
 * 2 usage error.
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "fuzz/campaign.hpp"
#include "support/string_utils.hpp"
#include "support/thread_budget.hpp"
#include "support/trace.hpp"

using namespace gpumc;

namespace {

struct CliOptions {
    uint64_t seed = 1;
    int runs = 50;
    unsigned jobs = 0;
    std::string arch = "both"; // ptx | vulkan | both
    std::string profile = "full";
    int bound = 2;
    std::string outDir;
    bool injectBoundGap = false;
    bool sessionReuse = false;
    bool clauseSharing = false;
    bool dpor = false;
    bool shrink = true;
    int maxShrinks = 3;
    int shrinkAttempts = 400;
    int64_t solverTimeoutMs = 0;
    bool verifyDeterminism = false;
    std::string tracePath;
    std::string metricsPath;
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: gpumc-fuzz [options]\n"
           "  --seed=N          campaign seed (default 1)\n"
           "  --runs=N          cases per architecture (default 50)\n"
           "  --jobs=N          worker threads (default: hardware "
           "concurrency)\n"
           "  --arch=A          ptx | vulkan | both (default both)\n"
           "  --profile=P       basic (straight-line) | cf (+control "
           "flow) | full (default)\n"
           "  --bound=N         loop unroll bound k (default 2)\n"
           "  --out-dir=DIR     write shrunken .litmus repros here\n"
           "  --inject=bound-gap  run the z3 oracle at bound k-1 — a\n"
           "                    deliberate fault to exercise shrinking\n"
           "  --session-reuse   also cross-check every case's shared\n"
           "                    checkAll() session against three fresh\n"
           "                    sessions, on both backends\n"
           "  --clause-sharing  also cross-check the builtin backend\n"
           "                    with cube-scope clause sharing against\n"
           "                    the sharing-off baseline\n"
           "  --dpor            also cross-check every case through the\n"
           "                    DPOR stateless model-checking engine\n"
           "                    against the builtin SMT verdicts\n"
           "  --no-shrink       report disagreements without shrinking\n"
           "  --max-shrinks=N   disagreeing cases to shrink (default 3)\n"
           "  --shrink-attempts=N  predicate budget per shrink "
           "(default 400)\n"
           "  --timeout=MS      solver budget per query (0 = none)\n"
           "  --verify-determinism  run every campaign twice (1 worker "
           "vs --jobs)\n"
           "                    and fail unless the logs are identical\n"
           "  --trace=FILE      Chrome trace-event JSON of the campaign\n"
           "  --metrics=FILE    flat metrics JSON (counters + span "
           "aggregates)\n";
    std::exit(2);
}

/** cliInt (support/string_utils) partially applied to this tool. */
int64_t
cliInt(const std::string &flag, const std::string &value, int64_t min,
       int64_t max)
{
    return gpumc::cliInt("gpumc-fuzz", flag, value, min, max);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--seed=")) {
            opts.seed = static_cast<uint64_t>(
                cliInt("--seed", arg.substr(7), 0, INT64_MAX));
        } else if (startsWith(arg, "--runs=")) {
            opts.runs = static_cast<int>(
                cliInt("--runs", arg.substr(7), 1, 1000000));
        } else if (startsWith(arg, "--jobs=")) {
            opts.jobs = static_cast<unsigned>(
                cliInt("--jobs", arg.substr(7), 1, 1024));
        } else if (startsWith(arg, "--arch=")) {
            opts.arch = arg.substr(7);
            if (opts.arch != "ptx" && opts.arch != "vulkan" &&
                opts.arch != "both") {
                usage();
            }
        } else if (startsWith(arg, "--profile=")) {
            opts.profile = arg.substr(10);
            if (opts.profile != "basic" && opts.profile != "cf" &&
                opts.profile != "full") {
                usage();
            }
        } else if (startsWith(arg, "--bound=")) {
            opts.bound = static_cast<int>(
                cliInt("--bound", arg.substr(8), 1, 64));
        } else if (startsWith(arg, "--out-dir=")) {
            opts.outDir = arg.substr(10);
            if (opts.outDir.empty())
                usage();
        } else if (arg == "--inject=bound-gap") {
            opts.injectBoundGap = true;
        } else if (arg == "--session-reuse") {
            opts.sessionReuse = true;
        } else if (arg == "--clause-sharing") {
            opts.clauseSharing = true;
        } else if (arg == "--dpor") {
            opts.dpor = true;
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (startsWith(arg, "--max-shrinks=")) {
            opts.maxShrinks = static_cast<int>(
                cliInt("--max-shrinks", arg.substr(14), 0, 1000));
        } else if (startsWith(arg, "--shrink-attempts=")) {
            opts.shrinkAttempts = static_cast<int>(
                cliInt("--shrink-attempts", arg.substr(18), 1, 100000));
        } else if (startsWith(arg, "--timeout=")) {
            opts.solverTimeoutMs =
                cliInt("--timeout", arg.substr(10), 0, INT64_MAX);
        } else if (arg == "--verify-determinism") {
            opts.verifyDeterminism = true;
        } else if (startsWith(arg, "--trace=")) {
            opts.tracePath = arg.substr(8);
            if (opts.tracePath.empty())
                usage();
        } else if (startsWith(arg, "--metrics=")) {
            opts.metricsPath = arg.substr(10);
            if (opts.metricsPath.empty())
                usage();
        } else {
            std::cerr << "gpumc-fuzz: unknown option '" << arg << "'\n";
            usage();
        }
    }
    if (opts.injectBoundGap && opts.bound < 2) {
        std::cerr << "gpumc-fuzz: --inject=bound-gap needs --bound>=2\n";
        std::exit(2);
    }
    return opts;
}

fuzz::FuzzConfig
profileConfig(const std::string &profile, prog::Arch arch)
{
    if (profile == "basic")
        return fuzz::FuzzConfig::basic(arch);
    if (profile == "cf")
        return fuzz::FuzzConfig::withControlFlow(arch);
    return fuzz::FuzzConfig::full(arch);
}

fuzz::CampaignOptions
campaignOptions(const CliOptions &opts, prog::Arch arch,
                const cat::CatModel &model,
                const std::string &modelName)
{
    fuzz::CampaignOptions co;
    co.config = profileConfig(opts.profile, arch);
    co.model = &model;
    co.modelName = modelName;
    co.seed = opts.seed;
    co.runs = opts.runs;
    co.jobs = opts.jobs;
    co.oracle.bound = opts.bound;
    if (opts.injectBoundGap)
        co.oracle.z3Bound = opts.bound - 1;
    co.oracle.sessionReuse = opts.sessionReuse;
    co.oracle.clauseSharing = opts.clauseSharing;
    co.oracle.dpor = opts.dpor;
    co.oracle.solverTimeoutMs = opts.solverTimeoutMs;
    co.shrink = opts.shrink;
    co.maxShrinks = opts.maxShrinks;
    co.shrinkAttempts = opts.shrinkAttempts;
    co.outDir = opts.outDir;
    return co;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts = parseArgs(argc, argv);
    trace::enableFromCli(opts.tracePath, opts.metricsPath);
    // --jobs caps total concurrency across campaign workers and any
    // cube solvers the oracles spin up.
    ThreadBudget::instance().setTotal(opts.jobs);

    cat::CatModel ptx75 = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/ptx-v7.5.cat");
    cat::CatModel vulkan = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/vulkan.cat");

    struct Target {
        prog::Arch arch;
        const cat::CatModel *model;
        const char *name;
    };
    std::vector<Target> targets;
    if (opts.arch == "ptx" || opts.arch == "both")
        targets.push_back({prog::Arch::Ptx, &ptx75, "ptx-v7.5"});
    if (opts.arch == "vulkan" || opts.arch == "both")
        targets.push_back({prog::Arch::Vulkan, &vulkan, "vulkan"});

    bool clean = true;
    bool deterministic = true;
    for (const Target &target : targets) {
        fuzz::CampaignOptions co = campaignOptions(
            opts, target.arch, *target.model, target.name);
        fuzz::CampaignResult result = fuzz::runCampaign(co);
        std::cout << result.log;
        clean = clean && result.clean();

        if (opts.verifyDeterminism) {
            // Same seed, one worker: the verdict log must be identical
            // byte for byte.
            fuzz::CampaignOptions sequential = co;
            sequential.jobs = 1;
            fuzz::CampaignResult replay = fuzz::runCampaign(sequential);
            if (replay.log != result.log) {
                deterministic = false;
                std::cout << "determinism MISMATCH for " << target.name
                          << " (jobs=" << co.jobs
                          << " vs jobs=1); sequential log:\n"
                          << replay.log;
            }
        }
    }

    if (opts.verifyDeterminism) {
        std::cout << (deterministic ? "determinism ok"
                                    : "determinism FAILED")
                  << "\n";
    }
    int code = clean && deterministic ? 0 : 1;
    if (!trace::flushCliOutputs(opts.tracePath, opts.metricsPath,
                                std::cerr) &&
        code == 0) {
        code = 2;
    }
    return code;
}
