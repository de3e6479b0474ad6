/**
 * @file
 * gpumc-fuzz: differential fuzzing campaigns over random litmus
 * programs. Each case is cross-checked by five oracles (emit/reparse
 * round-trip, SMT vs the explicit-state baseline, Z3 vs the built-in
 * solver, bound monotonicity, and SMT vs the DPOR engine) plus, with
 * --session-reuse, shared sessions against fresh ones and, with
 * --clause-sharing, the builtin backend with cube-scope clause sharing
 * against the plain one (see fuzz/oracle.hpp); disagreements are
 * delta-debugged into minimal `.litmus` repro files. An unknown
 * argument (such as the removed --dpor) prints the flag list.
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
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "core/verifier.hpp"
#include "fuzz/campaign.hpp"
#include "support/cli.hpp"

using namespace gpumc;

namespace {

/** Bits of --arch. */
constexpr int kPtx = 1;
constexpr int kVulkan = 2;

struct CliOptions {
    /** Every campaign option but the architecture and its model. */
    fuzz::CampaignOptions campaign;
    int arches = kPtx | kVulkan;
    fuzz::FuzzConfig (*profile)(prog::Arch) = fuzz::FuzzConfig::full;
    bool verifyDeterminism = false;
};

CliOptions
parseArgs(cli::Parser &cli, int argc, char **argv)
{
    CliOptions opts;
    fuzz::CampaignOptions &co = opts.campaign;
    bool injectBoundGap = false;
    bool noShrink = false;
    cli.integer("seed", "N", "campaign seed (default: 1)", co.seed, 0,
                INT64_MAX);
    cli.integer("runs", "N", "cases per architecture (default: 50)",
                co.runs, 1, 1000000);
    cli.jobs(co.jobs);
    cli.choice("arch", "architectures to fuzz (default: both)",
               {{"ptx", kPtx}, {"vulkan", kVulkan}, {"both", kPtx | kVulkan}},
               opts.arches);
    cli.choice("profile",
               "basic: straight-line; cf: plus control flow;\n"
               "full: everything (default)",
               {{"basic", &fuzz::FuzzConfig::basic},
                {"cf", &fuzz::FuzzConfig::withControlFlow},
                {"full", &fuzz::FuzzConfig::full}},
               opts.profile);
    core::addBoundFlag(cli, co.oracle.bound);
    cli.text("out-dir", "DIR", "write shrunken .litmus repros here",
             co.outDir);
    cli.choice("inject",
               "run the z3 oracle at bound k-1: a deliberate\n"
               "fault to exercise shrinking",
               {{"bound-gap", true}}, injectBoundGap);
    cli.flag("session-reuse",
             "also cross-check every case's shared builtin and\n"
             "z3 sessions against one fresh session per\n"
             "property",
             co.oracle.sessionReuse);
    cli.flag("clause-sharing",
             "also cross-check the builtin backend with\n"
             "cube-scope clause sharing against the\n"
             "sharing-off baseline",
             co.oracle.clauseSharing);
    cli.flag("no-shrink", "report disagreements without shrinking",
             noShrink);
    cli.integer("max-shrinks", "N",
                "disagreeing cases to shrink (default: 3)",
                co.maxShrinks, 0, 1000);
    cli.integer("shrink-attempts", "N",
                "predicate budget per shrink (default: 400)",
                co.shrinkAttempts, 1, 100000);
    core::addTimeoutFlag(cli, co.oracle.solverTimeoutMs);
    cli.flag("verify-determinism",
             "run every campaign twice (1 worker vs --jobs)\n"
             "and fail unless the logs are identical",
             opts.verifyDeterminism);
    cli.traceOutputs();
    cli.parse(argc, argv);
    co.shrink = !noShrink;
    if (injectBoundGap) {
        if (co.oracle.bound < 2) {
            std::cerr << "gpumc-fuzz: --inject=bound-gap needs --bound>=2\n";
            std::exit(2);
        }
        co.oracle.z3Bound = co.oracle.bound - 1;
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Parser cli("gpumc-fuzz", {});
    CliOptions opts = parseArgs(cli, argc, argv);

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
    if (opts.arches & kPtx)
        targets.push_back({prog::Arch::Ptx, &ptx75, "ptx-v7.5"});
    if (opts.arches & kVulkan)
        targets.push_back({prog::Arch::Vulkan, &vulkan, "vulkan"});

    bool clean = true;
    bool deterministic = true;
    for (const Target &target : targets) {
        fuzz::CampaignOptions co = opts.campaign;
        co.config = opts.profile(target.arch);
        co.model = target.model;
        co.modelName = target.name;
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
    return cli.finish(clean && deterministic ? 0 : 1);
}
