/**
 * @file
 * Fuzz campaign driver: generates a deterministic stream of random
 * programs, fans every engine run of every oracle out across worker
 * threads through one core::BatchVerifier run (only session-reuse's
 * fresh Verifiers run beside it), cross-checks the verdicts, and
 * auto-shrinks any disagreeing case into a minimal `.litmus` repro
 * file whose header holds the gpumc command line of each side.
 *
 * Determinism: for a fixed seed the verdict log is byte-identical for
 * any worker count — programs are generated sequentially from per-case
 * SplitMix64 seeds, batch results land in input order, and the log
 * carries no timing data.
 */

#ifndef GPUMC_FUZZ_CAMPAIGN_HPP
#define GPUMC_FUZZ_CAMPAIGN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/random_program.hpp"

namespace gpumc::fuzz {

struct CampaignOptions {
    FuzzConfig config;
    /** Model to check against; must outlive runCampaign(). */
    const cat::CatModel *model = nullptr;
    /** Display name of the model for the log / repro headers. */
    std::string modelName;

    uint64_t seed = 1;
    int runs = 50;
    /** Worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;

    OracleOptions oracle;

    /** Auto-shrink disagreeing cases and (if outDir is set) write
     *  `.litmus` repro files. */
    bool shrink = true;
    int maxShrinks = 3;
    int shrinkAttempts = 400;
    std::string outDir;
};

struct CampaignCase {
    uint64_t caseSeed = 0;
    OracleReport report;
};

struct ShrinkRecord {
    size_t caseIndex = 0;
    OracleKind oracle = OracleKind::Z3VsBuiltin;
    int initialSize = 0;
    int finalSize = 0;
    /** Path of the written repro, empty when outDir was not set. */
    std::string reproPath;
    /** The repro text reparsed and re-checked: still disagreeing. */
    bool confirmed = false;
};

struct CampaignResult {
    std::vector<CampaignCase> cases;
    std::vector<ShrinkRecord> shrinks;

    int oracleChecks = 0;
    int agreements = 0;
    int skips = 0;
    int disagreements = 0;
    /** Skips caused by an engine error (subset of `skips`). */
    int errors = 0;

    /** Deterministic verdict log (identical across worker counts). */
    std::string log;

    bool clean() const { return disagreements == 0 && errors == 0; }
};

CampaignResult runCampaign(const CampaignOptions &options);

} // namespace gpumc::fuzz

#endif // GPUMC_FUZZ_CAMPAIGN_HPP
