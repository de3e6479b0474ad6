/**
 * @file
 * DPOR-style stateless model checking engine — the repo's third
 * verification engine next to SMT (`src/smt` + `src/encoder`) and the
 * enumerate-everything explicit baseline (`src/explicit`), after the
 * GPUMC approach (PAPERS.md, arXiv 2505.20207).
 *
 * Instead of materializing every rf / coherence / SC-fence assignment
 * up front, the engine grows one execution graph incrementally:
 *
 *  - Reads are added first; each branches over its rf sources from the
 *    relation analysis upper bound. po-later writes are legal sources
 *    ("promised" edges — the duplicate-free form of GenMC revisits for
 *    straight-line programs, whose event set is execution-independent).
 *  - Writes are then inserted into the coherence order one at a time
 *    (total order per location under Vulkan, three-way per-pair
 *    choices with incremental antisymmetry/canonicity under PTX), and
 *    PTX SC fences into the sync_fence order (deduplicated).
 *
 * After every decision the partial graph is checked against the subset
 * of model axioms that are *monotone* in the still-undecided relations
 * (see monotone.hpp): a violation on the partial graph persists in all
 * completions, so the whole subtree is pruned. Complete graphs are
 * checked exactly through the same cat::RelationEvaluator the explicit
 * baseline uses, so PTX and Vulkan models are supported uniformly, and
 * once enough behaviours have been seen to settle the quantified
 * condition and the race flags the exploration stops early.
 *
 * Support envelope and verdicts are those of `src/explicit`: both
 * engines share analysis::enumerationUnsupportedReason and
 * analysis::EnumerationResult.
 */

#ifndef GPUMC_DPOR_DPOR_CHECKER_HPP
#define GPUMC_DPOR_DPOR_CHECKER_HPP

#include <cstdint>

#include "analysis/concrete_execution.hpp"
#include "cat/model.hpp"
#include "program/program.hpp"
#include "support/stats.hpp"

namespace gpumc::dpor {

struct DporOptions {
    /** Abort after this many complete graphs evaluated (0 = no
     *  limit). The result is then marked timedOut. */
    uint64_t maxCandidates = 0;
    /** Wall-clock budget in milliseconds (0 = no limit). */
    double timeoutMs = 0.0;
    /** External deadline, honored inside the exploration loop in
     *  addition to timeoutMs (default: unlimited). */
    Deadline deadline;
};

/** The explicit baseline's verdict (analysis::EnumerationResult), with
 *  the exploration counters on top. candidatesExplored is strictly
 *  below the explicit baseline's whenever pruning or early stopping
 *  fires, and consistentBehaviours counts the behaviours *seen*, a
 *  lower bound: subtrees are cut as soon as the verdict is settled. */
struct DporResult : analysis::EnumerationResult {
    // --- exploration counters (also exported as dpor.* trace
    // counters) -----------------------------------------------------
    uint64_t rfBranches = 0;        ///< rf source choices tried
    uint64_t prunedRfPrefixes = 0;  ///< rf prefixes cut by partial axioms
    uint64_t prunedCoBranches = 0;  ///< co insertions cut by partial axioms
    uint64_t prunedSubtrees = 0;    ///< (rf,sf) subtrees cut at the root
    uint64_t prunedByFilter = 0;    ///< rf subtrees cut by the filter
    uint64_t sfDeduped = 0;         ///< duplicate sync-fence sets skipped
    uint64_t earlyStops = 0;        ///< subtrees stopped after a leaf
    uint64_t consistencyChecks = 0; ///< evaluator runs (partial + full)
};

class DporChecker {
  public:
    DporChecker(const prog::Program &program, const cat::CatModel &model,
                DporOptions options = {});
    ~DporChecker();

    /** Explore once; the result answers safety and DRF. */
    DporResult run();

  private:
    struct Impl;
    Impl *impl_;
};

} // namespace gpumc::dpor

#endif // GPUMC_DPOR_DPOR_CHECKER_HPP
