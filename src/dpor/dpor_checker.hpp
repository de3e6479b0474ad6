/**
 * @file
 * DPOR-style stateless model checking engine — the repo's enumerative
 * engine next to SMT (`src/smt` + `src/encoder`), after the GPUMC
 * approach (PAPERS.md, arXiv 2505.20207). With nothing pruned
 * (DporOptions::exhaustive) it is also the Alloy-style explicit
 * baseline of the paper's Table 5 and Fig. 15 (`--engine=explicit`).
 *
 * Instead of materializing every rf / coherence / SC-fence assignment
 * up front, the engine grows one execution graph incrementally:
 *
 *  - Reads are added first; each branches over its rf sources from the
 *    relation analysis upper bound. po-later writes are legal sources
 *    ("promised" edges — the duplicate-free form of GenMC revisits for
 *    straight-line programs, whose event set is execution-independent).
 *  - PTX SC fences are then ordered into sync_fence (deduplicated), and
 *    writes are inserted into the coherence order one at a time (total
 *    order per location under Vulkan, three-way per-pair choices with
 *    incremental antisymmetry/canonicity under PTX).
 *
 * After every decision the partial graph is checked against the subset
 * of model axioms that are *monotone* in the still-undecided relations
 * (see AxiomPolarity): a violation on the partial graph persists in all
 * completions, so the whole subtree is pruned. Complete graphs are
 * checked exactly through cat::RelationEvaluator, so PTX and Vulkan
 * models are supported uniformly, and once enough behaviours have been
 * seen to settle the quantified condition and the race flags the
 * exploration stops early.
 *
 * The engine handles the fragment analysis::enumerationUnsupportedReason
 * accepts: straight-line programs without CAS.
 */

#ifndef GPUMC_DPOR_DPOR_CHECKER_HPP
#define GPUMC_DPOR_DPOR_CHECKER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "cat/polarity.hpp"
#include "program/program.hpp"

namespace gpumc::dpor {

struct DporOptions {
    /** Abort after this many complete graphs evaluated (0 = no
     *  limit). The result is then marked timedOut. */
    uint64_t maxCandidates = 0;
    /** Wall-clock budget in milliseconds (0 = no limit). */
    double timeoutMs = 0.0;
    /** Walk every candidate: no partial-graph check, no filter pruning,
     *  no early stop, and no dpor.* trace counters. This is the
     *  explicit baseline (core::Engine::Explicit). */
    bool exhaustive = false;
};

/**
 * What one exploration reports. It answers safety and DRF at once.
 * When pruning or early stopping fires, candidatesExplored is below the
 * exhaustive run's, and consistentBehaviours counts the behaviours
 * *seen*, a lower bound: subtrees are cut as soon as the verdict is
 * settled.
 */
struct DporResult {
    /** False when the test uses features the engine cannot handle
     *  (see analysis::enumerationUnsupportedReason). */
    bool supported = true;
    std::string unsupportedReason;

    /** The candidate cap or the wall-clock budget ran out. */
    bool timedOut = false;

    /** Same semantics as Verifier safety: the quantified litmus
     *  statement evaluated over all consistent behaviours. */
    bool conditionHolds = false;

    /** A consistent behaviour with a flagged (racy) pair exists. */
    bool raceFound = false;

    /** Complete executions evaluated. */
    uint64_t candidatesExplored = 0;
    uint64_t consistentBehaviours = 0;
    double timeMs = 0.0;

    // --- exploration counters (also exported as dpor.* trace
    // counters unless exhaustive) ------------------------------------
    uint64_t rfBranches = 0;        ///< rf source choices tried
    uint64_t prunedRfPrefixes = 0;  ///< rf prefixes cut by partial axioms
    uint64_t prunedCoBranches = 0;  ///< co insertions cut by partial axioms
    uint64_t prunedSubtrees = 0;    ///< (rf,sf) subtrees cut at the root
    uint64_t prunedByFilter = 0;    ///< rf subtrees cut by the filter
    uint64_t sfDeduped = 0;         ///< duplicate sync-fence sets skipped
    uint64_t earlyStops = 0;        ///< subtrees stopped after a leaf
    uint64_t consistencyChecks = 0; ///< evaluator runs (partial + full)
};

/**
 * The soundness core of partial-graph pruning. While the exploration
 * grows an execution graph one decision at a time, every still-
 * undecided base relation is only *under*-approximated: the edges
 * decided so far are a subset of the edges of any complete extension.
 * An axiom `empty e` / `irreflexive e` / `acyclic e` can be checked
 * soundly on such a partial graph iff `e` is *monotone* in every
 * undecided base relation: then e(partial) ⊆ e(extension), so a
 * violation visible on the partial graph persists in every completion
 * and the whole subtree can be pruned. Monotonicity is syntactic: a
 * relation that a cat::PolarityWalk from `e` at Pos reaches only at Pos
 * (never under the right-hand side of `\`) is monotone.
 */
class AxiomPolarity {
  public:
    AxiomPolarity(const cat::CatModel &model, const cat::Axiom &axiom);

    /** How base relation @p rel occurs in the axiom's expression. */
    cat::Polarity of(const std::string &rel) const
    {
        return walk_.ofBase(rel);
    }

    /**
     * Can a violation already be trusted on a partial graph where every
     * relation in @p undecided is a subset of its final value? True iff
     * each of them occurs at Pos or not at all. Flags never prune.
     */
    bool prunableWithPartial(const std::vector<std::string> &undecided)
        const
    {
        return axiom_->kind != cat::AxiomKind::FlagNonEmpty &&
               occursAtMost(undecided, cat::Polarity::Pos);
    }

    /** Does the axiom's value ignore every relation in @p undecided? */
    bool constantIn(const std::vector<std::string> &undecided) const
    {
        return occursAtMost(undecided, cat::Polarity::None);
    }

  private:
    bool occursAtMost(const std::vector<std::string> &rels,
                      cat::Polarity at) const;

    const cat::Axiom *axiom_;
    cat::PolarityWalk walk_;
};

class DporChecker {
  public:
    DporChecker(const prog::Program &program, const cat::CatModel &model,
                DporOptions options = {});
    ~DporChecker();
    DporChecker(const DporChecker &) = delete;
    DporChecker &operator=(const DporChecker &) = delete;

    /** Explore once; the result answers safety and DRF. */
    DporResult run();

  private:
    struct Impl;
    Impl *impl_;
};

} // namespace gpumc::dpor

#endif // GPUMC_DPOR_DPOR_CHECKER_HPP
