/**
 * @file
 * Concrete fix-point evaluation of a `.cat` model over a materialized
 * execution (all events executed, base relations fully known). This is
 * the semantic ground truth used by the explicit-state baseline, the
 * DPOR engine and for cross-checking SMT witnesses.
 */

#ifndef GPUMC_CAT_EVALUATOR_HPP
#define GPUMC_CAT_EVALUATOR_HPP

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "cat/pair_set.hpp"

namespace gpumc::cat {

/**
 * Read-only view of one concrete execution: the executed events (ids
 * 0..numEvents-1), their tag membership, and the base relations.
 */
class ExecutionView {
  public:
    virtual ~ExecutionView() = default;

    virtual int numEvents() const = 0;

    /** Does @p event carry base tag @p tag? (`_` matches everything.) */
    virtual bool inSet(int event, const std::string &tag) const = 0;

    /** Concrete pairs of the base relation @p name. */
    virtual const PairSet &baseRel(const std::string &name) const = 0;
};

/** Outcome of checking one axiom. */
struct AxiomCheck {
    const Axiom *axiom = nullptr;
    bool holds = true;
    /** For FlagNonEmpty axioms: the offending (flagged) pairs. */
    PairSet flagged;
};

/**
 * Evaluates a model over one ExecutionView. Relation lets are memoized
 * until invalidated, and every set expression is evaluated once for
 * the evaluator's lifetime: sets depend only on event tags (no `.cat`
 * operator turns a relation into a set), and the view's events and
 * tags must never change. An engine that checks many graphs over the
 * same events keeps one evaluator, changes a base relation in the view
 * between evaluations and calls invalidate() with its name: only the
 * lets that read it are evaluated again.
 */
class RelationEvaluator {
  public:
    RelationEvaluator(const CatModel &model, const ExecutionView &exec);

    /** Evaluate any relation-typed expression to its concrete pairs. */
    PairSet evalRel(const Expr &e);

    /** Evaluate any set-typed expression to an event membership mask. */
    std::vector<bool> evalSet(const Expr &e);

    /** Evaluate the let binding at @p index (memoized). */
    const PairSet &letValue(int index);

    /** Does axiom @p ax hold (for a flag: is its relation empty)? */
    bool holds(const Axiom &ax);

    /**
     * Check all non-flag axioms; returns true when the execution is
     * consistent with the model.
     */
    bool consistent();

    /**
     * Evaluate all `flag ~empty` axioms; the returned checks carry the
     * offending pairs (e.g. racy accesses for the Vulkan DRF flag).
     */
    std::vector<AxiomCheck> evalFlags();

    /**
     * Drop the memoized lets that read base relation @p name, directly
     * or through other lets. Call it between evaluations, after the
     * view's @p name changed; references letValue() returned for the
     * dropped lets dangle.
     */
    void invalidate(const std::string &name);

  private:
    /** @p e's value: a memoized let or a base relation by reference,
     *  anything else computed into @p scratch. */
    const PairSet &relRef(const Expr &e, PairSet &scratch);
    /** Set expression @p e's membership mask, memoized. */
    const std::vector<bool> &setRef(const Expr &e);

    const CatModel &model_;
    const ExecutionView &exec_;
    std::vector<int> allEvents_;
    /** Base relation -> the lets that read it, directly or not. */
    std::map<std::string, std::vector<int>> readers_;
    std::vector<std::optional<PairSet>> letRel_;
    /** Set masks by node id. */
    std::vector<std::optional<std::vector<bool>>> sets_;
};

} // namespace gpumc::cat

#endif // GPUMC_CAT_EVALUATOR_HPP
