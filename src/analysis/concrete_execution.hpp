/**
 * @file
 * Machinery for evaluating `.cat` models over *concrete* executions, as
 * the DPOR exploration in `src/dpor` does (pruned, or exhaustively as
 * the explicit baseline) and as SMT witness replay does
 * (core::witnessConsistent): an ExecutionView backed by materialized
 * base relations over the executed events, the evaluator context an
 * exploration keeps over it, the straight-line value simulator that
 * resolves register/memory values under one rf assignment, and the
 * static and barrier base relations derived from RelationAnalysis
 * bounds.
 */

#ifndef GPUMC_ANALYSIS_CONCRETE_EXECUTION_HPP
#define GPUMC_ANALYSIS_CONCRETE_EXECUTION_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/relation_analysis.hpp"
#include "cat/evaluator.hpp"
#include "cat/pair_set.hpp"
#include "program/program.hpp"
#include "program/unroller.hpp"

namespace gpumc::analysis {

/**
 * The base relations an execution chooses. Every other base relation
 * of the vocabulary is static: the program fixes it.
 */
inline const std::vector<std::string> kChosenRels = {
    "rf", "co", "sync_fence", "syncbar", "sync_barrier"};

/** The ids of every event of @p up, for a behaviour executing all. */
std::vector<int> everyEvent(const prog::UnrolledProgram &up);

/**
 * ExecutionView over one concrete (possibly partial) behaviour. View
 * event i is the executed event with original id events[i], and base
 * relations are materialized PairSets over view ids. ConcreteContext
 * replaces them between checks through rel().
 */
class ConcreteView : public cat::ExecutionView {
  public:
    ConcreteView(const prog::UnrolledProgram &up, std::vector<int> events,
                 std::map<std::string, cat::PairSet> rels)
        : up_(&up), events_(std::move(events)), rels_(std::move(rels))
    {
    }

    int numEvents() const override
    {
        return static_cast<int>(events_.size());
    }

    bool inSet(int event, const std::string &tag) const override
    {
        return prog::eventHasTag(up_->events[events_[event]], tag);
    }

    const cat::PairSet &baseRel(const std::string &name) const override;

    /** Mutable access; the evaluators reading this view must be told
     *  (RelationEvaluator::invalidate) about every change. */
    cat::PairSet &rel(const std::string &name) { return rels_[name]; }

  private:
    const prog::UnrolledProgram *up_;
    std::vector<int> events_;
    std::map<std::string, cat::PairSet> rels_;
};

/**
 * A ConcreteView and one RelationEvaluator over it, kept for a whole
 * exploration. The events and tags never change; set() replaces one
 * base relation and drops the memoized lets that read it, so a
 * consistency check re-evaluates only what its changed relations feed.
 */
class ConcreteContext {
  public:
    ConcreteContext(const prog::UnrolledProgram &up,
                    std::vector<int> events, const cat::CatModel &model,
                    std::map<std::string, cat::PairSet> rels)
        : view_(up, std::move(events), std::move(rels)),
          evaluator_(model, view_)
    {
    }
    ConcreteContext(const ConcreteContext &) = delete;
    ConcreteContext &operator=(const ConcreteContext &) = delete;

    /** Replace base relation @p name by @p value (no-op when equal). */
    void set(const std::string &name, cat::PairSet value);

    cat::RelationEvaluator &evaluator() { return evaluator_; }

  private:
    ConcreteView view_;
    cat::RelationEvaluator evaluator_;
};

/** Does a final-state condition mention memory-valued terms? */
bool condUsesMemory(const prog::Cond &cond);

/**
 * Why the enumerative engines cannot check @p program, or "" when they
 * can. They handle straight-line programs without CAS, and under PTX
 * partial coherence only conditions over registers.
 */
std::string enumerationUnsupportedReason(const prog::Program &program);

/**
 * The quantified condition over all consistent behaviours, given
 * whether some behaviour satisfied and some falsified it.
 */
bool quantifiedConditionHolds(prog::AssertKind kind, bool trueSomewhere,
                              bool falseSomewhere);

/**
 * Value simulation of a straight-line unrolled program under one rf
 * assignment: fix-point register propagation, enumeration of
 * value-dependency cycles over the program's value universe, and
 * rf value-consistency validation. Values are plain integers; the SMT
 * encoding sizes its bit-vectors from the same universe
 * (Program::suggestedValueBits).
 */
class ValueSimulation {
  public:
    ValueSimulation(const prog::Program &program,
                    const prog::UnrolledProgram &up)
        : program_(&program), up_(&up)
    {
    }

    /**
     * Simulate all threads with read event reads[i] taking its value
     * from write rfChoice[i]. Returns false when the assignment is
     * value-inconsistent (no resolution matches every rf edge).
     */
    bool simulate(const std::vector<int> &reads,
                  const std::vector<int> &rfChoice);

    /** Barrier event id -> runtime barrier id. */
    const std::map<int, int64_t> &barrierIds() const
    {
        return barrierIds_;
    }

    /**
     * Evaluate one final-state condition term. Mem terms read the
     * co-maximal executed write of the location under @p co.
     */
    int64_t evalTerm(const prog::CondTerm &term,
                     const cat::PairSet &co) const;

  private:
    bool enumerateUnresolved(const std::vector<int> &unresolved,
                             size_t index);
    bool finishSimulation();
    void simulatePass(bool &changed);

    const prog::Program *program_;
    const prog::UnrolledProgram *up_;
    const std::vector<int> *reads_ = nullptr;
    const std::vector<int> *rfChoice_ = nullptr;

    std::map<int, int64_t> values_;
    std::map<int, int64_t> barrierIds_;
    /** (thread index, register) -> final value. */
    std::map<std::pair<int, std::string>, int64_t> finalRegs_;
};

/**
 * The base relations of a behaviour executing @p events (original ids,
 * ascending) before any choice: the analysis upper bounds of the static
 * relations restricted to @p events and renumbered to view ids, and
 * every relation of kChosenRels empty. Given every event, the bounds
 * come out pair for pair.
 */
std::map<std::string, cat::PairSet>
concreteStaticRels(RelationAnalysis &ra, const std::vector<int> &events);

/**
 * syncbar and sync_barrier once barrier ids are known: their analysis
 * upper bounds restricted to @p events, renumbered to view ids and
 * filtered down to pairs with equal runtime ids. @p barrierIds maps an
 * original event id to its runtime barrier id.
 */
std::map<std::string, cat::PairSet>
concreteBarrierRels(RelationAnalysis &ra, const std::vector<int> &events,
                    const std::map<int, int64_t> &barrierIds);

/** Non-init write events per physical location. */
std::map<int, std::vector<int>>
concreteWritesPerLoc(const prog::UnrolledProgram &up);

/** init-write -> same-location non-init write edges (always in co). */
cat::PairSet concreteInitCoEdges(const prog::UnrolledProgram &up);

} // namespace gpumc::analysis

#endif // GPUMC_ANALYSIS_CONCRETE_EXECUTION_HPP
