/**
 * @file
 * Relation analysis (Sections 6.2 of the paper, Table 3): computes
 * lower and upper bounds for every base and derived relation of a
 * `.cat` model over the events of an unrolled program.
 *
 * Semantics of the bounds (conditional on execution):
 *  - ub(r): every pair that can be in r in *some* behaviour.
 *  - lb(r): pairs that are in r in every behaviour *where both events
 *    execute*; the encoder replaces such pairs by exec(a) & exec(b).
 *
 * Bounds and set masks are memoized in vectors indexed by `.cat` node
 * id (cat::Expr::id), sized once per analysis, so every reference
 * handed out stays valid for the analysis' lifetime. A name shares
 * what it names: a let reference returns its let's bounds or mask, a
 * base relation `baseBounds(name)`, and every occurrence of a base set
 * one mask computed once per name.
 */

#ifndef GPUMC_ANALYSIS_RELATION_ANALYSIS_HPP
#define GPUMC_ANALYSIS_RELATION_ANALYSIS_HPP

#include <map>
#include <string>
#include <vector>

#include "analysis/dependency_analysis.hpp"
#include "analysis/exec_analysis.hpp"
#include "cat/model.hpp"
#include "cat/pair_set.hpp"

namespace gpumc::analysis {

struct Bounds {
    cat::PairSet lb;
    cat::PairSet ub;
};

class RelationAnalysis {
  public:
    RelationAnalysis(const ExecAnalysis &exec, const cat::CatModel &model);

    const prog::UnrolledProgram &unrolled() const
    {
        return exec_.unrolled();
    }
    const ExecAnalysis &exec() const { return exec_; }
    const cat::CatModel &model() const { return *model_; }
    const Dependencies &dependencies() const { return deps_; }

    /** Bounds of a base relation by its `.cat` name. */
    const Bounds &baseBounds(const std::string &name);

    /** Bounds of any relation-typed expression (memoized). */
    const Bounds &boundsOf(const cat::Expr &expr);

    /** Static membership mask of any set-typed expression (memoized). */
    const std::vector<bool> &setOf(const cat::Expr &expr);

  private:
    Bounds computeBase(const std::string &name);
    Bounds computeDerived(const cat::Expr &expr);
    std::vector<bool> computeSet(const cat::Expr &expr);
    const std::vector<bool> &baseSet(const std::string &name);

    int numEvents() const { return exec_.unrolled().numEvents(); }

    const ExecAnalysis &exec_;
    const cat::CatModel *model_;
    Dependencies deps_;

    std::map<std::string, Bounds> baseCache_;
    std::map<std::string, std::vector<bool>> baseSets_;
    /** By node id: the node's bounds once known. A Name points at what
     *  it names; any other node at its own entry of derived_. */
    std::vector<const Bounds *> bounds_;
    std::vector<Bounds> derived_;
    /** By node id, likewise for set masks. */
    std::vector<const std::vector<bool> *> sets_;
    std::vector<std::vector<bool>> derivedSets_;
};

} // namespace gpumc::analysis

#endif // GPUMC_ANALYSIS_RELATION_ANALYSIS_HPP
