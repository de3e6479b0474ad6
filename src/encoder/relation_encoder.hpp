/**
 * @file
 * SMT encoding of derived `.cat` relations and axioms over the sparse
 * upper bounds from the relation analysis (Sections 6.2/6.3).
 *
 * Each (expression, event-pair) gets a literal:
 *  - pairs outside the upper bound are the constant false;
 *  - pairs inside the lower bound reduce to exec(a) & exec(b);
 *  - other pairs get their definitional formula (union = or, ...).
 *
 * A transitive closure gets one variable per pair of its upper bound.
 * Completeness clauses (a child step plus a closure suffix implies the
 * pair) make it at least the least fix-point. That is exact wherever
 * the solver wants the closure false, as inside a consistency axiom.
 * A closure it could want true (cat::PolarityWalk reaches it at Pos,
 * e.g. under the right of a `\` in a consistency axiom or inside a
 * flag) also gets soundness: each pair carries a well-foundedness
 * index and holds only through a step whose suffix has a smaller
 * index, so no cyclic justification can occur.
 */

#ifndef GPUMC_ENCODER_RELATION_ENCODER_HPP
#define GPUMC_ENCODER_RELATION_ENCODER_HPP

#include <unordered_map>

#include "cat/polarity.hpp"
#include "encoder/program_encoder.hpp"

namespace gpumc::encoder {

/** One flagged (`flag ~empty`) axiom's encoded violation condition. */
struct FlagViolation {
    const cat::Axiom *axiom = nullptr;
    smt::Lit lit;                  // true iff the flagged set is non-empty
    std::vector<std::pair<cat::EventPair, smt::Lit>> pairLits;
};

class RelationEncoder {
  public:
    RelationEncoder(analysis::RelationAnalysis &ra, ProgramEncoder &pe);

    /** Literal for "pair (a,b) is in relation @p expr". */
    smt::Lit encode(const cat::Expr &expr, int a, int b);

    /** Assert all non-flag axioms of the model. */
    void assertAxioms();

    /** Build violation literals for all `flag ~empty` axioms. */
    std::vector<FlagViolation> encodeFlags();

  private:
    /** Per-closure-node static data, built on first use. */
    struct ClosureInfo {
        cat::PairSet closUb;                      // tc of the child ub
        std::unordered_map<int, std::vector<int>> childSucc;
        int idxBits = 4;
    };

    smt::Lit encodeBase(const std::string &name, int a, int b);
    smt::Lit encodeSeq(const cat::Expr &expr, int a, int b);
    smt::Lit encodeClosure(const cat::Expr &expr, int a, int b);
    smt::Lit closureLit(ClosureInfo &info, const cat::Expr &expr, int a,
                        int b);
    /**
     * `acyclic expr`: a self-loop of the upper bound is asserted false,
     * and the other pairs whose literal is not constant false go to
     * smt::Backend::addAcyclic as edges. The builtin backend enforces
     * them with a cycle-detecting propagator in its SAT solver; where
     * the backend declines (Z3), each event gets a bit-vector clock and
     * every pair implies an unsigned less-than of its two clocks.
     */
    void assertAcyclic(const cat::Expr &expr);

    /**
     * Does a satisfying assignment possibly *benefit* from @p expr
     * being spuriously true? polarity_ walks every consistency axiom
     * from Neg and every flag from Pos, so exactly those nodes are
     * reached at Pos (e.g. under a difference inside a consistency
     * axiom). A closure reached only at Neg is encoded with the
     * completeness direction alone — the solver already prefers the
     * least fix-point there. A closure reached at Pos needs the
     * decreasing-index justification.
     */
    bool needsSoundness(const cat::Expr &expr) const
    {
        cat::Polarity p = polarity_.of(expr);
        return pe_.options().forceClosureSoundness ||
               p == cat::Polarity::Pos || p == cat::Polarity::Both;
    }

    /** Successor adjacency of an upper bound, cached per expression. */
    const std::unordered_map<int, std::vector<int>> &
    successors(const cat::Expr &expr);

    struct PairKey {
        const void *node;
        uint64_t pair;
        bool operator==(const PairKey &o) const
        {
            return node == o.node && pair == o.pair;
        }
    };
    struct PairKeyHash {
        size_t operator()(const PairKey &k) const
        {
            return std::hash<const void *>()(k.node) ^
                   std::hash<uint64_t>()(k.pair * 0x9e3779b97f4a7c15ULL);
        }
    };

    analysis::RelationAnalysis &ra_;
    ProgramEncoder &pe_;
    smt::Circuit &c_;

    std::unordered_map<PairKey, smt::Lit, PairKeyHash> cache_;
    std::unordered_map<const cat::Expr *, ClosureInfo> closureInfo_;
    // Closure pair variables and their justification-index vectors.
    std::unordered_map<PairKey, smt::Lit, PairKeyHash> closurePairs_;
    std::unordered_map<PairKey, smt::BitVec, PairKeyHash> closureIdx_;
    std::unordered_map<const cat::Expr *,
                       std::unordered_map<int, std::vector<int>>>
        succCache_;
    cat::PolarityWalk polarity_;

    // Tracing-only: the outermost named relation currently being
    // encoded, and the backend var/clause counts when it started —
    // encode() charges the deltas to `rel.<name>.{vars,clauses}`.
    const std::string *activeRel_ = nullptr;
    int64_t activeRelVarsBase_ = 0;
    int64_t activeRelClausesBase_ = 0;
};

} // namespace gpumc::encoder

#endif // GPUMC_ENCODER_RELATION_ENCODER_HPP
