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
 *
 * Memos are keyed by `.cat` node id (cat::Expr::id): the literal of
 * (node, a, b) and a closure's pair variables in one FlatMap each,
 * per-node closure data and successor lists in vectors indexed by id.
 * A successor list is a compressed row per source, in the upper
 * bound's pair order, because gates are created in that order. Where
 * the analysis shares bounds (a name and what it names), the encoder
 * still keys each node on its own.
 */

#ifndef GPUMC_ENCODER_RELATION_ENCODER_HPP
#define GPUMC_ENCODER_RELATION_ENCODER_HPP

#include <optional>
#include <span>

#include "cat/polarity.hpp"
#include "encoder/program_encoder.hpp"
#include "support/flat_map.hpp"

namespace gpumc::encoder {

/** One flagged (`flag ~empty`) axiom's encoded violation condition. */
struct FlagViolation {
    const cat::Axiom *axiom = nullptr;
    smt::Lit lit;                  // true iff the flagged set is non-empty
    std::vector<std::pair<cat::EventPair, smt::Lit>> pairLits;
};

class RelationEncoder {
  public:
    /** Limits of the node ids and event ids a memo key can hold. */
    static constexpr int kMaxNodes = 1 << 19;
    static constexpr int kMaxEvents = 1 << 22;

    /**
     * (node id, a, b) packed into one memo key, 19 + 22 + 22 bits: the
     * top bit stays clear, so no key is FlatMap's empty key.
     */
    static uint64_t pairKey(int node, int a, int b)
    {
        return static_cast<uint64_t>(node) << 44 |
               static_cast<uint64_t>(a) << 22 | static_cast<uint64_t>(b);
    }

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
        cat::PairSet closUb; // tc of the child ub
        int idxBits = 4;
    };

    /** A closure pair's variable, and its well-foundedness index in
     *  closureIdx_ (-1 where the closure needs no soundness). */
    struct ClosureVar {
        smt::Lit lit;
        int32_t idx;
    };

    /**
     * An upper bound's successor lists as compressed rows: source a's
     * targets, in the bound's pair order, are targets[start[a]] up to
     * targets[start[a + 1]].
     */
    struct Successors {
        std::vector<int> start;
        std::vector<int> targets;

        std::span<const int> of(int a) const
        {
            return {targets.data() + start[a],
                    targets.data() + start[a + 1]};
        }
    };

    smt::Lit encodeBase(const std::string &name, int a, int b);
    smt::Lit encodeSeq(const cat::Expr &expr, int a, int b);
    smt::Lit encodeClosure(const cat::Expr &expr, int a, int b);
    ClosureVar closureLit(const ClosureInfo &info, const cat::Expr &expr,
                          int a, int b);
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

    /** Successor lists of @p expr's upper bound, built once. */
    const Successors &successors(const cat::Expr &expr);

    analysis::RelationAnalysis &ra_;
    ProgramEncoder &pe_;
    smt::Circuit &c_;

    FlatMap<smt::Lit> cache_; // by pairKey
    // Closure pair variables (by pairKey of the closure node) and
    // their justification-index vectors.
    FlatMap<ClosureVar> closurePairs_;
    std::vector<smt::BitVec> closureIdx_;
    // By node id; never resized, so references survive recursion.
    std::vector<std::optional<ClosureInfo>> closureInfo_;
    std::vector<std::optional<Successors>> succCache_;
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
