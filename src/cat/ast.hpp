/**
 * @file
 * AST for the `.cat` consistency-model language.
 *
 * Expressions are typed as SET (of events) or REL (of event pairs); the
 * parser builds an untyped tree and the semantic pass in model.cpp
 * assigns types.
 */

#ifndef GPUMC_CAT_AST_HPP
#define GPUMC_CAT_AST_HPP

#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace gpumc::cat {

enum class ExprType { Unknown, Set, Rel };

enum class ExprKind {
    Name,        // identifier (base tag / base relation / let binding / `_`)
    Union,       // a | b
    Inter,       // a & b
    Diff,        // a \ b
    Seq,         // a ; b           (REL only)
    Cartesian,   // A * B           (SET operands, REL result)
    Inverse,     // a^-1            (REL only)
    TransClosure,      // a+        (REL only)
    ReflTransClosure,  // a*        (REL only)
    Optional,    // a?  == a | id   (REL only)
    Bracket,     // [A]  identity relation restricted to set A
};

/** How a Name expression was resolved by the semantic pass. */
enum class NameRes { Unresolved, BaseSet, BaseRel, LetRef };

struct Expr {
    ExprKind kind;
    ExprType type = ExprType::Unknown;
    std::string name;            // for Name
    std::unique_ptr<Expr> lhs;   // first child
    std::unique_ptr<Expr> rhs;   // second child (binary ops)
    SourceLoc loc;

    // Filled in by CatModel's semantic pass for Name nodes.
    NameRes resolution = NameRes::Unresolved;
    int letIndex = -1; // valid when resolution == LetRef

    /**
     * Dense node number, 0..CatModel::numNodes()-1, set by CatModel for
     * every node of every let and axiom (set nodes included). Per-model
     * memos are vectors indexed by it.
     */
    int id = -1;

    Expr(ExprKind k, SourceLoc l) : kind(k), loc(l) {}
};

using ExprPtr = std::unique_ptr<Expr>;

enum class AxiomKind { Acyclic, Irreflexive, Empty, FlagNonEmpty };

struct Axiom {
    AxiomKind kind;
    ExprPtr expr;
    std::string name; // optional ("as" name); mandatory for flags
    SourceLoc loc;
};

struct LetBinding {
    std::string name;
    ExprPtr expr;
    SourceLoc loc;
};

/** Raw parse result; semantic checking happens in CatModel. */
struct ParsedModel {
    std::string modelName;
    std::vector<LetBinding> lets;
    std::vector<Axiom> axioms;
};

} // namespace gpumc::cat

#endif // GPUMC_CAT_AST_HPP
