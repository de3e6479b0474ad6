#include "cat/model.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "cat/parser.hpp"
#include "support/hash.hpp"

namespace gpumc::cat {

namespace {

/**
 * Feed an expression tree into the field stream: node kind, the name
 * of Name leaves, then children depth-first with open/close tags so
 * differently-shaped trees cannot alias. Resolution fields are derived
 * from the same content and are deliberately not hashed.
 */
void
hashExpr(FieldHasher &h, const Expr *e)
{
    if (!e) {
        h.tag('0');
        return;
    }
    h.tag('(');
    h.u64(static_cast<uint64_t>(e->kind));
    h.str(e->name);
    hashExpr(h, e->lhs.get());
    hashExpr(h, e->rhs.get());
    h.tag(')');
}

void
hashModel(FieldHasher &h, const ParsedModel &parsed)
{
    h.str(parsed.modelName);
    h.u64(parsed.lets.size());
    for (const LetBinding &let : parsed.lets) {
        h.tag('l');
        h.str(let.name);
        hashExpr(h, let.expr.get());
    }
    h.u64(parsed.axioms.size());
    for (const Axiom &ax : parsed.axioms) {
        h.tag('a');
        h.u64(static_cast<uint64_t>(ax.kind));
        h.str(ax.name);
        hashExpr(h, ax.expr.get());
    }
}

} // namespace

CatModel::CatModel(ParsedModel parsed, const Vocabulary &vocab)
    : parsed_(std::move(parsed)), vocab_(&vocab)
{
    resolveAndCheck();
    for (LetBinding &let : parsed_.lets)
        numberNodes(*let.expr);
    for (Axiom &ax : parsed_.axioms)
        numberNodes(*ax.expr);
    computeFingerprint();
}

void
CatModel::numberNodes(Expr &e)
{
    e.id = numNodes_++;
    if (e.lhs)
        numberNodes(*e.lhs);
    if (e.rhs)
        numberNodes(*e.rhs);
}

void
CatModel::computeFingerprint()
{
    // Two independent passes, like prog::Program::fingerprint: a
    // collision would silently reuse a stale session built for a
    // *different* model, so 64 bits alone is not comfortable enough.
    FieldHasher a(FieldHasher::kBasisA);
    FieldHasher b(FieldHasher::kBasisB);
    hashModel(a, parsed_);
    hashModel(b, parsed_);
    fingerprint_ = {a.value(), b.value()};
}

std::string
ModelFingerprint::str() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

CatModel
CatModel::fromSource(std::string_view source, const Vocabulary &vocab)
{
    return CatModel(parseCat(source), vocab);
}

CatModel
CatModel::fromFile(const std::string &path, const Vocabulary &vocab)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open .cat model file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromSource(buf.str(), vocab);
}

bool
CatModel::hasFlaggedAxioms() const
{
    for (const Axiom &ax : parsed_.axioms) {
        if (ax.kind == AxiomKind::FlagNonEmpty)
            return true;
    }
    return false;
}

void
CatModel::resolveAndCheck()
{
    // Bindings are visible from the binding *after* them onward, so a
    // later `let co = co+` can shadow the base relation while its RHS
    // still refers to the base (paper Fig. 4, line 5).
    for (size_t i = 0; i < parsed_.lets.size(); ++i)
        resolveExpr(*parsed_.lets[i].expr, static_cast<int>(i));
    for (Axiom &ax : parsed_.axioms) {
        resolveExpr(*ax.expr, static_cast<int>(parsed_.lets.size()));
        if (ax.expr->type != ExprType::Rel) {
            fatalAt(ax.loc, "axiom expression must be a relation");
        }
    }
}

void
CatModel::resolveExpr(Expr &e, int numVisibleLets)
{
    auto requireType = [](const Expr &child, ExprType want,
                          const char *what) {
        if (child.type != want) {
            fatalAt(child.loc, what, " expects a ",
                    want == ExprType::Set ? "set" : "relation",
                    " operand");
        }
    };

    switch (e.kind) {
      case ExprKind::Name: {
        // Most recent visible let wins; fall back to base names.
        for (int i = numVisibleLets - 1; i >= 0; --i) {
            if (parsed_.lets[i].name == e.name) {
                e.resolution = NameRes::LetRef;
                e.letIndex = i;
                e.type = parsed_.lets[i].expr->type;
                return;
            }
        }
        if (vocab_->isBaseSet(e.name)) {
            e.resolution = NameRes::BaseSet;
            e.type = ExprType::Set;
            return;
        }
        if (vocab_->isBaseRel(e.name)) {
            e.resolution = NameRes::BaseRel;
            e.type = ExprType::Rel;
            return;
        }
        fatalAt(e.loc, "unknown name '", e.name, "' in .cat model");
      }
      case ExprKind::Union:
      case ExprKind::Inter:
      case ExprKind::Diff: {
        resolveExpr(*e.lhs, numVisibleLets);
        resolveExpr(*e.rhs, numVisibleLets);
        if (e.lhs->type != e.rhs->type) {
            fatalAt(e.loc,
                    "set/relation mismatch between operands of '",
                    e.kind == ExprKind::Union ? "|"
                    : e.kind == ExprKind::Inter ? "&" : "\\",
                    "'");
        }
        e.type = e.lhs->type;
        return;
      }
      case ExprKind::Seq: {
        resolveExpr(*e.lhs, numVisibleLets);
        resolveExpr(*e.rhs, numVisibleLets);
        requireType(*e.lhs, ExprType::Rel, "';'");
        requireType(*e.rhs, ExprType::Rel, "';'");
        e.type = ExprType::Rel;
        return;
      }
      case ExprKind::Cartesian: {
        resolveExpr(*e.lhs, numVisibleLets);
        resolveExpr(*e.rhs, numVisibleLets);
        requireType(*e.lhs, ExprType::Set, "'*'");
        requireType(*e.rhs, ExprType::Set, "'*'");
        e.type = ExprType::Rel;
        return;
      }
      case ExprKind::Inverse:
      case ExprKind::TransClosure:
      case ExprKind::ReflTransClosure:
      case ExprKind::Optional: {
        resolveExpr(*e.lhs, numVisibleLets);
        requireType(*e.lhs, ExprType::Rel, "postfix operator");
        e.type = ExprType::Rel;
        return;
      }
      case ExprKind::Bracket: {
        resolveExpr(*e.lhs, numVisibleLets);
        requireType(*e.lhs, ExprType::Set, "'[...]'");
        e.type = ExprType::Rel;
        return;
      }
    }
    GPUMC_PANIC("unhandled expression kind");
}

} // namespace gpumc::cat
