#include "cat/evaluator.hpp"

#include <numeric>
#include <set>

namespace gpumc::cat {

namespace {

/** The base relations @p e reads, looking through let references. */
void
collectReads(const Expr &e,
             const std::vector<std::set<std::string>> &letReads,
             std::set<std::string> &out)
{
    if (e.kind == ExprKind::Name) {
        if (e.resolution == NameRes::LetRef) {
            const std::set<std::string> &viaLet = letReads[e.letIndex];
            out.insert(viaLet.begin(), viaLet.end());
        } else if (e.resolution == NameRes::BaseRel) {
            out.insert(e.name);
        }
        return;
    }
    if (e.lhs)
        collectReads(*e.lhs, letReads, out);
    if (e.rhs)
        collectReads(*e.rhs, letReads, out);
}

/** @p value as an owned object, moved out of @p scratch if it is there. */
template <typename T>
T
take(const T &value, T &scratch)
{
    if (&value == &scratch)
        return std::move(scratch);
    return value;
}

} // namespace

RelationEvaluator::RelationEvaluator(const CatModel &model,
                                     const ExecutionView &exec)
    : model_(model), exec_(exec), allEvents_(exec.numEvents()),
      letRel_(model.lets().size()), sets_(model.numNodes())
{
    std::iota(allEvents_.begin(), allEvents_.end(), 0);
    // A let only names earlier lets, so one pass in order suffices.
    std::vector<std::set<std::string>> letReads(model.lets().size());
    for (size_t i = 0; i < letReads.size(); ++i) {
        collectReads(*model.lets()[i].expr, letReads, letReads[i]);
        for (const std::string &name : letReads[i])
            readers_[name].push_back(static_cast<int>(i));
    }
}

void
RelationEvaluator::invalidate(const std::string &name)
{
    auto it = readers_.find(name);
    if (it == readers_.end())
        return;
    for (int index : it->second)
        letRel_[index].reset();
}

const PairSet &
RelationEvaluator::letValue(int index)
{
    std::optional<PairSet> &slot = letRel_[index];
    if (!slot) {
        const LetBinding &binding = model_.lets()[index];
        GPUMC_ASSERT(binding.expr->type == ExprType::Rel,
                     "letValue on a set binding");
        PairSet scratch;
        slot = take(relRef(*binding.expr, scratch), scratch);
    }
    return *slot;
}

std::vector<bool>
RelationEvaluator::evalSet(const Expr &e)
{
    return setRef(e);
}

const std::vector<bool> &
RelationEvaluator::setRef(const Expr &e)
{
    GPUMC_ASSERT(e.type == ExprType::Set);
    if (e.kind == ExprKind::Name && e.resolution == NameRes::LetRef)
        return setRef(*model_.lets()[e.letIndex].expr);
    std::optional<std::vector<bool>> &slot = sets_[model_.idOf(e)];
    if (slot)
        return *slot;
    int n = exec_.numEvents();
    std::vector<bool> members(n, false);
    switch (e.kind) {
      case ExprKind::Name:
        for (int i = 0; i < n; ++i)
            members[i] = exec_.inSet(i, e.name);
        break;
      case ExprKind::Union:
      case ExprKind::Inter:
      case ExprKind::Diff: {
        const std::vector<bool> &lhs = setRef(*e.lhs);
        const std::vector<bool> &rhs = setRef(*e.rhs);
        for (int i = 0; i < n; ++i) {
            if (e.kind == ExprKind::Union)
                members[i] = lhs[i] || rhs[i];
            else if (e.kind == ExprKind::Inter)
                members[i] = lhs[i] && rhs[i];
            else
                members[i] = lhs[i] && !rhs[i];
        }
        break;
      }
      default:
        GPUMC_PANIC("expression is not a set");
    }
    slot = std::move(members);
    return *slot;
}

PairSet
RelationEvaluator::evalRel(const Expr &e)
{
    PairSet scratch;
    return take(relRef(e, scratch), scratch);
}

const PairSet &
RelationEvaluator::relRef(const Expr &e, PairSet &scratch)
{
    GPUMC_ASSERT(e.type == ExprType::Rel);
    PairSet a, b;
    switch (e.kind) {
      case ExprKind::Name: {
        if (e.resolution == NameRes::LetRef)
            return letValue(e.letIndex);
        return exec_.baseRel(e.name);
      }
      case ExprKind::Union: {
        const PairSet &lhs = relRef(*e.lhs, a);
        const PairSet &rhs = relRef(*e.rhs, b);
        scratch = take(lhs, a);
        for (auto [x, y] : rhs.pairs())
            scratch.add(x, y);
        return scratch;
      }
      case ExprKind::Inter:
        scratch = relRef(*e.lhs, a).intersectWith(relRef(*e.rhs, b));
        return scratch;
      case ExprKind::Diff:
        scratch = relRef(*e.lhs, a).minus(relRef(*e.rhs, b));
        return scratch;
      case ExprKind::Seq:
        scratch = relRef(*e.lhs, a).compose(relRef(*e.rhs, b));
        return scratch;
      case ExprKind::Cartesian: {
        const std::vector<bool> &lhs = setRef(*e.lhs);
        const std::vector<bool> &rhs = setRef(*e.rhs);
        PairSet out;
        for (int i = 0; i < exec_.numEvents(); ++i) {
            if (!lhs[i])
                continue;
            for (int j = 0; j < exec_.numEvents(); ++j) {
                if (rhs[j])
                    out.add(i, j);
            }
        }
        scratch = std::move(out);
        return scratch;
      }
      case ExprKind::Inverse:
        scratch = relRef(*e.lhs, a).inverse();
        return scratch;
      case ExprKind::TransClosure:
        scratch = relRef(*e.lhs, a).transitiveClosure();
        return scratch;
      case ExprKind::ReflTransClosure:
        scratch =
            relRef(*e.lhs, a).transitiveClosure().withIdentity(allEvents_);
        return scratch;
      case ExprKind::Optional:
        scratch = relRef(*e.lhs, a).withIdentity(allEvents_);
        return scratch;
      case ExprKind::Bracket: {
        const std::vector<bool> &members = setRef(*e.lhs);
        PairSet out;
        for (int i = 0; i < exec_.numEvents(); ++i) {
            if (members[i])
                out.add(i, i);
        }
        scratch = std::move(out);
        return scratch;
      }
    }
    GPUMC_PANIC("unhandled expression kind");
}

bool
RelationEvaluator::holds(const Axiom &ax)
{
    PairSet scratch;
    const PairSet &value = relRef(*ax.expr, scratch);
    switch (ax.kind) {
      case AxiomKind::Empty:
      case AxiomKind::FlagNonEmpty:
        return value.empty();
      case AxiomKind::Irreflexive:
        return value.isIrreflexive();
      case AxiomKind::Acyclic:
        return value.isAcyclic();
    }
    GPUMC_PANIC("unhandled axiom kind");
}

bool
RelationEvaluator::consistent()
{
    for (const Axiom &ax : model_.axioms()) {
        if (ax.kind != AxiomKind::FlagNonEmpty && !holds(ax))
            return false;
    }
    return true;
}

std::vector<AxiomCheck>
RelationEvaluator::evalFlags()
{
    std::vector<AxiomCheck> out;
    for (const Axiom &ax : model_.axioms()) {
        if (ax.kind != AxiomKind::FlagNonEmpty)
            continue;
        AxiomCheck check;
        check.axiom = &ax;
        check.flagged = evalRel(*ax.expr);
        check.holds = check.flagged.empty();
        out.push_back(std::move(check));
    }
    return out;
}

} // namespace gpumc::cat
