#include "analysis/relation_analysis.hpp"

#include "program/event.hpp"
#include "support/trace.hpp"

namespace gpumc::analysis {

using cat::Expr;
using cat::ExprKind;
using cat::NameRes;
using cat::PairSet;
using prog::Event;
using prog::EventKind;
using prog::Scope;
using prog::UnrolledProgram;

RelationAnalysis::RelationAnalysis(const ExecAnalysis &exec,
                                   const cat::CatModel &model)
    : exec_(exec), model_(&model),
      deps_(computeDependencies(exec.unrolled())),
      bounds_(model.numNodes(), nullptr), derived_(model.numNodes()),
      sets_(model.numNodes(), nullptr), derivedSets_(model.numNodes())
{
}

const Bounds &
RelationAnalysis::baseBounds(const std::string &name)
{
    auto it = baseCache_.find(name);
    if (it != baseCache_.end())
        return it->second;
    const Bounds &bounds =
        baseCache_.emplace(name, computeBase(name)).first->second;
    trace::Tracer &tracer = trace::Tracer::instance();
    if (tracer.enabled()) {
        // Gauge semantics: keep the largest bound seen, so batch runs
        // over many programs report the worst-case pair-set sizes.
        tracer.counterMax("rel." + name + ".ubPairs",
                          static_cast<int64_t>(bounds.ub.size()));
        tracer.counterMax("rel." + name + ".lbPairs",
                          static_cast<int64_t>(bounds.lb.size()));
    }
    return bounds;
}

Bounds
RelationAnalysis::computeBase(const std::string &name)
{
    const UnrolledProgram &up = exec_.unrolled();
    const prog::Program &program = *up.program;
    int n = numEvents();
    Bounds b;

    auto forAllPairs = [&](auto &&pred) {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (i != j && !exec_.mutExcl(i, j) &&
                    pred(up.events[i], up.events[j])) {
                    b.lb.add(i, j);
                    b.ub.add(i, j);
                }
            }
        }
    };
    auto forAllPairsWithId = [&](auto &&pred) {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (!exec_.mutExcl(i, j) &&
                    pred(up.events[i], up.events[j])) {
                    b.lb.add(i, j);
                    b.ub.add(i, j);
                }
            }
        }
    };
    auto placement = [&](const Event &e) -> const prog::ThreadPlacement & {
        static const prog::ThreadPlacement initPlacement{};
        return e.isInit ? initPlacement
                        : program.threads[e.thread].placement;
    };

    if (name == "po") {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (exec_.poBefore(i, j)) {
                    b.lb.add(i, j);
                    b.ub.add(i, j);
                }
            }
        }
        return b;
    }
    if (name == "id") {
        for (int i = 0; i < n; ++i) {
            b.lb.add(i, i);
            b.ub.add(i, i);
        }
        return b;
    }
    if (name == "int") {
        forAllPairsWithId([](const Event &a, const Event &c) {
            if (a.isInit || c.isInit)
                return a.id == c.id;
            return a.thread == c.thread;
        });
        return b;
    }
    if (name == "ext") {
        forAllPairs([](const Event &a, const Event &c) {
            if (a.isInit || c.isInit)
                return true;
            return a.thread != c.thread;
        });
        return b;
    }
    if (name == "loc") {
        forAllPairsWithId([](const Event &a, const Event &c) {
            return a.isMemory() && c.isMemory() && a.physLoc == c.physLoc;
        });
        return b;
    }
    if (name == "vloc") {
        forAllPairsWithId([](const Event &a, const Event &c) {
            return a.isMemory() && c.isMemory() && a.virtLoc == c.virtLoc;
        });
        return b;
    }
    if (name == "rf") {
        // Free relation: lb empty, ub = same-location write/read pairs.
        for (int i = 0; i < n; ++i) {
            const Event &w = up.events[i];
            if (w.kind != EventKind::Write)
                continue;
            for (int j = 0; j < n; ++j) {
                const Event &r = up.events[j];
                if (r.kind != EventKind::Read || w.physLoc != r.physLoc)
                    continue;
                if (!exec_.mutExcl(i, j))
                    b.ub.add(i, j);
            }
        }
        return b;
    }
    if (name == "co") {
        // Free relation: pairs of writes to the same location. Init
        // writes are first in co, so nothing may precede them.
        for (int i = 0; i < n; ++i) {
            const Event &w1 = up.events[i];
            if (w1.kind != EventKind::Write)
                continue;
            for (int j = 0; j < n; ++j) {
                const Event &w2 = up.events[j];
                if (i == j || w2.kind != EventKind::Write ||
                    w2.isInit || w1.physLoc != w2.physLoc) {
                    continue;
                }
                if (!exec_.mutExcl(i, j)) {
                    b.ub.add(i, j);
                    // Init writes are first in co whenever the other
                    // write executes: a lower-bound pair.
                    if (w1.isInit)
                        b.lb.add(i, j);
                }
            }
        }
        return b;
    }
    if (name == "rmw") {
        for (int i = 0; i < n; ++i) {
            const Event &e = up.events[i];
            if (e.rmwPartner >= 0 && e.kind == EventKind::Read) {
                b.lb.add(i, e.rmwPartner);
                b.ub.add(i, e.rmwPartner);
            }
        }
        return b;
    }
    if (name == "addr")
        return b; // static addressing: empty
    if (name == "data") {
        b.lb = deps_.data;
        b.ub = deps_.data;
        return b;
    }
    if (name == "ctrl") {
        b.lb = deps_.ctrl;
        b.ub = deps_.ctrl;
        return b;
    }
    if (name == "sr") {
        // Both events' instruction scopes must reach the other thread
        // (Table 3: visibleFrom in both directions).
        forAllPairsWithId([&](const Event &a, const Event &c) {
            return prog::scopeIncludes(placement(a), a.scope,
                                       placement(c)) &&
                   prog::scopeIncludes(placement(c), c.scope,
                                       placement(a));
        });
        return b;
    }
    if (name == "scta") {
        forAllPairsWithId([&](const Event &a, const Event &c) {
            if (a.isInit || c.isInit)
                return false;
            return prog::sameCta(placement(a), placement(c));
        });
        return b;
    }
    if (name == "ssg" || name == "swg" || name == "sqf") {
        forAllPairsWithId([&](const Event &a, const Event &c) {
            if (a.isInit || c.isInit)
                return false;
            if (name == "ssg")
                return prog::sameSg(placement(a), placement(c));
            if (name == "swg")
                return prog::sameWg(placement(a), placement(c));
            return prog::sameQf(placement(a), placement(c));
        });
        return b;
    }
    if (name == "ssw") {
        forAllPairs([&](const Event &a, const Event &c) {
            if (a.isInit || c.isInit)
                return false;
            return program.threads[a.thread].placement.ssw &&
                   program.threads[c.thread].placement.ssw;
        });
        return b;
    }
    if (name == "syncbar" || name == "sync_barrier") {
        bool requireSameCta = name == "sync_barrier";
        for (int i = 0; i < n; ++i) {
            const Event &a = up.events[i];
            if (a.kind != EventKind::Barrier)
                continue;
            for (int j = 0; j < n; ++j) {
                const Event &c = up.events[j];
                if (i == j || c.kind != EventKind::Barrier ||
                    exec_.mutExcl(i, j)) {
                    continue;
                }
                if (requireSameCta &&
                    !prog::sameCta(placement(a), placement(c))) {
                    continue;
                }
                const prog::Operand &ida = a.instr->barrierId;
                const prog::Operand &idc = c.instr->barrierId;
                bool bothConst = !ida.isReg() && !idc.isReg();
                if (bothConst && ida.value != idc.value)
                    continue; // statically different ids
                b.ub.add(i, j);
                if (bothConst && ida.value == idc.value)
                    b.lb.add(i, j);
            }
        }
        return b;
    }
    if (name == "sync_fence") {
        // Upper bound: pairs of SC fences within reachable scope.
        const PairSet &sr = baseBounds("sr").ub;
        for (auto [i, j] : sr.pairs()) {
            if (i == j)
                continue;
            const Event &a = up.events[i];
            const Event &c = up.events[j];
            if (a.kind == EventKind::Fence && c.kind == EventKind::Fence &&
                a.tags.count("SC") && c.tags.count("SC")) {
                b.ub.add(i, j);
            }
        }
        return b;
    }
    GPUMC_PANIC("no bounds rule for base relation ", name);
}

const std::vector<bool> &
RelationAnalysis::setOf(const Expr &expr)
{
    // sets_ is never resized, so the slot survives the recursion.
    const std::vector<bool> *&slot = sets_[model_->idOf(expr)];
    if (slot)
        return *slot;
    GPUMC_ASSERT(expr.type == cat::ExprType::Set);
    if (expr.kind != ExprKind::Name) {
        std::vector<bool> &own = derivedSets_[expr.id];
        own = computeSet(expr);
        slot = &own;
    } else if (expr.resolution == NameRes::LetRef) {
        slot = &setOf(*model_->lets()[expr.letIndex].expr);
    } else {
        slot = &baseSet(expr.name);
    }
    return *slot;
}

const std::vector<bool> &
RelationAnalysis::baseSet(const std::string &name)
{
    auto it = baseSets_.find(name);
    if (it != baseSets_.end())
        return it->second;
    const UnrolledProgram &up = exec_.unrolled();
    int n = numEvents();
    std::vector<bool> out(n, false);
    for (int i = 0; i < n; ++i)
        out[i] = prog::eventHasTag(up.events[i], name);
    return baseSets_.emplace(name, std::move(out)).first->second;
}

std::vector<bool>
RelationAnalysis::computeSet(const Expr &expr)
{
    int n = numEvents();
    switch (expr.kind) {
      case ExprKind::Union: {
        std::vector<bool> a = setOf(*expr.lhs);
        const std::vector<bool> &c = setOf(*expr.rhs);
        for (int i = 0; i < n; ++i)
            a[i] = a[i] || c[i];
        return a;
      }
      case ExprKind::Inter: {
        std::vector<bool> a = setOf(*expr.lhs);
        const std::vector<bool> &c = setOf(*expr.rhs);
        for (int i = 0; i < n; ++i)
            a[i] = a[i] && c[i];
        return a;
      }
      case ExprKind::Diff: {
        std::vector<bool> a = setOf(*expr.lhs);
        const std::vector<bool> &c = setOf(*expr.rhs);
        for (int i = 0; i < n; ++i)
            a[i] = a[i] && !c[i];
        return a;
      }
      default:
        GPUMC_PANIC("expression is not a set");
    }
}

const Bounds &
RelationAnalysis::boundsOf(const Expr &expr)
{
    // bounds_ is never resized, so the slot survives the recursion.
    const Bounds *&slot = bounds_[model_->idOf(expr)];
    if (slot)
        return *slot;
    GPUMC_ASSERT(expr.type == cat::ExprType::Rel);
    if (expr.kind != ExprKind::Name) {
        Bounds &own = derived_[expr.id];
        own = computeDerived(expr);
        slot = &own;
    } else if (expr.resolution == NameRes::LetRef) {
        slot = &boundsOf(*model_->lets()[expr.letIndex].expr);
    } else {
        slot = &baseBounds(expr.name);
    }
    return *slot;
}

Bounds
RelationAnalysis::computeDerived(const Expr &expr)
{
    int n = numEvents();
    switch (expr.kind) {
      case ExprKind::Union: {
        const Bounds &a = boundsOf(*expr.lhs);
        const Bounds &c = boundsOf(*expr.rhs);
        return {a.lb.unionWith(c.lb), a.ub.unionWith(c.ub)};
      }
      case ExprKind::Inter: {
        const Bounds &a = boundsOf(*expr.lhs);
        const Bounds &c = boundsOf(*expr.rhs);
        return {a.lb.intersectWith(c.lb), a.ub.intersectWith(c.ub)};
      }
      case ExprKind::Diff: {
        const Bounds &a = boundsOf(*expr.lhs);
        const Bounds &c = boundsOf(*expr.rhs);
        return {a.lb.minus(c.ub), a.ub.minus(c.lb)};
      }
      case ExprKind::Seq: {
        const Bounds &a = boundsOf(*expr.lhs);
        const Bounds &c = boundsOf(*expr.rhs);
        Bounds out;
        out.ub = a.ub.compose(c.ub);
        // Lower-bound composition is only safe through intermediates
        // that execute unconditionally.
        PairSet throughUnconditional;
        for (auto [k, l] : c.lb.pairs()) {
            if (exec_.eventUnconditional(k))
                throughUnconditional.add(k, l);
        }
        out.lb = a.lb.compose(throughUnconditional);
        return out;
      }
      case ExprKind::Cartesian: {
        const std::vector<bool> &a = setOf(*expr.lhs);
        const std::vector<bool> &c = setOf(*expr.rhs);
        Bounds out;
        for (int i = 0; i < n; ++i) {
            if (!a[i])
                continue;
            for (int j = 0; j < n; ++j) {
                if (c[j] && !exec_.mutExcl(i, j)) {
                    out.lb.add(i, j);
                    out.ub.add(i, j);
                }
            }
        }
        return out;
      }
      case ExprKind::Inverse: {
        const Bounds &a = boundsOf(*expr.lhs);
        return {a.lb.inverse(), a.ub.inverse()};
      }
      case ExprKind::TransClosure: {
        const Bounds &a = boundsOf(*expr.lhs);
        return {a.lb, a.ub.transitiveClosure()};
      }
      case ExprKind::ReflTransClosure: {
        const Bounds &a = boundsOf(*expr.lhs);
        std::vector<int> ids(n);
        for (int i = 0; i < n; ++i)
            ids[i] = i;
        return {a.lb.withIdentity(ids),
                a.ub.transitiveClosure().withIdentity(ids)};
      }
      case ExprKind::Optional: {
        const Bounds &a = boundsOf(*expr.lhs);
        std::vector<int> ids(n);
        for (int i = 0; i < n; ++i)
            ids[i] = i;
        return {a.lb.withIdentity(ids), a.ub.withIdentity(ids)};
      }
      case ExprKind::Bracket: {
        const std::vector<bool> &set = setOf(*expr.lhs);
        Bounds out;
        for (int i = 0; i < n; ++i) {
            if (set[i]) {
                out.lb.add(i, i);
                out.ub.add(i, i);
            }
        }
        return out;
      }
      case ExprKind::Name:
        break; // boundsOf() resolves names
    }
    GPUMC_PANIC("unhandled expression kind");
}

} // namespace gpumc::analysis
