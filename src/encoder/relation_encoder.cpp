#include "encoder/relation_encoder.hpp"

#include <algorithm>
#include <set>

#include "support/trace.hpp"

namespace gpumc::encoder {

using cat::Expr;
using cat::ExprKind;
using cat::NameRes;
using cat::PairSet;
using smt::Lit;

namespace {

/**
 * Upper bound on the longest path length in the support graph of
 * @p edges: Tarjan SCC condensation, then the heaviest path through
 * the DAG weighted by SCC sizes. The closure encoding needs
 * ceil(log2(L)) squaring layers to cover paths of length L.
 */
int
longestPathBound(const PairSet &edges)
{
    if (edges.empty())
        return 1;
    // Collect nodes and adjacency.
    std::map<int, std::vector<int>> succ;
    std::map<int, int> index;
    for (auto [a, b] : edges.pairs()) {
        succ[a].push_back(b);
        succ.try_emplace(b);
    }
    int n = 0;
    for (auto &[node, _] : succ)
        index[node] = n++;

    // Iterative Tarjan.
    std::vector<int> low(n, -1), disc(n, -1), sccOf(n, -1);
    std::vector<bool> onStack(n, false);
    std::vector<int> stack;
    std::vector<int> sccSize;
    int timer = 0;
    std::vector<int> nodes(n);
    for (auto &[node, idx] : index)
        nodes[idx] = node;

    struct Frame {
        int v;
        size_t childIdx;
    };
    for (int start = 0; start < n; ++start) {
        if (disc[start] != -1)
            continue;
        std::vector<Frame> frames{{start, 0}};
        while (!frames.empty()) {
            Frame &f = frames.back();
            int v = f.v;
            if (f.childIdx == 0) {
                disc[v] = low[v] = timer++;
                stack.push_back(v);
                onStack[v] = true;
            }
            const auto &children = succ[nodes[v]];
            bool descended = false;
            while (f.childIdx < children.size()) {
                int w = index[children[f.childIdx++]];
                if (disc[w] == -1) {
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    low[v] = std::min(low[v], disc[w]);
            }
            if (descended)
                continue;
            if (low[v] == disc[v]) {
                int size = 0;
                while (true) {
                    int w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    sccOf[w] = static_cast<int>(sccSize.size());
                    size++;
                    if (w == v)
                        break;
                }
                sccSize.push_back(size);
            }
            frames.pop_back();
            if (!frames.empty()) {
                Frame &parent = frames.back();
                low[parent.v] = std::min(low[parent.v], low[v]);
            }
        }
    }

    // Longest path through the condensation (SCCs are numbered in
    // reverse topological order by Tarjan).
    int numScc = static_cast<int>(sccSize.size());
    std::vector<int> best(numScc, 0);
    for (int scc = 0; scc < numScc; ++scc)
        best[scc] = sccSize[scc];
    for (int scc = 0; scc < numScc; ++scc) {
        // Successor SCCs have smaller Tarjan indices; process ascending
        // so successors are finalized first.
        for (auto [a, b] : edges.pairs()) {
            if (sccOf[index[a]] != scc)
                continue;
            int target = sccOf[index[b]];
            if (target != scc)
                best[scc] = std::max(best[scc],
                                     sccSize[scc] + best[target]);
        }
    }
    return *std::max_element(best.begin(), best.end());
}

/**
 * All base-relation names reachable from @p expr (through let
 * references), for the tracing-time bound-size counters.
 */
void
collectBaseRels(const Expr &expr, const cat::CatModel &model,
                std::vector<bool> &seen, std::set<std::string> &out)
{
    if (seen[model.idOf(expr)])
        return;
    seen[expr.id] = true;
    if (expr.kind == ExprKind::Name) {
        if (expr.resolution == NameRes::BaseRel)
            out.insert(expr.name);
        else if (expr.resolution == NameRes::LetRef)
            collectBaseRels(*model.lets()[expr.letIndex].expr, model,
                            seen, out);
        return;
    }
    if (expr.lhs)
        collectBaseRels(*expr.lhs, model, seen, out);
    if (expr.rhs)
        collectBaseRels(*expr.rhs, model, seen, out);
}

} // namespace

RelationEncoder::RelationEncoder(analysis::RelationAnalysis &ra,
                                 ProgramEncoder &pe)
    : ra_(ra), pe_(pe), c_(pe.circuit()),
      closureInfo_(ra.model().numNodes()),
      succCache_(ra.model().numNodes()), polarity_(ra.model())
{
    GPUMC_ASSERT(ra.model().numNodes() <= kMaxNodes &&
                     pe.unrolled().numEvents() <= kMaxEvents,
                 "too many .cat nodes or events for the memo keys");
    // Consistency axioms forbid relation membership (the solver wants
    // them false); flagged axioms are asserted non-empty (true).
    for (const cat::Axiom &axiom : ra_.model().axioms()) {
        polarity_.walk(*axiom.expr,
                       axiom.kind == cat::AxiomKind::FlagNonEmpty
                           ? cat::Polarity::Pos
                           : cat::Polarity::Neg);
    }
    // Under tracing, force the bound computation of every base
    // relation the model references so the metrics export carries
    // `rel.<name>.{ub,lb}Pairs` for all of them — even those whose
    // encoding is later short-circuited away.
    if (trace::Tracer::instance().enabled()) {
        std::vector<bool> seen(ra_.model().numNodes(), false);
        std::set<std::string> baseRels;
        for (const cat::LetBinding &let : ra_.model().lets())
            collectBaseRels(*let.expr, ra_.model(), seen, baseRels);
        for (const cat::Axiom &axiom : ra_.model().axioms())
            collectBaseRels(*axiom.expr, ra_.model(), seen, baseRels);
        for (const std::string &name : baseRels)
            ra_.baseBounds(name);
    }
}

const RelationEncoder::Successors &
RelationEncoder::successors(const Expr &expr)
{
    std::optional<Successors> &slot = succCache_[ra_.model().idOf(expr)];
    if (slot)
        return *slot;
    const PairSet &ub = ra_.boundsOf(expr).ub;
    int n = pe_.unrolled().numEvents();
    Successors &rows = slot.emplace();
    // Count each source's targets at start[a + 1], sum the counts up
    // into row starts, then fill every row in pair order; filling
    // advances start[a] to row a's end, so shift the starts back.
    rows.start.assign(n + 1, 0);
    for (auto [a, b] : ub.pairs())
        rows.start[a + 1]++;
    for (int i = 0; i < n; ++i)
        rows.start[i + 1] += rows.start[i];
    rows.targets.resize(ub.size());
    for (auto [a, b] : ub.pairs())
        rows.targets[rows.start[a]++] = b;
    for (int i = n; i > 0; --i)
        rows.start[i] = rows.start[i - 1];
    rows.start[0] = 0;
    return rows;
}

Lit
RelationEncoder::encode(const Expr &expr, int a, int b)
{
    const analysis::Bounds &bounds = ra_.boundsOf(expr);
    if (!bounds.ub.contains(a, b))
        return c_.falseLit();

    uint64_t cacheKey = pairKey(expr.id, a, b);
    if (const Lit *cached = cache_.find(cacheKey))
        return *cached;

    // Per-.cat-relation encoding-size attribution (tracing only): the
    // outermost *named* relation on the recursion stack is charged
    // with every variable and clause the backend gains while its
    // formula (including all sub-expressions) is built.
    const std::string *attributed = nullptr;
    if (expr.kind == ExprKind::Name && activeRel_ == nullptr &&
        trace::Tracer::instance().enabled()) {
        attributed = &expr.name;
        activeRel_ = attributed;
        activeRelVarsBase_ = c_.backend().numVars();
        activeRelClausesBase_ = c_.backend().numClauses();
    }

    Lit execBoth = c_.mkAnd(pe_.execLit(a), pe_.execLit(b));
    Lit result;
    if (bounds.lb.contains(a, b) &&
        (pe_.options().useLowerBounds || expr.kind == ExprKind::Name)) {
        result = execBoth;
    } else {
        switch (expr.kind) {
          case ExprKind::Name:
            if (expr.resolution == NameRes::LetRef) {
                result = encode(*ra_.model().lets()[expr.letIndex].expr,
                                a, b);
            } else {
                result = encodeBase(expr.name, a, b);
            }
            break;
          case ExprKind::Union:
            result = c_.mkOr(encode(*expr.lhs, a, b),
                             encode(*expr.rhs, a, b));
            break;
          case ExprKind::Inter:
            result = c_.mkAnd(encode(*expr.lhs, a, b),
                              encode(*expr.rhs, a, b));
            break;
          case ExprKind::Diff:
            result = c_.mkAnd(encode(*expr.lhs, a, b),
                              c_.mkNot(encode(*expr.rhs, a, b)));
            break;
          case ExprKind::Seq:
            result = encodeSeq(expr, a, b);
            break;
          case ExprKind::Cartesian:
            // Membership is static; the upper bound already filtered.
            result = execBoth;
            break;
          case ExprKind::Inverse:
            result = encode(*expr.lhs, b, a);
            break;
          case ExprKind::Bracket:
            GPUMC_ASSERT(a == b, "bracket bound must be diagonal");
            result = pe_.execLit(a);
            break;
          case ExprKind::Optional:
            result = a == b ? pe_.execLit(a) : encode(*expr.lhs, a, b);
            break;
          case ExprKind::ReflTransClosure:
            result = a == b ? pe_.execLit(a) : encodeClosure(expr, a, b);
            break;
          case ExprKind::TransClosure:
            result = encodeClosure(expr, a, b);
            break;
          default:
            GPUMC_PANIC("unhandled relation expression");
        }
    }
    cache_.emplace(cacheKey, result);
    if (attributed) {
        trace::Tracer &tracer = trace::Tracer::instance();
        tracer.counterAdd("rel." + *attributed + ".vars",
                          c_.backend().numVars() - activeRelVarsBase_);
        tracer.counterAdd("rel." + *attributed + ".clauses",
                          c_.backend().numClauses() -
                              activeRelClausesBase_);
        tracer.counterAdd("rel." + *attributed + ".encodedLits", 1);
        activeRel_ = nullptr;
    }
    return result;
}

Lit
RelationEncoder::encodeBase(const std::string &name, int a, int b)
{
    if (name == "rf")
        return pe_.rfLit(a, b);
    if (name == "co")
        return pe_.coLit(a, b);
    if (name == "sync_fence")
        return pe_.syncFenceLit(a, b);
    Lit execBoth = c_.mkAnd(pe_.execLit(a), pe_.execLit(b));
    if (name == "syncbar" || name == "sync_barrier") {
        // Reached only for dynamic barrier ids (static equality is a
        // lower-bound pair): require equal runtime ids.
        return c_.mkAnd(execBoth,
                        pe_.bv().eq(pe_.barrierIdOf(a),
                                    pe_.barrierIdOf(b)));
    }
    // All remaining base relations are static.
    return execBoth;
}

Lit
RelationEncoder::encodeSeq(const Expr &expr, int a, int b)
{
    const PairSet &rhsUb = ra_.boundsOf(*expr.rhs).ub;
    std::span<const int> succ = successors(*expr.lhs).of(a);
    if (succ.empty())
        return c_.falseLit();
    std::vector<Lit> cases;
    for (int k : succ) {
        if (!rhsUb.contains(k, b))
            continue;
        cases.push_back(c_.mkAnd(encode(*expr.lhs, a, k),
                                 encode(*expr.rhs, k, b)));
    }
    return c_.mkOr(cases);
}

Lit
RelationEncoder::encodeClosure(const Expr &expr, int a, int b)
{
    std::optional<ClosureInfo> &info = closureInfo_[ra_.model().idOf(expr)];
    if (!info) {
        const PairSet &childUb = ra_.boundsOf(*expr.lhs).ub;
        info.emplace();
        info->closUb = childUb.transitiveClosure();
        int longestPath = longestPathBound(childUb);
        info->idxBits = 1;
        while ((1 << info->idxBits) < longestPath + 1)
            info->idxBits++;
    }
    return closureLit(*info, expr, a, b).lit;
}

/**
 * Demand-driven least-fixpoint encoding of transitive closure: a pair
 * variable tc(a,b) is *justified* either by the child edge (a,b)
 * directly, or by a child edge (a,k) plus tc(k,b) whose justification
 * index is strictly smaller — the decreasing index rules out circular
 * self-support, so the encoding is exactly the least fix-point.
 * Completeness (paths imply tc) is asserted edge-wise.
 *
 * Only pairs that are actually queried (and the columns feeding them)
 * are materialized.
 */
RelationEncoder::ClosureVar
RelationEncoder::closureLit(const ClosureInfo &info, const Expr &expr,
                            int a, int b)
{
    if (!info.closUb.contains(a, b))
        return {c_.falseLit(), -1};
    uint64_t key = pairKey(expr.id, a, b);
    if (const ClosureVar *cached = closurePairs_.find(key))
        return *cached;

    // Where the solver only wants the closure false it already prefers
    // the least fix-point, so the cheap completeness direction is
    // enough; otherwise well-foundedness indices are required.
    bool sound = needsSoundness(expr);

    // Insert the variable before recursing: cycles hit the memo.
    ClosureVar own{c_.freshVar(), -1};
    if (sound) {
        own.idx = static_cast<int32_t>(closureIdx_.size());
        closureIdx_.push_back(pe_.bv().fresh(info.idxBits));
    }
    closurePairs_.emplace(key, own);

    std::vector<Lit> justifications;
    for (int k : successors(*expr.lhs).of(a)) {
        Lit step = encode(*expr.lhs, a, k);
        if (c_.isFalse(step))
            continue;
        if (k == b) {
            // Direct child edge: justifies tc unconditionally.
            c_.assertImplies(step, own.lit);
            justifications.push_back(step);
            continue;
        }
        if (!info.closUb.contains(k, b))
            continue;
        ClosureVar rest = closureLit(info, expr, k, b);
        if (c_.isFalse(rest.lit))
            continue;
        Lit both = c_.mkAnd(step, rest.lit);
        // Completeness: any step + suffix implies the closure.
        c_.assertImplies(both, own.lit);
        if (sound) {
            Lit smaller = pe_.bv().ult(closureIdx_[rest.idx],
                                       closureIdx_[own.idx]);
            justifications.push_back(c_.mkAnd(both, smaller));
        }
    }
    // Soundness: the pair holds only with a well-founded justification.
    if (sound)
        c_.assertImplies(own.lit, c_.mkOr(justifications));
    return own;
}

void
RelationEncoder::assertAcyclic(const Expr &expr)
{
    const PairSet &ub = ra_.boundsOf(expr).ub;
    if (ub.empty())
        return;
    std::vector<smt::AcyclicEdge> edges;
    for (auto [a, b] : ub.pairs()) {
        Lit edge = encode(expr, a, b);
        if (a == b)
            c_.assertLit(c_.mkNot(edge));
        else if (!c_.isFalse(edge))
            edges.push_back({a, b, edge});
    }
    if (c_.backend().addAcyclic(edges))
        return;

    // The backend declined: order the events by bit-vector clocks, one
    // per event on an edge, and let every edge imply that its source's
    // clock is below its target's.
    int n = pe_.unrolled().numEvents();
    int clockBits = 1;
    while ((1 << clockBits) < n + 1)
        clockBits++;
    std::map<int, smt::BitVec> clock;
    auto clockOf = [&](int e) -> const smt::BitVec & {
        auto it = clock.find(e);
        if (it == clock.end())
            it = clock.emplace(e, pe_.bv().fresh(clockBits)).first;
        return it->second;
    };
    for (auto [a, b] : ub.pairs()) {
        if (a != b)
            c_.assertImplies(encode(expr, a, b),
                             pe_.bv().ult(clockOf(a), clockOf(b)));
    }
}

void
RelationEncoder::assertAxioms()
{
    for (const cat::Axiom &axiom : ra_.model().axioms()) {
        switch (axiom.kind) {
          case cat::AxiomKind::Empty:
            for (auto [a, b] : ra_.boundsOf(*axiom.expr).ub.pairs())
                c_.assertLit(c_.mkNot(encode(*axiom.expr, a, b)));
            break;
          case cat::AxiomKind::Irreflexive:
            for (auto [a, b] : ra_.boundsOf(*axiom.expr).ub.pairs()) {
                if (a == b)
                    c_.assertLit(c_.mkNot(encode(*axiom.expr, a, b)));
            }
            break;
          case cat::AxiomKind::Acyclic:
            assertAcyclic(*axiom.expr);
            break;
          case cat::AxiomKind::FlagNonEmpty:
            break; // handled by encodeFlags
        }
    }
}

std::vector<FlagViolation>
RelationEncoder::encodeFlags()
{
    std::vector<FlagViolation> out;
    for (const cat::Axiom &axiom : ra_.model().axioms()) {
        if (axiom.kind != cat::AxiomKind::FlagNonEmpty)
            continue;
        FlagViolation violation;
        violation.axiom = &axiom;
        std::vector<Lit> lits;
        for (auto [a, b] : ra_.boundsOf(*axiom.expr).ub.pairs()) {
            Lit lit = encode(*axiom.expr, a, b);
            if (c_.isFalse(lit))
                continue;
            violation.pairLits.push_back({{a, b}, lit});
            lits.push_back(lit);
        }
        violation.lit = c_.mkOr(lits);
        out.push_back(std::move(violation));
    }
    return out;
}

} // namespace gpumc::encoder
