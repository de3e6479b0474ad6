#include "smt/sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>

#include "support/diagnostics.hpp"

namespace gpumc::smt::sat {

namespace {

/** Finite-state Luby sequence generator (Knuth's formulation). */
double
luby(double y, int x)
{
    int size, seq;
    for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {}
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return std::pow(y, seq);
}

constexpr double kVarDecay = 0.95;
constexpr double kClaDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
/**
 * reduceDB compacts the clause arena once the clauses it dropped take
 * more than this share of it, so the arena stays within 1.25 times
 * the live clauses' words however long a pooled session runs.
 */
constexpr double kArenaWasteShare = 0.2;
/**
 * reduceDB compacts the watch pool once its spare room (the free
 * blocks, and the slots no list fills) takes more than this share of
 * it. propagate() only moves watchers between lists; reduceDB is
 * what takes them out, leaving room behind that no free list sees.
 */
constexpr double kWatchWasteShare = 0.5;
/**
 * A watch pool that runs out of room reserves this many times what it
 * needs, so a growing session copies its pool, and touches fresh pages
 * for it, about a third as often as std::vector's doubling would.
 */
constexpr size_t kWatchPoolGrowth = 4;

static_assert(sizeof(Lit) == 4 && 2 * sizeof(Lit) == sizeof(double),
              "a clause header keeps its activity in two literal words");

} // namespace

Solver::Solver()
{
    freeWatchBlocks_.fill(kNoBlock);
}

Solver::~Solver() = default;

Var
Solver::newVar()
{
    Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::Undef);
    polarity_.push_back(true); // default phase: false (sign = true)
    level_.push_back(0);
    reason_.push_back(kNoClause);
    activity_.push_back(0.0);
    seen_.push_back(0);
    heapIndex_.push_back(-1);
    watchLists_.emplace_back();
    watchLists_.emplace_back();
    heapInsert(v);
    return v;
}

bool
Solver::addClause(std::span<const Lit> lits)
{
    GPUMC_ASSERT(decisionLevel() == 0, "clauses must be added at level 0");
    if (!ok_)
        return false;

    // Normalize in place: sort, remove duplicates, detect tautologies,
    // drop root-level false literals, and succeed early on true
    // literals.
    std::vector<Lit> &out = addBuf_;
    out.assign(lits.begin(), lits.end());
    std::sort(out.begin(), out.end());
    size_t kept = 0;
    Lit prev = kUndefLit;
    for (Lit l : out) {
        GPUMC_ASSERT(l.var() >= 0 && l.var() < numVars(),
                     "literal references unknown variable");
        if (value(l) == LBool::True || l == ~prev)
            return true; // satisfied or tautological
        if (value(l) != LBool::False && l != prev)
            out[kept++] = l;
        prev = l;
    }
    out.resize(kept);

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        if (!enqueue(out[0], kNoClause)) {
            ok_ = false;
            return false;
        }
        ok_ = (propagate() == kNoClause);
        return ok_;
    }

    CRef clause = allocClause(out, /*learnt=*/false);
    attachClause(clause);
    clauses_.push_back(clause);
    return true;
}

bool
Solver::addAcyclic(std::span<const AcyclicEdge> edges)
{
    GPUMC_ASSERT(decisionLevel() == 0,
                 "acyclicity constraints must be added at level 0");
    if (!ok_)
        return false;
    Graph g;
    int numNodes = 0;
    for (const AcyclicEdge &edge : edges) {
        GPUMC_ASSERT(edge.from >= 0 && edge.to >= 0 &&
                         edge.lit.var() >= 0 && edge.lit.var() < numVars(),
                     "acyclic edge references unknown node or variable");
        if (value(edge.lit) == LBool::False)
            continue;
        g.edges.push_back(edge);
        numNodes = std::max({numNodes, edge.from + 1, edge.to + 1});
    }
    if (g.edges.empty())
        return true;
    g.out.resize(numNodes);
    g.in.resize(numNodes);
    g.ord.resize(numNodes);
    std::iota(g.ord.begin(), g.ord.end(), 0);
    g.mark.assign(numNodes, 0);
    g.via.assign(numNodes, kNoEdge);
    const uint32_t graph = static_cast<uint32_t>(graphs_.size());
    graphs_.push_back(std::move(g));
    Graph &added = graphs_.back();

    // Root edges join at once; a cycle among them is a root conflict.
    std::vector<uint32_t> undecided;
    for (uint32_t e = 0; e < added.edges.size(); ++e) {
        if (value(added.edges[e].lit) == LBool::Undef) {
            undecided.push_back(e);
        } else if (linkEdge(added, e)) {
            activeEdges_.push_back({graph, e});
        } else {
            ok_ = false;
            return false;
        }
    }

    // A literal whose own edges close a cycle with the root edges is
    // false. Refuting it here keeps every cycle clause of the search
    // at two literals or more. The other edges wait on their literal.
    std::stable_sort(undecided.begin(), undecided.end(),
                     [&added](uint32_t a, uint32_t b) {
                         return added.edges[a].lit < added.edges[b].lit;
                     });
    if (edgeHead_.size() < 2 * static_cast<size_t>(numVars()))
        edgeHead_.resize(2 * static_cast<size_t>(numVars()), kNoEdge);
    std::vector<Lit> refuted;
    std::vector<uint32_t> linked;
    for (size_t i = 0; i < undecided.size();) {
        const Lit lit = added.edges[undecided[i]].lit;
        size_t end = i;
        bool cyclic = false;
        for (; end < undecided.size() &&
               added.edges[undecided[end]].lit == lit;
             ++end) {
            if (cyclic)
                continue;
            if (linkEdge(added, undecided[end]))
                linked.push_back(undecided[end]);
            else
                cyclic = true;
        }
        while (!linked.empty()) {
            unlinkEdge(added, linked.back());
            linked.pop_back();
        }
        if (cyclic) {
            refuted.push_back(~lit);
        } else {
            for (; i < end; ++i) {
                edgeWatches_.push_back(
                    {{graph, undecided[i]}, edgeHead_[lit.index()]});
                edgeHead_[lit.index()] =
                    static_cast<uint32_t>(edgeWatches_.size() - 1);
            }
        }
        i = end;
    }
    for (Lit l : refuted) {
        if (!enqueue(l, kNoClause)) {
            ok_ = false;
            return false;
        }
    }
    ok_ = propagate() == kNoClause;
    return ok_;
}

uint32_t
Solver::nextEpoch(Graph &g)
{
    if (++g.epoch == 0) {
        std::fill(g.mark.begin(), g.mark.end(), 0);
        g.epoch = 1;
    }
    return g.epoch;
}

bool
Solver::linkEdge(Graph &g, uint32_t e)
{
    const int u = g.edges[e].from;
    const int v = g.edges[e].to;
    const int lower = g.ord[v];
    const int upper = g.ord[u];
    if (lower > upper) {
        // The order already puts u first: no path v ~> u exists.
        g.out[u].push_back(e);
        g.in[v].push_back(e);
        return true;
    }
    cycleBuf_.clear();
    if (u == v) {
        cycleBuf_.push_back(e);
        return false;
    }
    // Breadth first from v through the nodes ordered before u: a path
    // to u closes a cycle, and the first one found is a shortest.
    uint32_t epoch = nextEpoch(g);
    forwardBuf_.assign(1, v);
    g.mark[v] = epoch;
    for (size_t i = 0; i < forwardBuf_.size(); ++i) {
        const int x = forwardBuf_[i];
        for (uint32_t f : g.out[x]) {
            const int y = g.edges[f].to;
            if (y == u) {
                cycleBuf_.push_back(e);
                cycleBuf_.push_back(f);
                for (int z = x; z != v; z = g.edges[g.via[z]].from)
                    cycleBuf_.push_back(g.via[z]);
                return false;
            }
            if (g.mark[y] != epoch && g.ord[y] < upper) {
                g.mark[y] = epoch;
                g.via[y] = f;
                forwardBuf_.push_back(y);
            }
        }
    }
    // The nodes ordered after v that reach u.
    epoch = nextEpoch(g);
    backwardBuf_.assign(1, u);
    g.mark[u] = epoch;
    for (size_t i = 0; i < backwardBuf_.size(); ++i) {
        for (uint32_t f : g.in[backwardBuf_[i]]) {
            const int y = g.edges[f].from;
            if (g.mark[y] != epoch && g.ord[y] > lower) {
                g.mark[y] = epoch;
                backwardBuf_.push_back(y);
            }
        }
    }
    // Both sets share out the positions they held: the backward set
    // first, then the forward set, each in its old relative order.
    auto byOrd = [&g](int a, int b) { return g.ord[a] < g.ord[b]; };
    std::sort(forwardBuf_.begin(), forwardBuf_.end(), byOrd);
    std::sort(backwardBuf_.begin(), backwardBuf_.end(), byOrd);
    ordBuf_.clear();
    for (int x : backwardBuf_)
        ordBuf_.push_back(g.ord[x]);
    for (int x : forwardBuf_)
        ordBuf_.push_back(g.ord[x]);
    std::sort(ordBuf_.begin(), ordBuf_.end());
    size_t next = 0;
    for (int x : backwardBuf_)
        g.ord[x] = ordBuf_[next++];
    for (int x : forwardBuf_)
        g.ord[x] = ordBuf_[next++];
    g.out[u].push_back(e);
    g.in[v].push_back(e);
    return true;
}

void
Solver::unlinkEdge(Graph &g, uint32_t e)
{
    const AcyclicEdge &edge = g.edges[e];
    GPUMC_ASSERT(g.out[edge.from].back() == e && g.in[edge.to].back() == e,
                 "acyclic edges must leave in the reverse of their order");
    g.out[edge.from].pop_back();
    g.in[edge.to].pop_back();
}

Solver::CRef
Solver::activateEdges(Lit p)
{
    for (uint32_t w = edgeHead_[p.index()]; w != kNoEdge;
         w = edgeWatches_[w].next) {
        const EdgeRef ref = edgeWatches_[w].ref;
        Graph &g = graphs_[ref.graph];
        if (!linkEdge(g, ref.edge))
            return cycleConflict(g);
        activeEdges_.push_back(ref);
    }
    return kNoClause;
}

Solver::CRef
Solver::cycleConflict(const Graph &g)
{
    stats_.acyclicConflicts++;
    std::vector<Lit> &lits = cycleLits_;
    lits.clear();
    for (uint32_t e : cycleBuf_) {
        const Lit l = ~g.edges[e].lit;
        if (!seen_[l.var()]) {
            seen_[l.var()] = 1;
            lits.push_back(l);
        }
    }
    for (Lit l : lits)
        seen_[l.var()] = 0;
    GPUMC_ASSERT(lits.size() >= 2,
                 "a cycle on one literal is refuted by addAcyclic");
    // Watch the two literals assigned at the highest levels.
    for (size_t slot = 0; slot < 2; ++slot) {
        size_t best = slot;
        for (size_t k = slot + 1; k < lits.size(); ++k) {
            if (level_[lits[k].var()] > level_[lits[best].var()])
                best = k;
        }
        std::swap(lits[slot], lits[best]);
    }
    const CRef clause = allocClause(lits, /*learnt=*/true);
    attachClause(clause);
    learnts_.push_back(clause);
    return clause;
}

double
Solver::clauseActivity(CRef c) const
{
    double activity;
    std::memcpy(&activity, &arena_[c + 1], sizeof activity);
    return activity;
}

void
Solver::setClauseActivity(CRef c, double activity)
{
    // Lit is trivially copyable, so its words may take the bytes.
    std::memcpy(static_cast<void *>(&arena_[c + 1]), &activity,
                sizeof activity);
}

Solver::CRef
Solver::allocClause(std::span<const Lit> lits, bool learnt)
{
    GPUMC_ASSERT(lits.size() >= 2);
    const size_t words = arena_.size() + kHeaderWords + lits.size();
    GPUMC_ASSERT(words < kNoClause && lits.size() < (1u << 29),
                 "clause arena overflow");
    const CRef c = static_cast<CRef>(arena_.size());
    arena_.resize(c + kHeaderWords);
    arena_[c].x = static_cast<int32_t>(lits.size() << kFlagBits) |
                  (learnt ? kLearntFlag : 0);
    setClauseActivity(c, 0.0);
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    return c;
}

void
Solver::freeClause(CRef c)
{
    arena_[c].x |= kDroppedFlag;
    wastedWords_ += kHeaderWords + clauseSize(c);
}

size_t
Solver::liveClauseWords() const
{
    size_t words = 0;
    for (const std::vector<CRef> *list : {&clauses_, &learnts_}) {
        for (CRef c : *list)
            words += kHeaderWords + clauseSize(c);
    }
    return words;
}

void
Solver::compactArena()
{
    // Copy the live clauses in address order and leave each one's new
    // offset in its old activity words, so every holder of an offset
    // can look it up.
    std::vector<Lit> to;
    to.reserve(arena_.size() - wastedWords_);
    for (CRef c = 0; c < arena_.size();) {
        const CRef next = c + kHeaderWords + clauseSize(c);
        if ((arena_[c].x & kDroppedFlag) == 0) {
            const CRef moved = static_cast<CRef>(to.size());
            to.insert(to.end(), arena_.begin() + c, arena_.begin() + next);
            arena_[c + 1].x = static_cast<int32_t>(moved);
        }
        c = next;
    }
    auto relocate = [&](CRef &c) {
        GPUMC_ASSERT((arena_[c].x & kDroppedFlag) == 0,
                     "relocating a dropped clause");
        c = static_cast<CRef>(arena_[c + 1].x);
    };
    for (const WatchList &wl : watchLists_) {
        for (uint32_t k = 0; k < wl.size; ++k)
            relocate(watchPool_[wl.begin + k].clause);
    }
    for (CRef &reason : reason_) {
        if (reason != kNoClause)
            relocate(reason);
    }
    for (CRef &c : clauses_)
        relocate(c);
    for (CRef &c : learnts_)
        relocate(c);
    arena_ = std::move(to);
    wastedWords_ = 0;
}

size_t
Solver::liveWatchers() const
{
    size_t watchers = 0;
    for (const WatchList &wl : watchLists_)
        watchers += wl.size;
    return watchers;
}

void
Solver::growWatchList(WatchList &wl)
{
    const uint32_t capacity =
        wl.capacity == 0 ? kMinWatchCapacity : 2 * wl.capacity;
    const size_t end = watchPool_.size();
    if (wl.capacity != 0 && wl.begin + wl.capacity == end) {
        resizeWatchPool(wl.begin + size_t{capacity});
        wl.capacity = capacity;
        return;
    }
    uint32_t &reusable = freeWatchBlocks_[std::countr_zero(capacity)];
    uint32_t begin = reusable;
    if (begin != kNoBlock) {
        reusable = watchPool_[begin].clause;
    } else {
        begin = static_cast<uint32_t>(end);
        resizeWatchPool(end + capacity);
    }
    std::copy_n(watchPool_.begin() + wl.begin, wl.size,
                watchPool_.begin() + begin);
    if (wl.capacity != 0) {
        uint32_t &freed = freeWatchBlocks_[std::countr_zero(wl.capacity)];
        watchPool_[wl.begin].clause = freed;
        freed = wl.begin;
    }
    wl.begin = begin;
    wl.capacity = capacity;
}

void
Solver::resizeWatchPool(size_t size)
{
    GPUMC_ASSERT(size < kNoBlock, "watch pool overflow");
    if (size > watchPool_.capacity())
        watchPool_.reserve(
            std::min<size_t>(kWatchPoolGrowth * size, kNoBlock));
    watchPool_.resize(size);
}

void
Solver::compactWatchPool()
{
    // Each list keeps its place in literal order and gets the least
    // size class (a power of two, at least kMinWatchCapacity) that
    // holds it.
    std::vector<Watcher> to;
    for (WatchList &wl : watchLists_) {
        const uint32_t capacity =
            wl.size == 0 ? 0
                         : std::bit_ceil(std::max(wl.size, kMinWatchCapacity));
        const uint32_t begin = static_cast<uint32_t>(to.size());
        to.insert(to.end(), watchPool_.begin() + wl.begin,
                  watchPool_.begin() + wl.begin + wl.size);
        to.resize(begin + capacity);
        wl.begin = begin;
        wl.capacity = capacity;
    }
    watchPool_ = std::move(to);
    freeWatchBlocks_.fill(kNoBlock);
}

void
Solver::flushMovedWatches()
{
    for (const MovedWatch &moved : movedWatches_)
        pushWatch(moved.list, moved.watcher);
    movedWatches_.clear();
}

void
Solver::attachClause(CRef c)
{
    const Lit *lits = clauseLits(c);
    pushWatch(~lits[0], {c, lits[1]});
    pushWatch(~lits[1], {c, lits[0]});
}

void
Solver::detachClause(CRef c)
{
    const Lit *lits = clauseLits(c);
    for (Lit w : {lits[0], lits[1]}) {
        WatchList &wl = watchLists_[(~w).index()];
        Watcher *ws = watchPool_.data() + wl.begin;
        for (uint32_t i = 0; i < wl.size; ++i) {
            if (ws[i].clause == c) {
                ws[i] = ws[--wl.size];
                break;
            }
        }
    }
}

bool
Solver::enqueue(Lit l, CRef reason)
{
    if (value(l) != LBool::Undef)
        return value(l) == LBool::True;
    assigns_[l.var()] = l.sign() ? LBool::False : LBool::True;
    level_[l.var()] = decisionLevel();
    reason_[l.var()] = reason;
    trail_.push_back(l);
    return true;
}

Solver::CRef
Solver::propagate()
{
    while (qhead_ < trail_.size()) {
        // Long propagation runs must honour the solve deadline and
        // cross-thread interrupts too: check between literal
        // propagations (a safe point — the watcher lists are
        // consistent), cheaply amortized. The interrupt flag is polled
        // even when no time limit is armed — a Sat cube cancels its
        // unlimited siblings. Breaking here leaves qhead_ <
        // trail_.size(); propagation simply resumes from the queue if
        // the solver is used again.
        if ((stats_.propagations & 2047) == 0 &&
            (interrupted_.load(std::memory_order_relaxed) ||
             (deadline_.limited() && deadline_.expired()))) {
            timedOut_ = true;
            return kNoClause;
        }
        Lit p = trail_[qhead_++];
        stats_.propagations++;
        // A watch moved off this list waits in movedWatches_ until the
        // list is done (it joins another list: a new watch is not
        // false, so it is never ~p), so the pool stays put under i/j.
        WatchList &wl = watchLists_[p.index()];
        Watcher *const ws = watchPool_.data() + wl.begin;
        Watcher *i = ws;
        Watcher *j = i;
        Watcher *const end = i + wl.size;
        const Lit falseLit = ~p;
        while (i != end) {
            const Watcher w = *i++;
            if (value(w.blocker) == LBool::True) {
                *j++ = w;
                continue;
            }
            const CRef c = w.clause;
            Lit *lits = clauseLits(c);
            // Make sure the false literal is lits[1].
            if (lits[0] == falseLit)
                std::swap(lits[0], lits[1]);
            GPUMC_ASSERT(lits[1] == falseLit);

            const Lit first = lits[0];
            if (first != w.blocker && value(first) == LBool::True) {
                *j++ = {c, first};
                continue;
            }

            // Look for a new literal to watch.
            bool foundWatch = false;
            const uint32_t size = clauseSize(c);
            for (uint32_t k = 2; k < size; ++k) {
                if (value(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    movedWatches_.push_back({~lits[1], {c, first}});
                    foundWatch = true;
                    break;
                }
            }
            if (foundWatch)
                continue;

            // Clause is unit or conflicting.
            *j++ = {c, first};
            if (value(first) == LBool::False) {
                // Conflict: copy remaining watchers and bail out.
                while (i != end)
                    *j++ = *i++;
                wl.size = static_cast<uint32_t>(j - ws);
                flushMovedWatches();
                qhead_ = trail_.size();
                return c;
            }
            enqueue(first, c);
        }
        wl.size = static_cast<uint32_t>(j - ws);
        flushMovedWatches();
        if (static_cast<size_t>(p.index()) < edgeHead_.size() &&
            edgeHead_[p.index()] != kNoEdge) {
            const CRef cycle = activateEdges(p);
            if (cycle != kNoClause) {
                qhead_ = trail_.size();
                return cycle;
            }
        }
    }
    return kNoClause;
}

void
Solver::analyze(CRef conflict, std::vector<Lit> &outLearnt, int &outBtLevel)
{
    outLearnt.clear();
    outLearnt.push_back(kUndefLit); // slot for the asserting literal

    int pathCount = 0;
    Lit p = kUndefLit;
    size_t index = trail_.size();

    CRef reason = conflict;
    do {
        GPUMC_ASSERT(reason != kNoClause, "no reason during conflict analysis");
        if (isLearnt(reason))
            claBumpActivity(reason);
        const Lit *lits = clauseLits(reason);
        const uint32_t size = clauseSize(reason);
        for (uint32_t k = (p == kUndefLit) ? 0 : 1; k < size; ++k) {
            Lit q = lits[k];
            Var v = q.var();
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = 1;
                varBumpActivity(v);
                if (level_[v] >= decisionLevel())
                    pathCount++;
                else
                    outLearnt.push_back(q);
            }
        }
        // Select the next literal on the trail to resolve on.
        while (!seen_[trail_[index - 1].var()])
            index--;
        p = trail_[--index];
        reason = reason_[p.var()];
        seen_[p.var()] = 0;
        pathCount--;
    } while (pathCount > 0);
    outLearnt[0] = ~p;

    // Simple clause minimization: drop literals implied by the rest via
    // their reason clause at the same level set.
    auto redundant = [&](Lit l) {
        const CRef r = reason_[l.var()];
        if (r == kNoClause)
            return false;
        const Lit *lits = clauseLits(r);
        for (uint32_t k = 1; k < clauseSize(r); ++k) {
            Lit q = lits[k];
            if (!seen_[q.var()] && level_[q.var()] > 0)
                return false;
        }
        return true;
    };
    // Remember every var of the pre-minimization clause: removed
    // literals must have their seen_ flags cleared too.
    std::vector<Var> &marked = markedBuf_;
    marked.clear();
    for (Lit l : outLearnt)
        marked.push_back(l.var());

    size_t jj = 1;
    for (size_t ii = 1; ii < outLearnt.size(); ++ii) {
        if (!redundant(outLearnt[ii]))
            outLearnt[jj++] = outLearnt[ii];
    }
    outLearnt.resize(jj);

    // Compute the backtrack level: the second-highest level in the clause.
    if (outLearnt.size() == 1) {
        outBtLevel = 0;
    } else {
        size_t maxIdx = 1;
        for (size_t k = 2; k < outLearnt.size(); ++k) {
            if (level_[outLearnt[k].var()] > level_[outLearnt[maxIdx].var()])
                maxIdx = k;
        }
        std::swap(outLearnt[1], outLearnt[maxIdx]);
        outBtLevel = level_[outLearnt[1].var()];
    }

    for (Var v : marked)
        seen_[v] = 0;
}

void
Solver::cancelUntil(int levelTo)
{
    if (decisionLevel() <= levelTo)
        return;
    int keep = trailLim_[levelTo];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= keep; --i) {
        Var v = trail_[i].var();
        polarity_[v] = trail_[i].sign();
        assigns_[v] = LBool::Undef;
        reason_[v] = kNoClause;
        if (heapIndex_[v] < 0)
            heapInsert(v);
    }
    trail_.resize(keep);
    trailLim_.resize(levelTo);
    qhead_ = trail_.size();
    // The edges joined in trail order, so those whose literals were
    // just unassigned are the last to have joined.
    while (!activeEdges_.empty()) {
        const EdgeRef ref = activeEdges_.back();
        Graph &g = graphs_[ref.graph];
        if (value(g.edges[ref.edge].lit) != LBool::Undef)
            break;
        unlinkEdge(g, ref.edge);
        activeEdges_.pop_back();
    }
}

Lit
Solver::pickBranchLit()
{
    while (!heapEmpty()) {
        Var v = heapPop();
        if (value(v) == LBool::Undef)
            return mkLit(v, polarity_[v]);
    }
    return kUndefLit;
}

void
Solver::varBumpActivity(Var v)
{
    activity_[v] += varInc_;
    if (activity_[v] > kRescaleLimit) {
        for (double &a : activity_)
            a *= 1e-100;
        varInc_ *= 1e-100;
    }
    if (heapIndex_[v] >= 0)
        heapUpdate(v);
}

void
Solver::varDecayActivity()
{
    varInc_ /= kVarDecay;
}

void
Solver::claBumpActivity(CRef c)
{
    const double activity = clauseActivity(c) + claInc_;
    setClauseActivity(c, activity);
    if (activity > kRescaleLimit) {
        for (CRef l : learnts_)
            setClauseActivity(l, clauseActivity(l) * 1e-100);
        claInc_ *= 1e-100;
    }
}

void
Solver::claDecayActivity()
{
    claInc_ /= kClaDecay;
}

void
Solver::reduceDB()
{
    auto locked = [&](CRef c) {
        const Lit first = clauseLits(c)[0];
        return reason_[first.var()] == c && value(first) == LBool::True;
    };
    std::sort(learnts_.begin(), learnts_.end(), [this](CRef a, CRef b) {
        return clauseActivity(a) < clauseActivity(b);
    });
    size_t target = learnts_.size() / 2;
    size_t dropped = 0;
    size_t kept = 0;
    for (CRef c : learnts_) {
        bool drop = dropped < target && clauseSize(c) > 2 && !locked(c);
        if (drop) {
            detachClause(c);
            freeClause(c);
            stats_.removedClauses++;
            dropped++;
        } else {
            learnts_[kept++] = c;
        }
    }
    learnts_.resize(kept);
    if (static_cast<double>(wastedWords_) >
        kArenaWasteShare * static_cast<double>(arena_.size()))
        compactArena();
    const double poolSize = static_cast<double>(watchPool_.size());
    if (poolSize - static_cast<double>(liveWatchers()) >
        kWatchWasteShare * poolSize)
        compactWatchPool();
}

bool
Solver::search(int64_t conflictBudget, const std::vector<Lit> &assumptions,
               bool &doneOut)
{
    doneOut = false;
    int64_t conflictCount = 0;

    while (true) {
        CRef conflict = propagate();
        if (timedOut_) {
            cancelUntil(0);
            return false; // solveLimited reports Unknown
        }
        if (conflict != kNoClause) {
            stats_.conflicts++;
            conflictCount++;
            if (decisionLevel() == 0) {
                doneOut = true;
                ok_ = false;
                return false;
            }
            std::vector<Lit> &learnt = learntBuf_;
            int btLevel = 0;
            analyze(conflict, learnt, btLevel);
            // Export before backtracking: computeLbd reads the trail
            // levels of the conflict, which cancelUntil erases.
            if (!stores_.empty())
                exportLearnt(learnt);
            cancelUntil(btLevel);
            if (learnt.size() == 1) {
                enqueue(learnt[0], kNoClause);
            } else {
                CRef clause = allocClause(learnt, /*learnt=*/true);
                claBumpActivity(clause);
                attachClause(clause);
                enqueue(learnt[0], clause);
                learnts_.push_back(clause);
                stats_.learnedClauses++;
            }
            varDecayActivity();
            claDecayActivity();
            continue;
        }

        if (conflictBudget >= 0 && conflictCount >= conflictBudget) {
            cancelUntil(0);
            return false; // restart (doneOut stays false)
        }
        // Honour the shared wall-clock deadline and interrupt flag at
        // conflict boundaries as well (propagate() checks them
        // mid-run).
        if ((conflictCount & 63) == 0 &&
            (interrupted_.load(std::memory_order_relaxed) ||
             (deadline_.limited() && deadline_.expired()))) {
            timedOut_ = true;
            cancelUntil(0);
            return false; // solveLimited reports Unknown
        }
        if (learnts_.size() >
            clauses_.size() * 2 + 4000 + 100 * trailLim_.size()) {
            reduceDB();
        }

        // Respect assumptions before free decisions.
        Lit next = kUndefLit;
        while (decisionLevel() < static_cast<int>(assumptions.size())) {
            Lit p = assumptions[decisionLevel()];
            if (value(p) == LBool::True) {
                trailLim_.push_back(static_cast<int>(trail_.size()));
            } else if (value(p) == LBool::False) {
                doneOut = true;
                return false; // UNSAT under assumptions
            } else {
                next = p;
                break;
            }
        }

        if (next == kUndefLit) {
            next = pickBranchLit();
            if (next == kUndefLit) {
                // All variables assigned: model found.
                model_.assign(assigns_.begin(), assigns_.end());
                doneOut = true;
                return true;
            }
            stats_.decisions++;
        }
        trailLim_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, kNoClause);
    }
}

bool
Solver::solve(const std::vector<Lit> &assumptions)
{
    int64_t saved = timeLimitMs_;
    timeLimitMs_ = 0; // unlimited
    Status status = solveLimited(assumptions);
    timeLimitMs_ = saved;
    GPUMC_ASSERT(status != Status::Unknown);
    return status == Status::Sat;
}

Solver::Status
Solver::solveLimited(const std::vector<Lit> &assumptions)
{
    if (!ok_)
        return Status::Unsat;
    model_.clear();

    // One deadline for the whole call, shared by the restart loop, the
    // conflict loop and propagation (no more per-loop local deadlines).
    deadline_ = Deadline::in(timeLimitMs_);
    timedOut_ = false;
    bool done = false;
    bool result = false;
    int restarts = 0;
    while (!done) {
        if (timedOut_ || interrupted_.load(std::memory_order_relaxed) ||
            deadline_.expired()) {
            cancelUntil(0);
            deadline_ = Deadline(); // never leaks into addClause()
            return Status::Unknown;
        }
        // Restart boundaries are the import points: the trail is at
        // level 0, so foreign clauses can be re-validated against root
        // assignments and attached with both watches unassigned.
        if (!stores_.empty() && !importShared()) {
            cancelUntil(0);
            deadline_ = Deadline();
            return Status::Unsat;
        }
        int64_t budget = static_cast<int64_t>(luby(2.0, restarts) * 100);
        result = search(budget, assumptions, done);
        if (!done && !timedOut_) {
            restarts++;
            stats_.restarts++;
        }
    }
    cancelUntil(0);
    deadline_ = Deadline();
    return result ? Status::Sat : Status::Unsat;
}

void
Solver::attachStore(std::shared_ptr<ClauseStore> store)
{
    GPUMC_ASSERT(store != nullptr, "attachStore without a store");
    StoreAttachment att;
    att.source = store->registerSource();
    att.store = std::move(store);
    stores_.push_back(std::move(att));
}

int
Solver::computeLbd(const std::vector<Lit> &lits) const
{
    // Literal block distance: distinct decision levels in the clause.
    // Export candidates are small (the size filter runs first), so the
    // quadratic distinct-count stays cheap.
    int lbd = 0;
    for (size_t i = 0; i < lits.size(); ++i) {
        int li = level_[lits[i].var()];
        bool dup = false;
        for (size_t j = 0; j < i; ++j) {
            if (level_[lits[j].var()] == li) {
                dup = true;
                break;
            }
        }
        if (!dup)
            lbd++;
    }
    return lbd;
}

void
Solver::exportLearnt(const std::vector<Lit> &lits)
{
    int lbd = -1;
    for (StoreAttachment &att : stores_) {
        if (lits.size() > att.store->maxSize()) {
            shareStats_.rejected++;
            continue;
        }
        if (lbd < 0)
            lbd = computeLbd(lits);
        if (lbd > att.store->maxLbd()) {
            shareStats_.rejected++;
            continue;
        }
        att.store->publish(att.source, lits);
        shareStats_.exported++;
    }
}

bool
Solver::importShared()
{
    GPUMC_ASSERT(decisionLevel() == 0,
                 "clause import outside a restart boundary");
    std::vector<Lit> pruned;
    for (StoreAttachment &att : stores_) {
        importBuf_.clear();
        att.store->fetch(att.source, att.cursor, importBuf_);
        for (const std::vector<Lit> &lits : importBuf_) {
            // Re-validate against the importing solver's root trail.
            bool drop = false;
            pruned.clear();
            for (Lit l : lits) {
                if (l.var() < 0 || l.var() >= numVars()) {
                    drop = true; // publisher knew more variables
                    break;
                }
                LBool v = value(l);
                if (v == LBool::True) {
                    drop = true; // root-satisfied: nothing to learn
                    break;
                }
                if (v == LBool::Undef)
                    pruned.push_back(l);
                // Root-false literals are dropped: the remainder is
                // still implied (the clause minus literals false at
                // level 0 of a shared database).
            }
            if (drop) {
                shareStats_.rejected++;
                continue;
            }
            if (pruned.empty()) {
                // Every literal is root-false: the shared database is
                // unsatisfiable at the root.
                ok_ = false;
                shareStats_.imported++;
                return false;
            }
            if (pruned.size() == 1) {
                shareStats_.imported++;
                if (!enqueue(pruned[0], kNoClause) ||
                    propagate() != kNoClause) {
                    ok_ = false;
                    return false;
                }
                continue;
            }
            CRef clause = allocClause(pruned, /*learnt=*/true);
            // A fresh import deserves a fighting chance in reduceDB.
            claBumpActivity(clause);
            attachClause(clause);
            learnts_.push_back(clause);
            shareStats_.imported++;
        }
    }
    return ok_;
}

std::vector<Var>
Solver::topActivityVars(int n) const
{
    std::vector<Var> vars;
    for (Var v = 0; v < numVars(); ++v) {
        if (assigns_[v] == LBool::Undef)
            vars.push_back(v);
    }
    std::sort(vars.begin(), vars.end(), [this](Var a, Var b) {
        if (activity_[a] != activity_[b])
            return activity_[a] > activity_[b];
        return a < b;
    });
    if (n >= 0 && vars.size() > static_cast<size_t>(n))
        vars.resize(static_cast<size_t>(n));
    return vars;
}

LBool
Solver::modelValue(Lit l) const
{
    if (l.var() < 0 || l.var() >= static_cast<int>(model_.size()))
        return LBool::Undef;
    return model_[l.var()] ^ l.sign();
}

// --- indexed binary max-heap on variable activity -----------------------

void
Solver::heapInsert(Var v)
{
    GPUMC_ASSERT(heapIndex_[v] < 0);
    heapIndex_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heapPercolateUp(heapIndex_[v]);
}

void
Solver::heapUpdate(Var v)
{
    GPUMC_ASSERT(heapIndex_[v] >= 0);
    heapPercolateUp(heapIndex_[v]);
}

Var
Solver::heapPop()
{
    GPUMC_ASSERT(!heap_.empty());
    Var top = heap_[0];
    heapIndex_[top] = -1;
    if (heap_.size() > 1) {
        heap_[0] = heap_.back();
        heapIndex_[heap_[0]] = 0;
        heap_.pop_back();
        heapPercolateDown(0);
    } else {
        heap_.pop_back();
    }
    return top;
}

void
Solver::heapPercolateUp(int i)
{
    Var v = heap_[i];
    while (i > 0) {
        int parent = (i - 1) >> 1;
        if (!heapLess(v, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heapIndex_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heapIndex_[v] = i;
}

void
Solver::heapPercolateDown(int i)
{
    Var v = heap_[i];
    int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heapLess(heap_[child + 1], heap_[child]))
            child++;
        if (!heapLess(heap_[child], v))
            break;
        heap_[i] = heap_[child];
        heapIndex_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heapIndex_[v] = i;
}

} // namespace gpumc::smt::sat
