/**
 * @file
 * A from-scratch CDCL SAT solver: two-watched-literal propagation,
 * first-UIP clause learning, VSIDS decision heuristic with an indexed
 * heap, phase saving, Luby restarts and activity-based learned-clause
 * database reduction.
 *
 * Clause storage follows MiniSat's clause allocator (Eén & Sörensson,
 * "An Extensible SAT-solver", SAT 2003): every clause of size two or
 * more lives inline in one growable arena of 32-bit words, as a
 * three-word header (size and flags, then the `double` activity)
 * followed by its literals, and is named by its 32-bit offset (CRef).
 * Watchers, reasons and the clause lists hold offsets, so a watcher
 * visit reads the arena directly instead of chasing two pointers.
 * reduceDB detaches the clauses it drops and only marks them in the
 * arena; once they take more than a fifth of it (kArenaWasteShare),
 * the live clauses are copied into a fresh arena in address order and
 * every offset is relocated. Nothing a clause holds changes on the
 * way, and no watch list is reordered, so the storage has no effect
 * on the search.
 *
 * Watch lists share one pool too, as Kissat's vectors do: each
 * literal owns a block of the pool, recorded as {begin, size,
 * capacity}. A full list moves to a block of twice its capacity, or
 * grows in place when its block ends the pool; the block it leaves
 * joins a free list of its size class (capacities are powers of two)
 * and is handed to the next list that grows to that size. A pool out
 * of room reserves four times what it needs (kWatchPoolGrowth), so it
 * is copied less often than by doubling. propagate()
 * queues each watch it moves to another literal and pushes the queue
 * in order once the current list is done, so the pool never moves
 * under the list being walked. A list holds the same watchers in the
 * same order as a vector per literal would, so the pool has no effect
 * on the search either, and a solver owns two watch vectors instead
 * of two per variable.
 *
 * Acyclicity constraints (addAcyclic) are enforced lazily, in the
 * manner of CAAT ("Consistency as a Theory", Haas et al., OOPSLA
 * 2022): each constraint is a graph of (from, to, literal) edges, and
 * an edge joins it when propagate() takes its literal off the trail.
 * The active edges keep a topological order of the nodes, maintained
 * incrementally after Pearce and Kelly, so most insertions are one
 * comparison. An edge that closes a cycle makes the cycle's negated
 * edge literals a learnt conflict clause; cancelUntil takes out again
 * every edge whose literal it unassigns. The encoder hands every
 * `.cat` `acyclic` axiom over this way, instead of the bit-blasted
 * clocks it still builds for Z3.
 *
 * This is the solver behind gpumc's built-in backend; the encoder can
 * alternatively target Z3 (see smt/z3_backend.hpp). Keeping a native
 * solver makes the whole pipeline self-contained and enables the
 * solver-ablation benchmark.
 */

#ifndef GPUMC_SMT_SAT_SOLVER_HPP
#define GPUMC_SMT_SAT_SOLVER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "smt/sat/clause_store.hpp"
#include "smt/sat/types.hpp"
#include "support/stats.hpp"

namespace gpumc::smt::sat {

/** Aggregate solving statistics. */
struct SolverStats {
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t conflicts = 0;
    uint64_t restarts = 0;
    uint64_t learnedClauses = 0;
    uint64_t removedClauses = 0;
    /** Conflicts an acyclicity constraint raised (see addAcyclic). */
    uint64_t acyclicConflicts = 0;
};

/** One edge of an acyclicity constraint: present iff @p lit is true. */
struct AcyclicEdge {
    int from = 0;
    int to = 0;
    Lit lit;
};

/** Clause-sharing statistics of one solver (see attachStore). */
struct ShareStats {
    /** Clauses published to attached stores. */
    uint64_t exported = 0;
    /** Foreign clauses attached (or enqueued as units) after import
     *  re-validation. */
    uint64_t imported = 0;
    /** Clauses dropped by the export filter (LBD/size) or by import
     *  re-validation (unknown variable, root-satisfied). */
    uint64_t rejected = 0;
};

class Solver {
  public:
    Solver();
    ~Solver();

    Solver(const Solver &) = delete;
    Solver &operator=(const Solver &) = delete;

    /** Create a fresh variable and return its index. */
    Var newVar();

    int numVars() const { return static_cast<int>(assigns_.size()); }

    /**
     * Add a clause. Returns false if the solver becomes trivially
     * unsatisfiable (empty clause, or a root-level conflict).
     */
    bool addClause(std::span<const Lit> lits);
    bool addClause(std::initializer_list<Lit> lits)
    {
        return addClause(std::span<const Lit>(lits.begin(), lits.size()));
    }

    /**
     * Constrain the edges whose literals are true to form an acyclic
     * graph over the nodes 0..max(from, to). Like addClause it is
     * called at the root level, and each call adds one graph; the
     * graphs of one solver are independent. Edges false at the root
     * are dropped and edges true there join at once; a literal whose
     * own edges close a cycle (a self-loop, or a cycle with the root
     * edges) is asserted false. Returns false if the solver becomes
     * unsatisfiable, as on a cycle of root edges.
     */
    bool addAcyclic(std::span<const AcyclicEdge> edges);

    enum class Status { Sat, Unsat, Unknown };

    /**
     * Solve under the given assumptions.
     * @retval true satisfiable; the model is queryable via modelValue.
     * @retval false unsatisfiable under the assumptions.
     */
    bool solve(const std::vector<Lit> &assumptions = {});

    /**
     * Like solve(), but respects the wall-clock limit set with
     * setTimeLimitMs and reports Unknown when it is exhausted.
     */
    Status solveLimited(const std::vector<Lit> &assumptions = {});

    /** Wall-clock budget per solveLimited call; 0 disables. */
    void setTimeLimitMs(int64_t ms) { timeLimitMs_ = ms; }

    /**
     * Cooperative cancellation from another thread: the flag is polled
     * (relaxed loads) at the same amortized points as the deadline —
     * in propagate(), at conflict boundaries in search() and at the
     * top of the restart loop — but unlike the deadline it is checked
     * even when no time limit is armed. An interrupted solveLimited()
     * returns Unknown; learned clauses and activities survive exactly
     * as they do across a timeout. The flag stays raised, so an
     * interrupt that wins a race with solve entry still cancels that
     * solve — and every later one: an interrupted solver is done.
     */
    void interrupt() { interrupted_.store(true, std::memory_order_relaxed); }

    /**
     * The @p n unassigned (at the root level) variables with the
     * highest VSIDS activity — ties broken by variable index, so the
     * result is deterministic. Used by cube-and-conquer to pick split
     * variables; earlier queries on the same solver warm the scores.
     */
    std::vector<Var> topActivityVars(int n) const;

    /**
     * Attach a shared clause store. Learned clauses passing the
     * store's export filter (LBD and size thresholds) are published;
     * foreign clauses are imported at restart boundaries, re-validated
     * against the root-level trail (root-satisfied clauses are
     * skipped, root-false literals dropped, units enqueued, an empty
     * remainder is a root conflict).
     *
     * Any learned clause that passes the filter may be exported, so
     * the attached solvers must share one clause database (cube
     * workers replay the main solver's). Multiple stores may be attached; each keeps its own
     * cursor. Sharing never changes verdicts, but does make the search
     * path — and therefore witnesses and statistics — dependent on
     * timing.
     */
    void attachStore(std::shared_ptr<ClauseStore> store);

    const ShareStats &shareStats() const { return shareStats_; }

    /** Value of a literal in the last model (solve() returned true). */
    LBool modelValue(Lit l) const;

    const SolverStats &stats() const { return stats_; }

    /** True if addClause has already derived root-level unsatisfiability. */
    bool inConflict() const { return !ok_; }

    /** Words in the clause arena, including those of dropped clauses. */
    size_t arenaWords() const { return arena_.size(); }
    /** Arena words of the clauses still in the database. */
    size_t liveClauseWords() const;
    /** Slots in the watch pool: live watchers, the spare capacity of
     *  each list and the blocks on the free lists. */
    size_t watchPoolSize() const { return watchPool_.size(); }
    /** Watchers of the clauses still in the database. */
    size_t liveWatchers() const;

  private:
    /** Offset of a clause's header in arena_. */
    using CRef = uint32_t;
    static constexpr CRef kNoClause = std::numeric_limits<CRef>::max();
    /** Size and flags, then the activity (a double in two words). */
    static constexpr uint32_t kHeaderWords = 3;
    static constexpr int32_t kLearntFlag = 1;
    static constexpr int32_t kDroppedFlag = 2;
    static constexpr int kFlagBits = 2;

    struct Watcher {
        CRef clause = kNoClause;
        Lit blocker;
    };
    /** The watchers of one literal: watchPool_[begin, begin + size),
     *  in a block of capacity slots. */
    struct WatchList {
        uint32_t begin = 0;
        uint32_t size = 0;
        uint32_t capacity = 0;
    };
    /** A watch propagate() moved, waiting to join @p list. */
    struct MovedWatch {
        Lit list;
        Watcher watcher;
    };
    /** The capacity of a list's first block; every block holds this
     *  many slots times a power of two. */
    static constexpr uint32_t kMinWatchCapacity = 4;
    /** Ends a free list of watch blocks. */
    static constexpr uint32_t kNoBlock = std::numeric_limits<uint32_t>::max();

    // --- clause arena ---------------------------------------------------
    uint32_t clauseSize(CRef c) const
    {
        return static_cast<uint32_t>(arena_[c].x) >> kFlagBits;
    }
    bool isLearnt(CRef c) const { return (arena_[c].x & kLearntFlag) != 0; }
    Lit *clauseLits(CRef c) { return arena_.data() + c + kHeaderWords; }
    double clauseActivity(CRef c) const;
    void setClauseActivity(CRef c, double activity);
    CRef allocClause(std::span<const Lit> lits, bool learnt);
    /** Mark a detached clause as dropped; its words become waste. */
    void freeClause(CRef c);
    /** Copy the live clauses into a fresh arena and relocate every
     *  offset held by watchers, reasons and the clause lists. */
    void compactArena();

    // --- watch pool -----------------------------------------------------
    /** Append @p w to the watchers visited when @p p becomes true. */
    void pushWatch(Lit p, Watcher w)
    {
        WatchList &wl = watchLists_[p.index()];
        if (wl.size == wl.capacity)
            growWatchList(wl);
        watchPool_[wl.begin + wl.size++] = w;
    }
    /** Give a full list twice its capacity, moving it unless its block
     *  ends the pool. */
    void growWatchList(WatchList &wl);
    /** Resize the pool, reserving kWatchPoolGrowth times @p size when
     *  it runs out of room. */
    void resizeWatchPool(size_t size);
    /** Copy every list into a fresh pool, each with the least capacity
     *  that holds it, and empty the free lists. */
    void compactWatchPool();
    /** Append the watches propagate() moved, in the order it moved
     *  them. */
    void flushMovedWatches();

    // --- internal machinery -------------------------------------------
    LBool value(Lit l) const
    {
        return assigns_[l.var()] ^ l.sign();
    }
    LBool value(Var v) const { return assigns_[v]; }

    int decisionLevel() const
    {
        return static_cast<int>(trailLim_.size());
    }

    void attachClause(CRef c);
    void detachClause(CRef c);
    bool enqueue(Lit l, CRef reason);
    /** Returns the conflicting clause, or kNoClause. */
    CRef propagate();
    void analyze(CRef conflict, std::vector<Lit> &outLearnt,
                 int &outBtLevel);
    void cancelUntil(int level);
    Lit pickBranchLit();
    void varBumpActivity(Var v);
    void varDecayActivity();
    void claBumpActivity(CRef c);
    void claDecayActivity();
    void reduceDB();
    bool search(int64_t conflictBudget, const std::vector<Lit> &assumptions,
                bool &doneOut);

    // --- acyclicity constraints ------------------------------------------
    /**
     * One addAcyclic graph. out/in list the active edges at each node
     * in the order they joined, so the edge cancelUntil takes out is
     * always the last of both of its lists. ord is a topological
     * order of the nodes that every active edge respects; taking an
     * edge out keeps it one.
     */
    struct Graph {
        std::vector<AcyclicEdge> edges;
        std::vector<std::vector<uint32_t>> out;
        std::vector<std::vector<uint32_t>> in;
        std::vector<int> ord;
        /** Search marks (equal to epoch: visited) and, for the forward
         *  search, the edge each node was reached by. */
        std::vector<uint32_t> mark;
        std::vector<uint32_t> via;
        uint32_t epoch = 0;
    };
    struct EdgeRef {
        uint32_t graph;
        uint32_t edge;
    };
    /** An edge waiting on its literal, and the next one waiting on the
     *  same literal (kNoEdge ends the list). */
    struct EdgeWatch {
        EdgeRef ref;
        uint32_t next;
    };
    static constexpr uint32_t kNoEdge = std::numeric_limits<uint32_t>::max();

    /**
     * Insert edge @p e into its graph's active edges unless it closes
     * a cycle; then leave the cycle's edges in cycleBuf_ and return
     * false.
     */
    bool linkEdge(Graph &g, uint32_t e);
    void unlinkEdge(Graph &g, uint32_t e);
    uint32_t nextEpoch(Graph &g);
    /** Activate the edges labelled @p p; returns a cycle's conflict
     *  clause, or kNoClause. */
    CRef activateEdges(Lit p);
    /** The learnt conflict clause of the cycle in cycleBuf_. */
    CRef cycleConflict(const Graph &g);

    // --- clause sharing -------------------------------------------------
    int computeLbd(const std::vector<Lit> &lits) const;
    void exportLearnt(const std::vector<Lit> &lits);
    /** Import foreign clauses at a restart boundary (level 0).
     *  Returns false on a root-level conflict (ok_ already false). */
    bool importShared();

    // --- heap for VSIDS ------------------------------------------------
    void heapInsert(Var v);
    void heapUpdate(Var v);
    Var heapPop();
    bool heapEmpty() const { return heap_.empty(); }
    void heapPercolateUp(int i);
    void heapPercolateDown(int i);
    bool heapLess(Var a, Var b) const
    {
        return activity_[a] > activity_[b];
    }

    // --- state ----------------------------------------------------------
    bool ok_ = true;
    std::vector<LBool> assigns_;
    std::vector<bool> polarity_; // saved phases
    std::vector<int> level_;
    std::vector<CRef> reason_;
    std::vector<Lit> trail_;
    std::vector<int> trailLim_;
    size_t qhead_ = 0;

    /** Every watch list's block; see WatchList. */
    std::vector<Watcher> watchPool_;
    std::vector<WatchList> watchLists_; // indexed by Lit::index()
    /** The first free block of each capacity 2^k, at index k; a free
     *  block's first watcher holds the offset of the next one. */
    std::array<uint32_t, 32> freeWatchBlocks_;
    /** Scratch of propagate(): the watches moved off the current
     *  literal's list. */
    std::vector<MovedWatch> movedWatches_;
    /**
     * The clause arena: a clause at offset c is
     *   arena_[c].x          size << kFlagBits | dropped | learnt
     *   arena_[c + 1 .. 2]   activity (a double, copied bytewise)
     *   arena_[c + 3 ...]    its literals
     */
    std::vector<Lit> arena_;
    /** Words of dropped clauses still in arena_. */
    size_t wastedWords_ = 0;
    std::vector<CRef> clauses_;
    std::vector<CRef> learnts_;

    std::vector<double> activity_;
    double varInc_ = 1.0;
    double claInc_ = 1.0;

    std::vector<int> heap_;      // heap of vars
    std::vector<int> heapIndex_; // var -> position in heap_, or -1

    std::vector<uint8_t> seen_;
    std::vector<LBool> model_;

    std::vector<Graph> graphs_;
    /** The edges each literal activates, as lists threaded through
     *  edgeWatches_, headed by Lit::index(). */
    std::vector<uint32_t> edgeHead_;
    std::vector<EdgeWatch> edgeWatches_;
    /** Every active edge, in the order the edges joined. */
    std::vector<EdgeRef> activeEdges_;
    // Scratch of linkEdge and cycleConflict: a cycle's edges, the two
    // search sets, the positions they share, and the conflict clause.
    std::vector<uint32_t> cycleBuf_;
    std::vector<int> forwardBuf_;
    std::vector<int> backwardBuf_;
    std::vector<int> ordBuf_;
    std::vector<Lit> cycleLits_;

    // Scratch buffers, kept to reuse their capacity: addClause's
    // normalized copy, the clause a conflict teaches, and the
    // variables analyze() marks.
    std::vector<Lit> addBuf_;
    std::vector<Lit> learntBuf_;
    std::vector<Var> markedBuf_;

    int64_t timeLimitMs_ = 0;
    /**
     * The one wall-clock deadline of the current solveLimited() call.
     * Armed once per solve from timeLimitMs_ and consulted by the
     * restart loop, the conflict loop *and* long propagation runs —
     * previously the outer and inner loops each computed their own
     * local deadline and only checked it at conflict boundaries, so a
     * conflict-free propagation-heavy search could overshoot its
     * budget arbitrarily.
     */
    Deadline deadline_;
    bool timedOut_ = false;
    /** Cross-thread cancellation request; see interrupt(). */
    std::atomic<bool> interrupted_{false};

    /** One shared-store attachment; see attachStore(). */
    struct StoreAttachment {
        std::shared_ptr<ClauseStore> store;
        int source = -1;
        uint64_t cursor = 0;
    };
    std::vector<StoreAttachment> stores_;
    /** Scratch buffer for fetch() batches (kept to reuse capacity). */
    std::vector<std::vector<Lit>> importBuf_;
    ShareStats shareStats_;

    SolverStats stats_;
};

} // namespace gpumc::smt::sat

#endif // GPUMC_SMT_SAT_SOLVER_HPP
