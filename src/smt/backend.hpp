/**
 * @file
 * Solver-independent backend interface. The encoder produces plain CNF
 * through this interface, so any backend that can handle clauses over
 * boolean variables plugs in; the one other constraint, acyclicity
 * (addAcyclic), may be declined and is then encoded in clauses too.
 * Two implementations ship with gpumc:
 *  - BuiltinBackend: the from-scratch CDCL solver in smt/sat, which
 *    takes the acyclicity constraints into its search.
 *  - Z3Backend: the native Z3 C++ API, which declines them.
 */

#ifndef GPUMC_SMT_BACKEND_HPP
#define GPUMC_SMT_BACKEND_HPP

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace gpumc::smt {

/**
 * Backend-neutral literal: a non-zero integer; negative values are the
 * negation of the corresponding positive literal (DIMACS convention).
 */
using Lit = int32_t;

enum class SolveResult { Sat, Unsat, Unknown };

/** Truth value of a literal in a model. */
enum class TruthValue { False, True, Unknown };

/** One edge of an acyclicity constraint: present iff @p lit is true. */
struct AcyclicEdge {
    int from = 0;
    int to = 0;
    Lit lit = 0;
};

class Backend {
  public:
    virtual ~Backend() = default;

    /** Allocate a fresh variable; returns its positive literal. */
    virtual Lit newVar() = 0;

    /**
     * Assert a clause (disjunction of literals). The backend copies
     * what it keeps, so the caller may reuse the storage.
     */
    virtual void addClause(std::span<const Lit> clause) = 0;
    /** `addClause({-act, l})` without building a vector. */
    void addClause(std::initializer_list<Lit> clause)
    {
        addClause(std::span<const Lit>(clause.begin(), clause.size()));
    }

    /**
     * Constrain the edges whose literals are true to form an acyclic
     * graph. A backend that enforces the constraint itself returns
     * true. The default declines, and the caller must then encode the
     * constraint in clauses.
     */
    virtual bool addAcyclic(std::span<const AcyclicEdge>) { return false; }

    /** Edges taken over by addAcyclic so far. */
    virtual int64_t numAcyclicEdges() const { return 0; }

    /** Solve the asserted clauses under optional assumptions. */
    virtual SolveResult solve(const std::vector<Lit> &assumptions = {}) = 0;

    /**
     * Allocate a fresh activation (selector) literal for assumption-
     * guarded incremental queries. Clauses asserted as
     * `{-act, l1, ..., ln}` only constrain the search when `act` is
     * passed to solve() as an assumption; passing `-act` retires the
     * group without destroying learned clauses. The default is a plain
     * fresh variable, which is exactly what both shipped backends need
     * — the method exists so backends with native selector support
     * (e.g. tracked assertions) can override it.
     */
    virtual Lit mkActivationLit() { return newVar(); }

    /**
     * Best-effort resource cap for subsequent solve() calls; when
     * exhausted, solve returns Unknown. Any value <= 0 disables the
     * limit entirely (restores the backend's unlimited default) — both
     * shipped backends must agree on this disable semantics.
     */
    virtual void setTimeLimitMs(int64_t) {}

    /** Model value of @p lit after a Sat result. */
    virtual TruthValue modelValue(Lit lit) const = 0;

    /** Number of variables allocated so far. */
    virtual int64_t numVars() const = 0;

    /** Number of clauses asserted so far. */
    virtual int64_t numClauses() const = 0;

    /** Human-readable backend name for reports. */
    virtual std::string name() const = 0;

    /**
     * Search statistics accumulated by solve() calls so far, as
     * backend-defined named counters. Both shipped backends report at
     * least `solveCalls`; the builtin CDCL solver additionally reports
     * `conflicts`, `decisions`, `propagations`, `restarts`,
     * `learnedClauses`, `removedClauses` and `acyclicConflicts`, and Z3
     * whatever its native statistics expose (keys normalized to
     * snake-ish form).
     */
    virtual std::map<std::string, int64_t> statistics() const
    {
        return {};
    }
};

/** Which backend a verification run should use. */
enum class BackendKind { Z3, Builtin };

/** Stable lower-case name for CLI flags and test parameter labels. */
const char *backendKindName(BackendKind kind);

/**
 * Learned-clause sharing scope for the builtin CDCL solver:
 *  - Off:  no sharing, bit for bit. The default — sharing keeps
 *          verdicts identical but makes the search path (and therefore
 *          witnesses and solver statistics) depend on thread timing,
 *          which strict-determinism callers (the fuzz campaign log)
 *          cannot accept.
 *  - Cube: share between the main solver and the cube-and-conquer
 *          workers of one backend, across rounds and queries. Does
 *          nothing without a cube depth.
 */
enum class ClauseShareMode { Off, Cube };

inline bool
shareCubesEnabled(ClauseShareMode mode)
{
    return mode == ClauseShareMode::Cube;
}

/** Construction-time knobs that are not part of the query interface. */
struct BackendConfig {
    /**
     * Cube-and-conquer split depth for the builtin CDCL solver: split
     * each query on the 2^depth sign combinations of the `depth`
     * highest-activity unassigned variables and farm the cubes through
     * the shared thread budget. 0 (default) disables cubing.
     */
    int cubeDepth = 0;
    /**
     * Cube-scope clause sharing: the main solver and every cube worker
     * publish learned clauses to one per-backend store and import each
     * other's at restart boundaries (their clause databases are
     * identical, so every learned clause is valid in all of them). Off
     * by default.
     */
    bool shareCubes = false;
};

/** Factory. */
std::unique_ptr<Backend> makeBackend(BackendKind kind,
                                     const BackendConfig &config = {});

/**
 * Arm @p backend's time limit from @p deadline, honouring the
 * "<= 0 disables" contract of setTimeLimitMs: an unlimited deadline
 * restores the unlimited default and an expired one must NOT be
 * forwarded as remainingMs() == 0 (that would launch an unbounded
 * solve). Returns false when the deadline has already expired — the
 * caller must then report Unknown instead of solving; as defence in
 * depth the backend is still armed with a 1 ms budget.
 */
bool armTimeLimit(Backend &backend, const Deadline &deadline);

} // namespace gpumc::smt

#endif // GPUMC_SMT_BACKEND_HPP
