/**
 * @file
 * Backend adapter over the built-in CDCL solver. It takes over every
 * acyclicity constraint (addAcyclic) as a graph of the solver's own.
 * It has an optional cube-and-conquer mode: when constructed with
 * cubeDepth > 0, each solve() splits on the sign combinations of the
 * highest-activity unassigned variables and farms the cubes through
 * the shared thread budget, first-Sat-wins (lowest cube index, for
 * determinism).
 */

#ifndef GPUMC_SMT_BUILTIN_BACKEND_HPP
#define GPUMC_SMT_BUILTIN_BACKEND_HPP

#include <memory>
#include <mutex>
#include <utility>

#include "smt/backend.hpp"
#include "smt/sat/solver.hpp"

namespace gpumc::smt {

class BuiltinBackend : public Backend {
  public:
    explicit BuiltinBackend(const BackendConfig &config = {});

    using Backend::addClause;
    Lit newVar() override;
    void addClause(std::span<const Lit> clause) override;
    bool addAcyclic(std::span<const AcyclicEdge> edges) override;
    int64_t numAcyclicEdges() const override { return numAcyclicEdges_; }
    SolveResult solve(const std::vector<Lit> &assumptions) override;
    void setTimeLimitMs(int64_t ms) override
    {
        // Match the interface contract (and the Z3 backend): any value
        // <= 0 disables the limit rather than starving the solver.
        timeLimitMs_ = ms > 0 ? ms : 0;
        solver_.setTimeLimitMs(timeLimitMs_);
    }
    TruthValue modelValue(Lit lit) const override;
    int64_t numVars() const override { return solver_.numVars(); }
    int64_t numClauses() const override { return numClauses_; }
    std::string name() const override { return "builtin-cdcl"; }
    std::map<std::string, int64_t> statistics() const override;

    const sat::SolverStats &stats() const { return solver_.stats(); }

  private:
    static sat::Lit toSat(Lit l)
    {
        return sat::mkLit(std::abs(l) - 1, l < 0);
    }

    SolveResult solveMain(const std::vector<sat::Lit> &assumps);
    SolveResult solveCubes(const std::vector<sat::Lit> &assumps);

    sat::Solver solver_;
    /** addClause's converted copy, kept to reuse its capacity. */
    std::vector<sat::Lit> clauseBuf_;
    int cubeDepth_ = 0;
    int64_t timeLimitMs_ = 0;
    int64_t numClauses_ = 0;
    int64_t numAcyclicEdges_ = 0;
    int64_t solveCalls_ = 0;
    bool unsat_ = false;

    // --- cube-and-conquer state (all idle when cubeDepth_ == 0) ------
    /** Original clauses and acyclicity graphs, replayed into the
     *  per-cube solvers. */
    std::vector<std::vector<sat::Lit>> recorded_;
    std::vector<std::vector<sat::AcyclicEdge>> recordedGraphs_;
    /** The cube solver whose model answered the last Sat query. */
    std::unique_ptr<sat::Solver> cubeModel_;
    /** In-flight cube solvers, so a Sat cube can cancel its
     *  higher-index siblings. */
    std::vector<std::pair<int, sat::Solver *>> activeCubes_;
    mutable std::mutex cubeMutex_;
    sat::SolverStats cubeStats_;
    int64_t cubeSolves_ = 0;
    int64_t cubeRounds_ = 0;

    // --- learned-clause sharing (see sat/clause_store.hpp) -----------
    /**
     * Cube-scope store (BackendConfig::shareCubes): the main solver and
     * the cube workers publish and import through it — their clause
     * databases are identical by construction.
     */
    std::shared_ptr<sat::ClauseStore> cubeStore_;
    /** Share counters of finished cube solvers (under cubeMutex_). */
    sat::ShareStats cubeShareStats_;
};

} // namespace gpumc::smt

#endif // GPUMC_SMT_BUILTIN_BACKEND_HPP
