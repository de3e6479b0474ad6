#include "smt/builtin_backend.hpp"

#include <algorithm>
#include <atomic>

#include "support/diagnostics.hpp"
#include "support/thread_budget.hpp"
#include "support/trace.hpp"

namespace gpumc::smt {

BuiltinBackend::BuiltinBackend(const BackendConfig &config)
    : cubeDepth_(config.cubeDepth)
{
    if (config.shareCubes) {
        cubeStore_ = std::make_shared<sat::ClauseStore>();
        solver_.attachStore(cubeStore_);
    }
}

Lit
BuiltinBackend::newVar()
{
    return solver_.newVar() + 1;
}

void
BuiltinBackend::addClause(std::span<const Lit> clause)
{
    clauseBuf_.clear();
    for (Lit l : clause) {
        GPUMC_ASSERT(l != 0, "invalid zero literal");
        clauseBuf_.push_back(toSat(l));
    }
    numClauses_++;
    if (cubeDepth_ > 0)
        recorded_.push_back(clauseBuf_); // replayed into per-cube solvers
    if (!solver_.addClause(clauseBuf_))
        unsat_ = true;
}

bool
BuiltinBackend::addAcyclic(std::span<const AcyclicEdge> edges)
{
    std::vector<sat::AcyclicEdge> graph;
    graph.reserve(edges.size());
    for (const AcyclicEdge &edge : edges) {
        GPUMC_ASSERT(edge.lit != 0, "invalid zero literal");
        graph.push_back({edge.from, edge.to, toSat(edge.lit)});
    }
    numAcyclicEdges_ += static_cast<int64_t>(edges.size());
    if (!solver_.addAcyclic(graph))
        unsat_ = true;
    if (cubeDepth_ > 0)
        recordedGraphs_.push_back(std::move(graph));
    return true;
}

SolveResult
BuiltinBackend::solve(const std::vector<Lit> &assumptions)
{
    solveCalls_++;
    cubeModel_.reset();
    if (unsat_)
        return SolveResult::Unsat;
    std::vector<sat::Lit> assumps;
    assumps.reserve(assumptions.size());
    for (Lit l : assumptions)
        assumps.push_back(toSat(l));

    if (cubeDepth_ > 0)
        return solveCubes(assumps);
    return solveMain(assumps);
}

SolveResult
BuiltinBackend::solveMain(const std::vector<sat::Lit> &assumps)
{
    trace::Span span("sat-solve");
    const bool traced = trace::Tracer::instance().enabled();
    sat::SolverStats before;
    if (traced)
        before = solver_.stats();

    sat::Solver::Status status = solver_.solveLimited(assumps);

    if (traced) {
        const sat::SolverStats &after = solver_.stats();
        auto delta = [](uint64_t a, uint64_t b) {
            return std::to_string(a - b);
        };
        span.arg("conflicts", delta(after.conflicts, before.conflicts));
        span.arg("decisions", delta(after.decisions, before.decisions));
        span.arg("propagations",
                 delta(after.propagations, before.propagations));
        span.arg("restarts", delta(after.restarts, before.restarts));
    }

    switch (status) {
      case sat::Solver::Status::Sat:
        span.arg("result", "sat");
        return SolveResult::Sat;
      case sat::Solver::Status::Unsat:
        span.arg("result", "unsat");
        return SolveResult::Unsat;
      default:
        span.arg("result", "unknown");
        return SolveResult::Unknown;
    }
}

SolveResult
BuiltinBackend::solveCubes(const std::vector<sat::Lit> &assumps)
{
    // Split on the highest-activity unassigned variables; earlier
    // queries on the same incremental session warm the scores. Ties
    // break on variable index, so the cube list is deterministic.
    std::vector<sat::Var> splits =
        solver_.topActivityVars(std::min(cubeDepth_, 16));
    if (splits.empty())
        return solveMain(assumps);
    const int numCubes = 1 << static_cast<int>(splits.size());
    cubeRounds_++;

    trace::Span span("sat-cube-solve");
    span.arg("cubes", std::to_string(numCubes));

    const int varCount = solver_.numVars();
    std::vector<SolveResult> results(
        static_cast<size_t>(numCubes), SolveResult::Unknown);
    std::vector<std::unique_ptr<sat::Solver>> satCube(
        static_cast<size_t>(numCubes));
    // Lowest Sat cube index seen so far; numCubes = none yet. The
    // final winner is the lowest-index cube that completes with Sat,
    // independent of scheduling: a Sat finish only cancels cubes with
    // *higher* indices, so every cube at or below the eventual winner
    // runs to its own (deterministic) verdict.
    std::atomic<int> minSat{numCubes};

    auto runCube = [&](int64_t index) {
        const int cube = static_cast<int>(index);
        if (cube > minSat.load(std::memory_order_relaxed))
            return; // moot; result stays Unknown
        auto solver = std::make_unique<sat::Solver>();
        for (int v = 0; v < varCount; ++v)
            solver->newVar();
        // Attach before the clause replay: units learned by siblings
        // can then already prune the replayed database at import time.
        if (cubeStore_)
            solver->attachStore(cubeStore_);
        bool consistent = true;
        for (const auto &clause : recorded_) {
            if (!solver->addClause(clause)) {
                consistent = false;
                break;
            }
        }
        for (size_t i = 0; consistent && i < recordedGraphs_.size(); ++i)
            consistent = solver->addAcyclic(recordedGraphs_[i]);
        if (!consistent) {
            results[static_cast<size_t>(cube)] = SolveResult::Unsat;
            return;
        }
        solver->setTimeLimitMs(timeLimitMs_);
        std::vector<sat::Lit> cubeAssumps = assumps;
        for (size_t bit = 0; bit < splits.size(); ++bit)
            cubeAssumps.push_back(
                sat::mkLit(splits[bit], ((cube >> bit) & 1) != 0));
        {
            std::lock_guard<std::mutex> lock(cubeMutex_);
            activeCubes_.emplace_back(cube, solver.get());
        }

        sat::Solver::Status status = solver->solveLimited(cubeAssumps);

        {
            std::lock_guard<std::mutex> lock(cubeMutex_);
            activeCubes_.erase(
                std::find_if(activeCubes_.begin(), activeCubes_.end(),
                             [&](const auto &entry) {
                                 return entry.second == solver.get();
                             }));
            const sat::SolverStats &st = solver->stats();
            cubeStats_.decisions += st.decisions;
            cubeStats_.propagations += st.propagations;
            cubeStats_.conflicts += st.conflicts;
            cubeStats_.restarts += st.restarts;
            cubeStats_.learnedClauses += st.learnedClauses;
            cubeStats_.removedClauses += st.removedClauses;
            cubeStats_.acyclicConflicts += st.acyclicConflicts;
            const sat::ShareStats &sh = solver->shareStats();
            cubeShareStats_.exported += sh.exported;
            cubeShareStats_.imported += sh.imported;
            cubeShareStats_.rejected += sh.rejected;
            cubeSolves_++;
        }
        if (status == sat::Solver::Status::Sat) {
            results[static_cast<size_t>(cube)] = SolveResult::Sat;
            satCube[static_cast<size_t>(cube)] = std::move(solver);
            int current = minSat.load(std::memory_order_relaxed);
            while (cube < current &&
                   !minSat.compare_exchange_weak(current, cube)) {}
            std::lock_guard<std::mutex> lock(cubeMutex_);
            for (auto &[idx, active] : activeCubes_) {
                if (idx > cube)
                    active->interrupt();
            }
        } else if (status == sat::Solver::Status::Unsat) {
            results[static_cast<size_t>(cube)] = SolveResult::Unsat;
        }
    };
    // parallelFor leases helper slots from the shared ThreadBudget and
    // degrades to a sequential sweep when none are free.
    parallelFor(numCubes, static_cast<unsigned>(numCubes), runCube);

    const int winner = minSat.load(std::memory_order_relaxed);
    if (winner < numCubes) {
        cubeModel_ = std::move(satCube[static_cast<size_t>(winner)]);
        span.arg("result", "sat");
        return SolveResult::Sat;
    }
    const bool allUnsat =
        std::all_of(results.begin(), results.end(), [](SolveResult r) {
            return r == SolveResult::Unsat;
        });
    span.arg("result", allUnsat ? "unsat" : "unknown");
    return allUnsat ? SolveResult::Unsat : SolveResult::Unknown;
}

std::map<std::string, int64_t>
BuiltinBackend::statistics() const
{
    const sat::SolverStats &st = solver_.stats();
    auto count = [](uint64_t v) { return static_cast<int64_t>(v); };
    std::map<std::string, int64_t> out{
        {"solveCalls", solveCalls_},
        {"conflicts", count(st.conflicts)},
        {"decisions", count(st.decisions)},
        {"propagations", count(st.propagations)},
        {"restarts", count(st.restarts)},
        {"learnedClauses", count(st.learnedClauses)},
        {"removedClauses", count(st.removedClauses)},
        {"acyclicConflicts", count(st.acyclicConflicts)},
    };
    if (cubeDepth_ > 0) {
        std::lock_guard<std::mutex> lock(cubeMutex_);
        out["cube.rounds"] = cubeRounds_;
        out["cube.solves"] = cubeSolves_;
        out["cube.conflicts"] = count(cubeStats_.conflicts);
        out["cube.decisions"] = count(cubeStats_.decisions);
        out["cube.propagations"] = count(cubeStats_.propagations);
    }
    if (cubeStore_) {
        sat::ShareStats share = solver_.shareStats();
        {
            std::lock_guard<std::mutex> lock(cubeMutex_);
            share.exported += cubeShareStats_.exported;
            share.imported += cubeShareStats_.imported;
            share.rejected += cubeShareStats_.rejected;
        }
        out["share.exported"] = count(share.exported);
        out["share.imported"] = count(share.imported);
        out["share.rejected"] = count(share.rejected);
        out["share.storeSize"] = static_cast<int64_t>(cubeStore_->size());
    }
    return out;
}

TruthValue
BuiltinBackend::modelValue(Lit lit) const
{
    // A cube win answers from the cube solver's model; the main
    // solver never saw that Sat assignment.
    const sat::Solver &source = cubeModel_ ? *cubeModel_ : solver_;
    switch (source.modelValue(toSat(lit))) {
      case sat::LBool::True:
        return TruthValue::True;
      case sat::LBool::False:
        return TruthValue::False;
      default:
        return TruthValue::Unknown;
    }
}

} // namespace gpumc::smt
