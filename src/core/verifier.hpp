/**
 * @file
 * The public verification API of gpumc (the paper's Dartagnan role):
 * checks litmus programs against `.cat` consistency models for safety
 * (final-state conditions), liveness (spinloop progress) and data-race
 * freedom (`flag ~empty` axioms).
 *
 * A `Verifier` owns one shared incremental session per (program,
 * model, bound): the unroll/analysis/structural-encoding pipeline runs
 * once, and each property's specific constraints are asserted behind a
 * fresh activation literal and queried via `solve({activation, ...})`
 * on the same live solver, preserving learned clauses across
 * properties (the assumption-based incremental style of Dartagnan-like
 * BMC tools).
 *
 * `VerifierOptions::engine` picks the engine behind the same API. The
 * enumerative engines (DPOR and the explicit baseline) explore a
 * program once per Verifier and answer Safety and CatSpec from that
 * one exploration.
 */

#ifndef GPUMC_CORE_VERIFIER_HPP
#define GPUMC_CORE_VERIFIER_HPP

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cat/model.hpp"
#include "core/witness.hpp"
#include "program/program.hpp"
#include "smt/backend.hpp"
#include "support/stats.hpp"

namespace gpumc::dpor {
struct DporResult;
} // namespace gpumc::dpor

namespace gpumc::cli {
class Parser;
} // namespace gpumc::cli

namespace gpumc::core {

enum class Property { Safety, Liveness, CatSpec };

/**
 * Smt: the bounded SMT encoding; it answers every property. Dpor
 * (src/dpor) and Explicit (the same exploration with nothing pruned,
 * the Alloy stand-in) enumerate the executions of straight-line
 * programs. They answer Safety and CatSpec and report Liveness, and
 * programs outside their fragment, as unknown with a reason.
 */
enum class Engine { Smt, Dpor, Explicit };

/** How an enumerative engine's unknown result on a program outside its
 *  fragment begins its detail; the reason follows. */
inline constexpr std::string_view kUnsupportedDetail = "unsupported: ";

struct VerifierOptions {
    Engine engine = Engine::Smt;
    /**
     * SMT backend. The built-in CDCL solver is the default: on gpumc's
     * Tseitin-CNF encodings it consistently outperforms Z3 by an order
     * of magnitude (see bench/ablation_solver).
     */
    smt::BackendKind backend = smt::BackendKind::Builtin;
    /** Loop unroll bound (number of backward jumps per thread). */
    int bound = 2;
    /** Bit width of data values; 0 = sized automatically from the
     *  program's value universe. */
    int valueBits = 0;
    /** Re-check SAT witnesses with the concrete evaluator (paranoia). */
    bool validateWitness = false;
    /** Lower-bound shortcuts from the relation analysis (ablation). */
    bool useLowerBounds = true;
    /** Force closure soundness indices everywhere (ablation). */
    bool forceClosureSoundness = false;
    /**
     * Wall-clock budget per property check, in milliseconds; 0 =
     * unlimited. The budget is a single shared deadline for the whole
     * check — every solver query issued by the check draws from the
     * same remaining budget. Under the enumerative engines it bounds
     * the check's exploration. When exhausted the result carries
     * unknown=true.
     */
    int64_t solverTimeoutMs = 0;
    /** Enumerative engines: complete executions one exploration may
     *  evaluate (0 = unlimited). When exhausted the result carries
     *  unknown=true. */
    uint64_t maxCandidates = 0;
    /** Extract an execution witness on SAT results. */
    bool wantWitness = true;
    /**
     * Cube-and-conquer split depth inside the builtin CDCL solver:
     * each query is split into 2^depth cubes on high-activity
     * variables and farmed through the shared thread budget.
     * 0 = disabled.
     */
    int cubeDepth = 0;
    /**
     * Learned-clause sharing scope for the builtin CDCL solver (see
     * smt::ClauseShareMode). `Cube` shares between the main solver and
     * the cube workers of one backend. Off by default: sharing never
     * changes verdicts, but it makes witnesses and solver statistics
     * timing-dependent.
     */
    smt::ClauseShareMode clauseShare = smt::ClauseShareMode::Off;
};

struct VerificationResult {
    Property property = Property::Safety;

    /**
     * Did the property hold?
     *  - Safety: the quantified litmus statement is true (exists:
     *    reachable; ~exists: unreachable; forall: no counterexample).
     *  - Liveness: no liveness violation exists.
     *  - CatSpec: no flagged behaviour (e.g. data race) exists.
     */
    bool holds = false;

    /** No verdict: the check ran out of budget, or the engine cannot
     *  answer it (see `detail`); `holds` is meaningless. */
    bool unknown = false;

    std::string detail;
    std::optional<ExecutionWitness> witness;

    double timeMs = 0.0;
    StatsRegistry stats;
};

class Verifier {
  public:
    Verifier(const prog::Program &program, const cat::CatModel &model,
             VerifierOptions options = {});
    ~Verifier();

    /** Check the litmus exists/~exists/forall condition. */
    VerificationResult checkSafety();
    /** Check for liveness violations (Section 6.4). */
    VerificationResult checkLiveness();
    /** Check `flag ~empty` axioms (e.g. Vulkan DRF). */
    VerificationResult checkCatSpec();

    /** Dispatch by property. */
    VerificationResult check(Property property);

    /**
     * Check several properties on one shared session: the pipeline
     * (unroll, analyses, structural encoding) runs exactly once and
     * every property is an assumption-guarded query on the same live
     * solver. Results are in the order of @p properties.
     */
    std::vector<VerificationResult>
    checkAll(const std::vector<Property> &properties = {
                 Property::Safety, Property::Liveness, Property::CatSpec});

    /**
     * Adjust the per-check budget for subsequent checks (the live
     * session, including its learned clauses, is kept). A timed-out
     * check never poisons later checks: each check re-arms its own
     * deadline from this option, and an enumerative exploration that
     * ran out of budget is re-run by the next check.
     */
    void setSolverTimeoutMs(int64_t ms) { options_.solverTimeoutMs = ms; }

    /**
     * Export the phase timings and encoding sizes collected by the
     * session built so far into @p stats (same keys as
     * `VerificationResult::stats`). Returns false — leaving @p stats
     * untouched — when no check has built a session yet. Used by
     * `BatchVerifier` to attach the already-collected pipeline stats
     * to a job that failed mid-check instead of dropping them.
     */
    bool exportPipelineStats(StatsRegistry &stats) const;

    const VerifierOptions &options() const { return options_; }

  private:
    /**
     * The shared encoding session: backend + full structural encoding,
     * built lazily on the first check and reused by every later check
     * of this Verifier. Property-specific constraints are guarded by
     * activation literals so the one solver serves all properties.
     */
    struct Session;
    VerificationResult run(Property property);
    /** run() for the enumerative engines. */
    VerificationResult runEnumerative(Property property);

    const prog::Program &program_;
    const cat::CatModel &model_;
    VerifierOptions options_;
    std::unique_ptr<Session> session_;
    /** The enumerative engines' last exploration. */
    std::unique_ptr<dpor::DporResult> explored_;
};

/** Declare `--bound=N` on @p cli, in [prog::kMinBound, prog::kMaxBound]. */
void addBoundFlag(cli::Parser &cli, int &bound);

/** Declare `--timeout=MS`, the budget of each check, on @p cli. */
void addTimeoutFlag(cli::Parser &cli, int64_t &timeoutMs);

/**
 * Declare the verifier flags the command-line tools share on @p cli:
 * --engine, --bound, --timeout, --backend, --cube-depth and
 * --clause-share.
 */
void addVerifierFlags(cli::Parser &cli, VerifierOptions &options);

} // namespace gpumc::core

#endif // GPUMC_CORE_VERIFIER_HPP
