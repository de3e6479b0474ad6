/**
 * @file
 * Differential oracle harness: runs one program through several
 * independent engines and cross-checks the verdicts. Seven oracles:
 *
 *  - roundtrip:       emit litmus text, reparse, same SMT verdict
 *  - smt-vs-explicit: SMT engine vs the explicit-state enumerator
 *                     (safety and, for flagged models, DRF). When the
 *                     explicit checker cannot handle the program it is
 *                     reported as SKIPPED with the reason — never
 *                     silently counted as agreement.
 *  - z3-vs-builtin:   the two SMT backends on identical encodings
 *  - bound-mono:      metamorphic check — a violation witnessed at
 *                     unroll bound k must persist at bound k+1
 *  - session-reuse:   checkAll() on one shared incremental session
 *                     must agree verdict-for-verdict (including detail
 *                     strings, with witness validation on) with three
 *                     fresh-session checks, on both backends
 *  - clause-sharing:  the builtin backend with cube-scope clause
 *                     sharing (cube depth 2) must agree on
 *                     holds/unknown with the sharing-off baseline —
 *                     imported clauses must never flip a verdict
 *  - dpor:            the DPOR stateless model-checking engine vs the
 *                     SMT verdicts (safety and, for flagged models,
 *                     DRF) — a third, structurally different engine
 *                     next to smt-vs-explicit; unsupported programs
 *                     are SKIPPED with the reason
 *
 * Every engine run the comparing oracles need, the enumerative ones
 * included, is a core::BatchJob (addOracleJobs), so the campaign
 * driver fans all of them out through one core::BatchVerifier run and
 * compareOracles reads their results (oracleInputs). runOracles does
 * the same for a single program, for the shrinker and the tests.
 */

#ifndef GPUMC_FUZZ_ORACLE_HPP
#define GPUMC_FUZZ_ORACLE_HPP

#include <string>
#include <vector>

#include "cat/model.hpp"
#include "core/batch_verifier.hpp"
#include "program/program.hpp"

namespace gpumc::fuzz {

enum class OracleKind {
    RoundTrip,
    SmtVsExplicit,
    Z3VsBuiltin,
    BoundMono,
    SessionReuse,
    ClauseSharing,
    Dpor
};

const char *oracleName(OracleKind kind);

enum class OracleVerdict { Agree, Skipped, Disagree };

const char *oracleVerdictName(OracleVerdict verdict);

struct OracleOutcome {
    OracleKind kind = OracleKind::RoundTrip;
    OracleVerdict verdict = OracleVerdict::Agree;
    /** Skip reason or disagreement description. */
    std::string detail;
};

struct OracleReport {
    std::vector<OracleOutcome> outcomes;

    bool anyDisagreement() const;
    const OracleOutcome *find(OracleKind kind) const;
    /** One deterministic log line, e.g.
     *  "roundtrip=agree smt-vs-explicit=skip(compare-and-swap) ...". */
    std::string summary() const;
};

struct OracleOptions {
    /** Unroll bound k for every engine (bound-mono also runs k+1). */
    int bound = 2;
    /**
     * Bound for the Z3 side of z3-vs-builtin; 0 = same as `bound`.
     * Setting it lower deliberately breaks the oracle — the
     * `--inject=bound-gap` fault used to exercise shrinking and repro
     * emission end to end.
     */
    int z3Bound = 0;

    bool roundTrip = true;
    bool smtVsExplicit = true;
    bool z3VsBuiltin = true;
    bool boundMono = true;
    /**
     * Shared-session vs fresh-session differential (self-contained in
     * runOracles; compareOracles has no inputs for it). Off by default:
     * it re-verifies every property twice per backend, so campaigns
     * opt in explicitly.
     */
    bool sessionReuse = false;
    /**
     * Sharing-on vs sharing-off differential on the builtin backend
     * (self-contained in runOracles, like sessionReuse). Off by
     * default: it re-verifies every property twice.
     */
    bool clauseSharing = false;
    /**
     * DPOR-vs-SMT differential. Off by default: it explores every case
     * through a third engine.
     */
    bool dpor = false;

    /** Budget of each enumerative (explicit or DPOR) check: a candidate
     *  cap and a wall-clock budget in milliseconds. */
    uint64_t enumerativeMaxCandidates = 50000;
    int64_t enumerativeTimeoutMs = 3000;
    int64_t solverTimeoutMs = 0;

    int effectiveZ3Bound() const { return z3Bound > 0 ? z3Bound : bound; }
    /** Restrict to a single oracle (shrinker predicates). */
    OracleOptions only(OracleKind kind) const;
};

/** Outcome of one engine invocation, for compareOracles. */
struct EngineRun {
    bool ran = false;
    /** The engine threw; `error` holds the message. */
    bool failed = false;
    std::string error;
    core::VerificationResult result;

    static EngineRun of(core::VerificationResult r)
    {
        EngineRun run;
        run.ran = true;
        run.result = std::move(r);
        return run;
    }
    static EngineRun failure(std::string message)
    {
        EngineRun run;
        run.ran = true;
        run.failed = true;
        run.error = std::move(message);
        return run;
    }
};

/** Everything compareOracles needs; unused slots stay ran=false. */
struct OracleInputs {
    const prog::Program *program = nullptr;
    bool modelFlagged = false;

    EngineRun builtinSafety;   // builtin backend, bound k
    EngineRun z3Safety;        // z3 backend, effectiveZ3Bound()
    EngineRun builtinNext;     // builtin backend, bound k+1
    EngineRun builtinDrf;      // builtin backend CatSpec, bound k
    EngineRun roundTripSafety; // builtin, bound k, on the reparsed text
    /** Non-empty when emit/reparse itself failed. */
    std::string roundTripError;

    EngineRun explicitSafety; // explicit baseline
    EngineRun explicitDrf;    // explicit baseline CatSpec
    EngineRun dporSafety;     // DPOR engine
    EngineRun dporDrf;        // DPOR engine CatSpec
};

/** Batch-job indices of one case's engine runs (-1 = not run). */
struct OracleSlots {
    int builtin = -1;
    int z3 = -1;
    int next = -1;
    int drf = -1;
    int roundTrip = -1;
    int explicitSafety = -1;
    int explicitDrf = -1;
    int dporSafety = -1;
    int dporDrf = -1;
};

/**
 * Append to @p batch the engine runs that the enabled comparing
 * oracles need for @p program. @p reparsed is its emitted and
 * reparsed copy (null when that failed or roundtrip is off); the
 * pointees must outlive the batch run. Job labels start with @p tag.
 */
OracleSlots addOracleJobs(const prog::Program &program,
                          const prog::Program *reparsed,
                          const cat::CatModel &model,
                          const OracleOptions &options,
                          const std::string &tag,
                          std::vector<core::BatchJob> &batch);

/** The compareOracles inputs of one case, read from the batch run. */
OracleInputs oracleInputs(const prog::Program &program,
                          const cat::CatModel &model,
                          const OracleSlots &slots,
                          const std::vector<core::BatchEntry> &entries,
                          std::string roundTripError);

/** Did the quantified statement witness a behaviour? (exists: holds;
 *  ~exists/forall: a violating behaviour was found, i.e. !holds). */
bool witnessFound(const prog::Program &program,
                  const core::VerificationResult &result);

/** Cross-check pre-computed engine runs. */
OracleReport compareOracles(const OracleInputs &inputs,
                            const OracleOptions &options);

/**
 * Run just the shared-vs-fresh session differential (self-contained:
 * verifies all three properties on one checkAll() session and on
 * three fresh sessions, per backend). Used by runOracles when
 * `options.sessionReuse` is set and by the campaign driver, which
 * fans it across workers itself.
 */
OracleOutcome sessionReuseOracle(const prog::Program &program,
                                 const cat::CatModel &model,
                                 const OracleOptions &options);

/**
 * Run just the clause-sharing differential (self-contained): a
 * checkAll() on the builtin backend with cube-scope clause sharing at
 * cube depth 2 must agree on holds/unknown, property for property,
 * with the sharing-off baseline. Detail strings are not compared: sharing legally changes
 * which witness the solver finds. Used by runOracles when
 * `options.clauseSharing` is set and by the campaign driver, which
 * fans it across workers itself.
 */
OracleOutcome clauseSharingOracle(const prog::Program &program,
                                  const cat::CatModel &model,
                                  const OracleOptions &options);

/** Run every enabled engine sequentially and cross-check. */
OracleReport runOracles(const prog::Program &program,
                        const cat::CatModel &model,
                        const OracleOptions &options);

} // namespace gpumc::fuzz

#endif // GPUMC_FUZZ_ORACLE_HPP
