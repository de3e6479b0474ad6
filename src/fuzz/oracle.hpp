/**
 * @file
 * Differential oracle harness: runs one program through several engine
 * configurations and cross-checks the verdicts. Each oracle is data
 * (an Oracle): pairs of a reference side and a variant side, each a
 * program, a core::VerifierOptions and the properties checked, plus the
 * relation their verdicts must satisfy. Seven oracles, in log order:
 *
 *  - roundtrip:       builtin SMT on the program vs on its emitted and
 *                     reparsed litmus text
 *  - smt-vs-explicit: builtin SMT vs the explicit-state baseline
 *                     (safety and, for flagged models, DRF)
 *  - z3-vs-builtin:   the two SMT backends on identical encodings
 *  - bound-mono:      metamorphic check: a violation witnessed at
 *                     unroll bound k must persist at bound k+1
 *  - dpor:            builtin SMT vs the DPOR stateless model-checking
 *                     engine, like smt-vs-explicit
 *  - session-reuse:   (opt-in) the shared builtin and z3 sessions,
 *                     every property, vs one fresh Verifier per
 *                     property; the detail strings must match too
 *  - clause-sharing:  (opt-in) the shared builtin session vs the
 *                     builtin backend with cube-scope clause sharing
 *                     at cube depth 2: imported clauses must never flip
 *                     a verdict
 *
 * addOracleJobs puts every side of every oracle into one batch
 * (OracleJobs), where sides asking for the same run share its job and
 * equal session keys share a session; only session-reuse's fresh
 * Verifiers run beside it. compareOracles screens and compares every
 * oracle from the resulting core::BatchEntry list. A
 * program the enumerative engines cannot check is reported as SKIPPED
 * with their reason, never as agreement.
 */

#ifndef GPUMC_FUZZ_ORACLE_HPP
#define GPUMC_FUZZ_ORACLE_HPP

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cat/model.hpp"
#include "core/batch_verifier.hpp"
#include "core/session_key.hpp"
#include "program/program.hpp"

namespace gpumc::fuzz {

enum class OracleKind {
    RoundTrip,
    SmtVsExplicit,
    Z3VsBuiltin,
    BoundMono,
    Dpor,
    SessionReuse,
    ClauseSharing
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

    /** Also run session-reuse: one fresh Verifier per property and
     *  backend on top of the shared sessions. */
    bool sessionReuse = false;
    /** Also run clause-sharing: every property again on the builtin
     *  backend with cube depth 2. */
    bool clauseSharing = false;

    /** Candidate cap of each enumerative (explicit or DPOR) check. */
    uint64_t enumerativeMaxCandidates = 50000;
    /** Wall-clock budget of every check, SMT or enumerative, in
     *  milliseconds (0 = none). Off by default, so whether a check runs
     *  out of budget, and with it the log, does not depend on machine
     *  load. */
    int64_t solverTimeoutMs = 0;

    int effectiveZ3Bound() const { return z3Bound > 0 ? z3Bound : bound; }
};

/** One engine configuration an oracle runs. */
struct OracleSide {
    /** Names the side in skip and disagreement details. */
    std::string name;
    /** Runs on the emitted and reparsed copy of the program. */
    bool reparsed = false;
    /** Checks each property on a Verifier of its own, instead of the
     *  session the batch shares between jobs with equal keys. */
    bool fresh = false;
    core::VerifierOptions options;
    std::vector<core::Property> properties;
    /** Filled by addOracleJobs: the job of each property. */
    std::vector<size_t> jobs;
};

enum class OracleRelation {
    /** Both sides reach the same verdict on every property; an unknown
     *  on either side skips the comparison. */
    SameVerdict,
    /** Both sides give the same answer, unknown included: two
     *  configurations of one engine must also run out of budget
     *  alike. */
    SameAnswer,
    /** The same answer and the same detail string. */
    SameAnswerAndDetail,
    /** A witness the reference finds at its bound, the variant still
     *  finds at its larger one. */
    WitnessPersists
};

struct Oracle {
    OracleKind kind = OracleKind::RoundTrip;
    OracleRelation relation = OracleRelation::SameVerdict;
    /** (reference, variant) pairs, compared in order: the first one
     *  that does not agree decides the outcome. Both sides of a pair
     *  check the same properties. */
    std::vector<std::pair<OracleSide, OracleSide>> pairs;
};

/**
 * The oracles @p options enables against @p model, in log order, or,
 * given @p only, just that one (shrinker predicates and tests).
 */
std::vector<Oracle> makeOracles(const OracleOptions &options,
                                const cat::CatModel &model,
                                std::optional<OracleKind> only = {});

/** The engine runs of any number of programs' oracles. */
struct OracleJobs {
    std::vector<core::BatchJob> jobs;
    /** fresh[i]: jobs[i] runs on a Verifier of its own rather than in
     *  the one BatchVerifier batch of every other job. */
    std::vector<bool> fresh;
    /** The shared job of each (program, property, session key) queued
     *  so far: sides that ask for the same run read the same entry.
     *  The key leaves out the per-check budget, which makeOracles
     *  gives every side of one engine alike. */
    std::map<std::tuple<const prog::Program *, core::Property,
                        core::SessionKey>,
             size_t>
        shared;

    /** Run every job on up to @p workers threads (0 = hardware
     *  concurrency); entry i belongs to jobs[i]. */
    std::vector<core::BatchEntry> run(unsigned workers) const;
};

/**
 * Queue the runs of every side of @p oracles on @p program and record
 * in each side which jobs are its own. @p reparsed is the program's
 * emitted and reparsed copy (null when that failed); the pointees must
 * outlive the run. Job labels start with @p tag.
 */
void addOracleJobs(const prog::Program &program,
                   const prog::Program *reparsed,
                   const cat::CatModel &model, std::vector<Oracle> &oracles,
                   const std::string &tag, OracleJobs &jobs);

/** Did the quantified statement witness a behaviour? (exists: holds;
 *  ~exists/forall: a violating behaviour was found, i.e. !holds). */
bool witnessFound(const prog::Program &program,
                  const core::VerificationResult &result);

/**
 * Emit @p program as litmus text and parse it back into @p out.
 * Returns why that failed, or "" when it did not.
 */
std::string reparse(const prog::Program &program, prog::Program &out);

/**
 * Screen and compare every oracle of @p program from the entries of
 * its jobs. @p reparseError is reparse()'s answer: a failed round trip
 * is a roundtrip disagreement.
 */
OracleReport compareOracles(const prog::Program &program,
                            const std::vector<Oracle> &oracles,
                            const std::vector<core::BatchEntry> &entries,
                            const std::string &reparseError = "");

/** Run makeOracles(@p options, @p model, @p only) on one program, on
 *  the calling thread, and compare. */
OracleReport runOracles(const prog::Program &program,
                        const cat::CatModel &model,
                        const OracleOptions &options,
                        std::optional<OracleKind> only = {});

} // namespace gpumc::fuzz

#endif // GPUMC_FUZZ_ORACLE_HPP
