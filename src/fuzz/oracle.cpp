#include "fuzz/oracle.hpp"

#include "litmus/litmus_emitter.hpp"
#include "litmus/litmus_parser.hpp"
#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"

namespace gpumc::fuzz {

const char *
oracleName(OracleKind kind)
{
    switch (kind) {
      case OracleKind::RoundTrip: return "roundtrip";
      case OracleKind::SmtVsExplicit: return "smt-vs-explicit";
      case OracleKind::Z3VsBuiltin: return "z3-vs-builtin";
      case OracleKind::BoundMono: return "bound-mono";
      case OracleKind::SessionReuse: return "session-reuse";
      case OracleKind::ClauseSharing: return "clause-sharing";
      case OracleKind::Dpor: return "dpor";
    }
    return "?";
}

const char *
oracleVerdictName(OracleVerdict verdict)
{
    switch (verdict) {
      case OracleVerdict::Agree: return "agree";
      case OracleVerdict::Skipped: return "skip";
      case OracleVerdict::Disagree: return "DISAGREE";
    }
    return "?";
}

bool
OracleReport::anyDisagreement() const
{
    for (const OracleOutcome &o : outcomes) {
        if (o.verdict == OracleVerdict::Disagree)
            return true;
    }
    return false;
}

const OracleOutcome *
OracleReport::find(OracleKind kind) const
{
    for (const OracleOutcome &o : outcomes) {
        if (o.kind == kind)
            return &o;
    }
    return nullptr;
}

std::string
OracleReport::summary() const
{
    std::string out;
    for (const OracleOutcome &o : outcomes) {
        if (!out.empty())
            out += " ";
        out += oracleName(o.kind);
        out += "=";
        out += oracleVerdictName(o.verdict);
        if (!o.detail.empty() && o.verdict != OracleVerdict::Agree)
            out += "(" + o.detail + ")";
    }
    return out;
}

OracleOptions
OracleOptions::only(OracleKind kind) const
{
    OracleOptions out = *this;
    out.roundTrip = kind == OracleKind::RoundTrip;
    out.smtVsExplicit = kind == OracleKind::SmtVsExplicit;
    out.z3VsBuiltin = kind == OracleKind::Z3VsBuiltin;
    out.boundMono = kind == OracleKind::BoundMono;
    out.sessionReuse = kind == OracleKind::SessionReuse;
    out.clauseSharing = kind == OracleKind::ClauseSharing;
    out.dpor = kind == OracleKind::Dpor;
    return out;
}

bool
witnessFound(const prog::Program &program,
             const core::VerificationResult &result)
{
    return program.assertKind == prog::AssertKind::Exists
               ? result.holds
               : !result.holds;
}

namespace {

/** Skip/error screening shared by every oracle. Returns true when the
 *  comparison can proceed on `run.result`. */
bool
screen(const EngineRun &run, const char *who, OracleOutcome &outcome)
{
    if (!run.ran) {
        outcome.verdict = OracleVerdict::Skipped;
        outcome.detail = std::string(who) + " not run";
        return false;
    }
    if (run.failed) {
        // Engine exceptions are surfaced, but as skips: a crash is not
        // a verdict disagreement, and the shrinker must not chase
        // mutants that merely make an engine throw.
        outcome.verdict = OracleVerdict::Skipped;
        outcome.detail = std::string(who) + " error: " + run.error;
        return false;
    }
    if (run.result.unknown) {
        outcome.verdict = OracleVerdict::Skipped;
        outcome.detail = std::string(who) + " exhausted solver budget";
        return false;
    }
    return true;
}

/**
 * screen() for an enumerative engine's run. A program outside the
 * engine's fragment skips with the engine's bare reason: this is the
 * silent-skip hazard, so it must show up, never count as agreement.
 * An exhausted budget skips with a message free of timing-dependent
 * counts, so campaign logs stay deterministic.
 */
bool
screenEnumerative(const EngineRun &run, const char *who,
                  OracleOutcome &outcome)
{
    if (!run.ran || run.failed || !run.result.unknown)
        return screen(run, who, outcome);
    const std::string &detail = run.result.detail;
    outcome.verdict = OracleVerdict::Skipped;
    outcome.detail = startsWith(detail, core::kUnsupportedDetail)
                         ? detail.substr(core::kUnsupportedDetail.size())
                         : std::string(who) + " exploration budget exhausted";
    return false;
}

/**
 * An enumerative engine's safety verdict, and for flagged models its
 * race verdict, against the builtin backend's.
 */
OracleOutcome
compareEnumerative(OracleKind kind, const char *who, const EngineRun &safety,
                   const EngineRun &drf, const OracleInputs &inputs)
{
    OracleOutcome o;
    o.kind = kind;
    if (!screenEnumerative(safety, who, o) ||
        !screen(inputs.builtinSafety, "builtin", o))
        return o;
    if (safety.result.holds != inputs.builtinSafety.result.holds) {
        o.verdict = OracleVerdict::Disagree;
        o.detail = std::string(who) + "=" +
                   (safety.result.holds ? "holds" : "fails") + " smt=" +
                   (inputs.builtinSafety.result.holds ? "holds" : "fails");
        return o;
    }
    if (inputs.modelFlagged && screenEnumerative(drf, who, o) &&
        screen(inputs.builtinDrf, "drf", o)) {
        bool race = !drf.result.holds;
        bool smtRace = !inputs.builtinDrf.result.holds;
        if (race != smtRace) {
            o.verdict = OracleVerdict::Disagree;
            o.detail = std::string(who) + " race=" + (race ? "yes" : "no") +
                       " smt race=" + (smtRace ? "yes" : "no");
        }
    }
    return o;
}

EngineRun
fromEntry(const std::vector<core::BatchEntry> &entries, int index)
{
    if (index < 0)
        return {};
    const core::BatchEntry &entry = entries[static_cast<size_t>(index)];
    if (entry.failed)
        return EngineRun::failure(entry.error);
    return EngineRun::of(entry.result);
}

} // namespace

/**
 * Shared-vs-fresh session differential: one checkAll() on a shared
 * incremental session must match three fresh-session checks verdict
 * for verdict (holds, unknown and the detail string), with witness
 * validation enabled on both sides, on both backends.
 */
OracleOutcome
sessionReuseOracle(const prog::Program &program, const cat::CatModel &model,
                   const OracleOptions &options)
{
    OracleOutcome o;
    o.kind = OracleKind::SessionReuse;

    const core::Property props[] = {core::Property::Safety,
                                    core::Property::Liveness,
                                    core::Property::CatSpec};
    const char *propNames[] = {"safety", "liveness", "catspec"};
    auto describe = [](const core::VerificationResult &r) {
        if (r.unknown)
            return std::string("unknown");
        return std::string(r.holds ? "holds" : "fails") + "(" + r.detail +
               ")";
    };

    for (smt::BackendKind backend :
         {smt::BackendKind::Builtin, smt::BackendKind::Z3}) {
        if (o.verdict != OracleVerdict::Agree)
            break;
        const char *backendName =
            backend == smt::BackendKind::Z3 ? "z3" : "builtin";
        core::VerifierOptions vo;
        vo.backend = backend;
        vo.bound = options.bound;
        vo.validateWitness = true;
        vo.solverTimeoutMs = options.solverTimeoutMs;
        try {
            core::Verifier sharedVerifier(program, model, vo);
            std::vector<core::VerificationResult> shared =
                sharedVerifier.checkAll(
                    {props[0], props[1], props[2]});
            for (size_t i = 0; i < shared.size(); ++i) {
                core::Verifier freshVerifier(program, model, vo);
                core::VerificationResult fresh =
                    freshVerifier.check(props[i]);
                if (fresh.holds != shared[i].holds ||
                    fresh.unknown != shared[i].unknown ||
                    fresh.detail != shared[i].detail) {
                    o.verdict = OracleVerdict::Disagree;
                    o.detail = std::string(backendName) + " " +
                               propNames[i] +
                               ": fresh=" + describe(fresh) +
                               " shared=" + describe(shared[i]);
                    break;
                }
            }
        } catch (const FatalError &error) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = std::string(backendName) + " error: " + error.what();
        } catch (const std::exception &error) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = std::string(backendName) + " error: " + error.what();
        }
    }
    return o;
}

/**
 * Sharing-on vs sharing-off differential on the builtin backend:
 * imported clauses are logical consequences of the shared database, so
 * the verdicts must be bit-identical even though search paths (and
 * witnesses) differ. Cube depth 2 gives the cube-scope store workers
 * to share between.
 */
OracleOutcome
clauseSharingOracle(const prog::Program &program,
                    const cat::CatModel &model,
                    const OracleOptions &options)
{
    OracleOutcome o;
    o.kind = OracleKind::ClauseSharing;

    const core::Property props[] = {core::Property::Safety,
                                    core::Property::Liveness,
                                    core::Property::CatSpec};
    const char *propNames[] = {"safety", "liveness", "catspec"};
    auto describe = [](const core::VerificationResult &r) {
        if (r.unknown)
            return std::string("unknown");
        return std::string(r.holds ? "holds" : "fails");
    };

    auto checkAllWith =
        [&](smt::ClauseShareMode mode,
            const char *who) -> std::vector<core::VerificationResult> {
        core::VerifierOptions vo;
        vo.backend = smt::BackendKind::Builtin;
        vo.bound = options.bound;
        vo.validateWitness = true;
        vo.solverTimeoutMs = options.solverTimeoutMs;
        vo.clauseShare = mode;
        if (mode != smt::ClauseShareMode::Off)
            vo.cubeDepth = 2; // cube workers to share between
        try {
            core::Verifier verifier(program, model, vo);
            return verifier.checkAll({props[0], props[1], props[2]});
        } catch (const FatalError &error) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = std::string(who) + " error: " + error.what();
        } catch (const std::exception &error) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = std::string(who) + " error: " + error.what();
        }
        return {};
    };

    std::vector<core::VerificationResult> off =
        checkAllWith(smt::ClauseShareMode::Off, "sharing-off");
    if (o.verdict != OracleVerdict::Agree || off.empty())
        return o;
    std::vector<core::VerificationResult> on =
        checkAllWith(smt::ClauseShareMode::Cube, "sharing-cube");
    if (o.verdict != OracleVerdict::Agree || on.empty())
        return o;

    for (size_t i = 0; i < off.size(); ++i) {
        if (off[i].holds != on[i].holds ||
            off[i].unknown != on[i].unknown) {
            o.verdict = OracleVerdict::Disagree;
            o.detail = std::string(propNames[i]) +
                       ": sharing-off=" + describe(off[i]) +
                       " sharing-cube=" + describe(on[i]);
            return o;
        }
    }
    return o;
}

OracleSlots
addOracleJobs(const prog::Program &program, const prog::Program *reparsed,
              const cat::CatModel &model, const OracleOptions &options,
              const std::string &tag, std::vector<core::BatchJob> &batch)
{
    auto push = [&](const prog::Program &target, core::Property property,
                    core::VerifierOptions vo, const char *name) {
        vo.validateWitness = true;
        core::BatchJob job;
        job.program = &target;
        job.model = &model;
        job.property = property;
        job.options = vo;
        job.label = tag + " " + name;
        batch.push_back(std::move(job));
        return static_cast<int>(batch.size()) - 1;
    };
    core::VerifierOptions smt;
    smt.bound = options.bound;
    smt.solverTimeoutMs = options.solverTimeoutMs;
    core::VerifierOptions z3 = smt;
    z3.backend = smt::BackendKind::Z3;
    z3.bound = options.effectiveZ3Bound();
    core::VerifierOptions next = smt;
    next.bound = options.bound + 1;
    core::VerifierOptions enumerative;
    enumerative.maxCandidates = options.enumerativeMaxCandidates;
    enumerative.solverTimeoutMs = options.enumerativeTimeoutMs;

    const bool flagged = model.hasFlaggedAxioms();
    OracleSlots slots;
    if (options.roundTrip || options.smtVsExplicit || options.z3VsBuiltin ||
        options.boundMono || options.dpor)
        slots.builtin = push(program, core::Property::Safety, smt, "builtin");
    if (options.z3VsBuiltin)
        slots.z3 = push(program, core::Property::Safety, z3, "z3");
    if (options.boundMono) {
        slots.next =
            push(program, core::Property::Safety, next, "builtin@k+1");
    }
    if ((options.smtVsExplicit || options.dpor) && flagged)
        slots.drf = push(program, core::Property::CatSpec, smt, "drf");
    if (options.roundTrip && reparsed) {
        slots.roundTrip =
            push(*reparsed, core::Property::Safety, smt, "reparsed");
    }
    if (options.smtVsExplicit) {
        enumerative.engine = core::Engine::Explicit;
        slots.explicitSafety = push(program, core::Property::Safety,
                                    enumerative, "explicit");
        if (flagged) {
            slots.explicitDrf = push(program, core::Property::CatSpec,
                                     enumerative, "explicit drf");
        }
    }
    if (options.dpor) {
        enumerative.engine = core::Engine::Dpor;
        slots.dporSafety =
            push(program, core::Property::Safety, enumerative, "dpor");
        if (flagged) {
            slots.dporDrf = push(program, core::Property::CatSpec,
                                 enumerative, "dpor drf");
        }
    }
    return slots;
}

OracleInputs
oracleInputs(const prog::Program &program, const cat::CatModel &model,
             const OracleSlots &slots,
             const std::vector<core::BatchEntry> &entries,
             std::string roundTripError)
{
    OracleInputs inputs;
    inputs.program = &program;
    inputs.modelFlagged = model.hasFlaggedAxioms();
    inputs.builtinSafety = fromEntry(entries, slots.builtin);
    inputs.z3Safety = fromEntry(entries, slots.z3);
    inputs.builtinNext = fromEntry(entries, slots.next);
    inputs.builtinDrf = fromEntry(entries, slots.drf);
    inputs.roundTripSafety = fromEntry(entries, slots.roundTrip);
    inputs.roundTripError = std::move(roundTripError);
    inputs.explicitSafety = fromEntry(entries, slots.explicitSafety);
    inputs.explicitDrf = fromEntry(entries, slots.explicitDrf);
    inputs.dporSafety = fromEntry(entries, slots.dporSafety);
    inputs.dporDrf = fromEntry(entries, slots.dporDrf);
    return inputs;
}

OracleReport
compareOracles(const OracleInputs &inputs, const OracleOptions &options)
{
    GPUMC_ASSERT(inputs.program, "compareOracles without a program");
    const prog::Program &program = *inputs.program;
    OracleReport report;

    if (options.roundTrip) {
        OracleOutcome o;
        o.kind = OracleKind::RoundTrip;
        if (!inputs.roundTripError.empty()) {
            o.verdict = OracleVerdict::Disagree;
            o.detail = "emit/reparse failed: " + inputs.roundTripError;
        } else if (screen(inputs.builtinSafety, "builtin", o) &&
                   screen(inputs.roundTripSafety, "reparsed", o)) {
            if (inputs.builtinSafety.result.holds !=
                inputs.roundTripSafety.result.holds) {
                o.verdict = OracleVerdict::Disagree;
                o.detail = std::string("original=") +
                           (inputs.builtinSafety.result.holds ? "holds"
                                                              : "fails") +
                           " reparsed=" +
                           (inputs.roundTripSafety.result.holds
                                ? "holds"
                                : "fails");
            }
        }
        report.outcomes.push_back(std::move(o));
    }

    if (options.smtVsExplicit) {
        report.outcomes.push_back(compareEnumerative(
            OracleKind::SmtVsExplicit, "explicit", inputs.explicitSafety,
            inputs.explicitDrf, inputs));
    }

    if (options.z3VsBuiltin) {
        OracleOutcome o;
        o.kind = OracleKind::Z3VsBuiltin;
        if (screen(inputs.builtinSafety, "builtin", o) &&
            screen(inputs.z3Safety, "z3", o)) {
            if (inputs.builtinSafety.result.holds !=
                inputs.z3Safety.result.holds) {
                o.verdict = OracleVerdict::Disagree;
                o.detail =
                    std::string("builtin[bound=") +
                    std::to_string(options.bound) + "]=" +
                    (inputs.builtinSafety.result.holds ? "holds"
                                                       : "fails") +
                    " z3[bound=" +
                    std::to_string(options.effectiveZ3Bound()) + "]=" +
                    (inputs.z3Safety.result.holds ? "holds" : "fails");
            }
        }
        report.outcomes.push_back(std::move(o));
    }

    if (options.boundMono) {
        OracleOutcome o;
        o.kind = OracleKind::BoundMono;
        if (screen(inputs.builtinSafety, "builtin", o) &&
            screen(inputs.builtinNext, "builtin@k+1", o)) {
            bool atK = witnessFound(program, inputs.builtinSafety.result);
            bool atK1 = witnessFound(program, inputs.builtinNext.result);
            if (atK && !atK1) {
                o.verdict = OracleVerdict::Disagree;
                o.detail = "witness at bound " +
                           std::to_string(options.bound) +
                           " vanished at bound " +
                           std::to_string(options.bound + 1);
            }
        }
        report.outcomes.push_back(std::move(o));
    }

    if (options.dpor) {
        report.outcomes.push_back(
            compareEnumerative(OracleKind::Dpor, "dpor", inputs.dporSafety,
                               inputs.dporDrf, inputs));
    }

    return report;
}

OracleReport
runOracles(const prog::Program &program, const cat::CatModel &model,
           const OracleOptions &options)
{
    prog::Program reparsed; // must outlive the batch run below
    std::string roundTripError;
    if (options.roundTrip) {
        try {
            reparsed = litmus::parseLitmus(litmus::emitLitmus(program));
        } catch (const std::exception &error) {
            roundTripError = error.what();
        }
    }
    std::vector<core::BatchJob> batch;
    OracleSlots slots = addOracleJobs(
        program, options.roundTrip && roundTripError.empty() ? &reparsed
                                                             : nullptr,
        model, options, "oracle", batch);
    std::vector<core::BatchEntry> entries =
        core::BatchVerifier(1).run(batch);

    OracleReport report = compareOracles(
        oracleInputs(program, model, slots, entries,
                     std::move(roundTripError)),
        options);
    if (options.sessionReuse)
        report.outcomes.push_back(sessionReuseOracle(program, model, options));
    if (options.clauseSharing) {
        report.outcomes.push_back(
            clauseSharingOracle(program, model, options));
    }
    return report;
}

} // namespace gpumc::fuzz
