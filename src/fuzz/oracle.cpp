#include "fuzz/oracle.hpp"

#include "dpor/dpor_checker.hpp"
#include "litmus/litmus_emitter.hpp"
#include "litmus/litmus_parser.hpp"
#include "support/diagnostics.hpp"

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

/**
 * DPOR-vs-SMT differential: the stateless model-checking engine's
 * condition and race verdicts must match the builtin backend's safety
 * and CatSpec verdicts. The engine shares the explicit baseline's
 * support envelope, so unsupported programs (and exhausted exploration
 * budgets) are reported as skips, never silently as agreement.
 */
OracleOutcome
dporOracle(const prog::Program &program, const cat::CatModel &model,
           const OracleOptions &options)
{
    OracleOutcome o;
    o.kind = OracleKind::Dpor;

    dpor::DporResult explored;
    try {
        dpor::DporOptions dopts;
        dopts.maxCandidates = options.dporMaxCandidates;
        dopts.timeoutMs = options.dporTimeoutMs;
        dpor::DporChecker checker(program, model, dopts);
        explored = checker.run();
    } catch (const std::exception &error) {
        o.verdict = OracleVerdict::Skipped;
        o.detail = std::string("dpor error: ") + error.what();
        return o;
    }
    if (!explored.supported) {
        o.verdict = OracleVerdict::Skipped;
        o.detail = explored.unsupportedReason;
        return o;
    }
    if (explored.timedOut) {
        o.verdict = OracleVerdict::Skipped;
        o.detail = "dpor exploration budget exhausted";
        return o;
    }

    auto verify = [&](core::Property property) -> EngineRun {
        core::VerifierOptions vo;
        vo.backend = smt::BackendKind::Builtin;
        vo.bound = options.bound;
        vo.validateWitness = true;
        vo.solverTimeoutMs = options.solverTimeoutMs;
        try {
            core::Verifier verifier(program, model, vo);
            return EngineRun::of(verifier.check(property));
        } catch (const FatalError &error) {
            return EngineRun::failure(error.what());
        } catch (const std::exception &error) {
            return EngineRun::failure(error.what());
        }
    };

    EngineRun safety = verify(core::Property::Safety);
    if (!screen(safety, "builtin", o))
        return o;
    if (explored.conditionHolds != safety.result.holds) {
        o.verdict = OracleVerdict::Disagree;
        o.detail = std::string("dpor=") +
                   (explored.conditionHolds ? "holds" : "fails") +
                   " smt=" +
                   (safety.result.holds ? "holds" : "fails");
        return o;
    }
    if (model.hasFlaggedAxioms()) {
        EngineRun drf = verify(core::Property::CatSpec);
        if (!screen(drf, "drf", o))
            return o;
        bool smtRace = !drf.result.holds;
        if (explored.raceFound != smtRace) {
            o.verdict = OracleVerdict::Disagree;
            o.detail = std::string("dpor race=") +
                       (explored.raceFound ? "yes" : "no") +
                       " smt race=" + (smtRace ? "yes" : "no");
        }
    }
    return o;
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
        OracleOutcome o;
        o.kind = OracleKind::SmtVsExplicit;
        if (!inputs.explicitRan) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = "explicit checker not run";
        } else if (!inputs.explicitResult.supported) {
            // The silent-skip hazard: an unsupported program must be
            // reported as SKIPPED with the reason, never as agreement.
            o.verdict = OracleVerdict::Skipped;
            o.detail = inputs.explicitResult.unsupportedReason;
        } else if (inputs.explicitResult.timedOut) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = "explicit enumeration budget exhausted";
        } else if (screen(inputs.builtinSafety, "builtin", o)) {
            if (inputs.explicitResult.conditionHolds !=
                inputs.builtinSafety.result.holds) {
                o.verdict = OracleVerdict::Disagree;
                o.detail =
                    std::string("explicit=") +
                    (inputs.explicitResult.conditionHolds ? "holds"
                                                          : "fails") +
                    " smt=" +
                    (inputs.builtinSafety.result.holds ? "holds"
                                                       : "fails");
            } else if (inputs.modelFlagged &&
                       screen(inputs.builtinDrf, "drf", o)) {
                bool smtRace = !inputs.builtinDrf.result.holds;
                if (inputs.explicitResult.raceFound != smtRace) {
                    o.verdict = OracleVerdict::Disagree;
                    o.detail =
                        std::string("explicit race=") +
                        (inputs.explicitResult.raceFound ? "yes" : "no") +
                        " smt race=" + (smtRace ? "yes" : "no");
                }
            }
        }
        report.outcomes.push_back(std::move(o));
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

    return report;
}

OracleReport
runOracles(const prog::Program &program, const cat::CatModel &model,
           const OracleOptions &options)
{
    OracleInputs inputs;
    inputs.program = &program;
    inputs.modelFlagged = model.hasFlaggedAxioms();

    auto verify = [&](smt::BackendKind backend, int bound,
                      core::Property property,
                      const prog::Program &target) -> EngineRun {
        core::VerifierOptions vo;
        vo.backend = backend;
        vo.bound = bound;
        vo.validateWitness = true;
        vo.solverTimeoutMs = options.solverTimeoutMs;
        try {
            core::Verifier verifier(target, model, vo);
            return EngineRun::of(verifier.check(property));
        } catch (const FatalError &error) {
            return EngineRun::failure(error.what());
        } catch (const std::exception &error) {
            return EngineRun::failure(error.what());
        }
    };

    bool needBuiltin =
        options.roundTrip || options.smtVsExplicit ||
        options.z3VsBuiltin || options.boundMono;
    if (needBuiltin) {
        inputs.builtinSafety =
            verify(smt::BackendKind::Builtin, options.bound,
                   core::Property::Safety, program);
    }
    if (options.z3VsBuiltin) {
        inputs.z3Safety = verify(smt::BackendKind::Z3,
                                 options.effectiveZ3Bound(),
                                 core::Property::Safety, program);
    }
    if (options.boundMono) {
        inputs.builtinNext =
            verify(smt::BackendKind::Builtin, options.bound + 1,
                   core::Property::Safety, program);
    }
    if (options.smtVsExplicit && inputs.modelFlagged) {
        inputs.builtinDrf = verify(smt::BackendKind::Builtin,
                                   options.bound, core::Property::CatSpec,
                                   program);
    }

    prog::Program reparsed; // must outlive the verification below
    if (options.roundTrip) {
        try {
            reparsed = litmus::parseLitmus(litmus::emitLitmus(program));
            inputs.roundTripSafety =
                verify(smt::BackendKind::Builtin, options.bound,
                       core::Property::Safety, reparsed);
        } catch (const FatalError &error) {
            inputs.roundTripError = error.what();
        } catch (const std::exception &error) {
            inputs.roundTripError = error.what();
        }
    }

    if (options.smtVsExplicit) {
        expl::ExplicitOptions eo;
        eo.maxCandidates = options.explicitMaxCandidates;
        eo.timeoutMs = options.explicitTimeoutMs;
        expl::ExplicitChecker checker(program, model, eo);
        inputs.explicitResult = checker.run();
        inputs.explicitRan = true;
    }

    OracleReport report = compareOracles(inputs, options);
    if (options.sessionReuse)
        report.outcomes.push_back(sessionReuseOracle(program, model, options));
    if (options.clauseSharing) {
        report.outcomes.push_back(
            clauseSharingOracle(program, model, options));
    }
    if (options.dpor)
        report.outcomes.push_back(dporOracle(program, model, options));
    return report;
}

} // namespace gpumc::fuzz
