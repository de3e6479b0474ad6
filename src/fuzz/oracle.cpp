#include "fuzz/oracle.hpp"

#include "litmus/litmus_emitter.hpp"
#include "litmus/litmus_parser.hpp"
#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"
#include "support/thread_budget.hpp"

namespace gpumc::fuzz {

const char *
oracleName(OracleKind kind)
{
    switch (kind) {
      case OracleKind::RoundTrip: return "roundtrip";
      case OracleKind::SmtVsExplicit: return "smt-vs-explicit";
      case OracleKind::Z3VsBuiltin: return "z3-vs-builtin";
      case OracleKind::BoundMono: return "bound-mono";
      case OracleKind::Dpor: return "dpor";
      case OracleKind::SessionReuse: return "session-reuse";
      case OracleKind::ClauseSharing: return "clause-sharing";
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

bool
witnessFound(const prog::Program &program,
             const core::VerificationResult &result)
{
    return program.assertKind == prog::AssertKind::Exists
               ? result.holds
               : !result.holds;
}

std::vector<Oracle>
makeOracles(const OracleOptions &options, const cat::CatModel &model,
            std::optional<OracleKind> only)
{
    using core::Property;
    const std::vector<Property> safety = {Property::Safety};
    const std::vector<Property> all = {Property::Safety, Property::Liveness,
                                       Property::CatSpec};
    // What the enumerative engines answer: safety, and DRF when the
    // model flags races.
    std::vector<Property> enumerable = safety;
    if (model.hasFlaggedAxioms())
        enumerable.push_back(Property::CatSpec);

    auto side = [&](const char *name, std::vector<Property> properties) {
        OracleSide s;
        s.name = name;
        s.options.bound = options.bound;
        s.options.solverTimeoutMs = options.solverTimeoutMs;
        s.options.validateWitness = true;
        s.properties = std::move(properties);
        return s;
    };
    auto enumerative = [&](const char *name, core::Engine engine) {
        OracleSide s = side(name, enumerable);
        s.options.engine = engine;
        s.options.maxCandidates = options.enumerativeMaxCandidates;
        return s;
    };
    auto fresh = [](OracleSide s) {
        s.name = "fresh " + s.name;
        s.fresh = true;
        return s;
    };

    const OracleSide builtin = side("builtin", safety);
    const OracleSide builtinEnumerable = side("builtin", enumerable);
    OracleSide reparsed = side("reparsed", safety);
    reparsed.reparsed = true;
    OracleSide z3 = side("z3", safety);
    z3.options.backend = smt::BackendKind::Z3;
    z3.options.bound = options.effectiveZ3Bound();
    OracleSide next = side("builtin@k+1", safety);
    next.options.bound = options.bound + 1;
    const OracleSide shared = side("builtin", all);
    OracleSide sharedZ3 = side("z3", all);
    sharedZ3.options.backend = smt::BackendKind::Z3;
    OracleSide cube = side("sharing-cube", all);
    cube.options.cubeDepth = 2; // cube workers to share between
    cube.options.clauseShare = smt::ClauseShareMode::Cube;

    std::vector<Oracle> oracles = {
        {OracleKind::RoundTrip, OracleRelation::SameVerdict,
         {{builtin, reparsed}}},
        {OracleKind::SmtVsExplicit, OracleRelation::SameVerdict,
         {{builtinEnumerable,
           enumerative("explicit", core::Engine::Explicit)}}},
        {OracleKind::Z3VsBuiltin, OracleRelation::SameVerdict,
         {{builtin, z3}}},
        {OracleKind::BoundMono, OracleRelation::WitnessPersists,
         {{builtin, next}}},
        {OracleKind::Dpor, OracleRelation::SameVerdict,
         {{builtinEnumerable, enumerative("dpor", core::Engine::Dpor)}}},
        {OracleKind::SessionReuse, OracleRelation::SameAnswerAndDetail,
         {{shared, fresh(shared)}, {sharedZ3, fresh(sharedZ3)}}},
        {OracleKind::ClauseSharing, OracleRelation::SameAnswer,
         {{shared, cube}}},
    };
    std::erase_if(oracles, [&](const Oracle &oracle) {
        if (only)
            return oracle.kind != *only;
        return (oracle.kind == OracleKind::SessionReuse &&
                !options.sessionReuse) ||
               (oracle.kind == OracleKind::ClauseSharing &&
                !options.clauseSharing);
    });
    return oracles;
}

namespace {

const char *
propertyName(core::Property property)
{
    switch (property) {
      case core::Property::Safety: return "safety";
      case core::Property::Liveness: return "liveness";
      case core::Property::CatSpec: return "catspec";
    }
    return "?";
}

/**
 * Why @p entry, a run of @p side, gives no verdict to compare, or ""
 * when it does. An engine exception is a skip, not a disagreement: the
 * shrinker must not chase mutants that merely make an engine throw.
 * Unless @p unknownIsAnswer, an unknown skips too: a program outside
 * the enumerative engines' fragment with their bare reason, so that
 * hazard shows in the log instead of counting as agreement, and an
 * exhausted budget without the timing-dependent candidate count, so
 * campaign logs stay deterministic.
 */
std::string
skipReason(const OracleSide &side, const core::BatchEntry &entry,
           bool unknownIsAnswer)
{
    if (entry.failed)
        return side.name + " error: " + entry.error;
    if (unknownIsAnswer || !entry.result.unknown)
        return "";
    if (side.options.engine == core::Engine::Smt)
        return side.name + " exhausted solver budget";
    const std::string &detail = entry.result.detail;
    return startsWith(detail, core::kUnsupportedDetail)
               ? detail.substr(core::kUnsupportedDetail.size())
               : side.name + " exploration budget exhausted";
}

/** A side's name in a disagreement, with its bound when the pair's
 *  two SMT sides differ in backend or bound. */
std::string
sideLabel(const OracleSide &side, const OracleSide &other)
{
    const core::VerifierOptions &a = side.options;
    const core::VerifierOptions &b = other.options;
    const bool labelled = a.engine == core::Engine::Smt &&
                          b.engine == core::Engine::Smt &&
                          (a.backend != b.backend || a.bound != b.bound);
    if (!labelled)
        return side.name;
    return side.name + "[bound=" + std::to_string(a.bound) + "]";
}

/** Compare one (reference, variant) pair into @p o, property by
 *  property, stopping at the first that does not agree. */
void
comparePair(const prog::Program &program, OracleRelation relation,
            const OracleSide &reference, const OracleSide &variant,
            const std::vector<core::BatchEntry> &entries,
            OracleOutcome &o)
{
    GPUMC_ASSERT(reference.properties == variant.properties &&
                     reference.jobs.size() == reference.properties.size() &&
                     variant.jobs.size() == variant.properties.size(),
                 "oracle sides without a job per property");
    const bool unknownIsAnswer =
        relation == OracleRelation::SameAnswer ||
        relation == OracleRelation::SameAnswerAndDetail;
    const bool withDetail = relation == OracleRelation::SameAnswerAndDetail;
    for (size_t i = 0; i < reference.properties.size(); ++i) {
        const core::BatchEntry &ref = entries[reference.jobs[i]];
        const core::BatchEntry &var = entries[variant.jobs[i]];
        std::string skip = skipReason(reference, ref, unknownIsAnswer);
        if (skip.empty())
            skip = skipReason(variant, var, unknownIsAnswer);
        if (!skip.empty()) {
            o.verdict = OracleVerdict::Skipped;
            o.detail = std::move(skip);
            return;
        }
        const core::VerificationResult &a = ref.result;
        const core::VerificationResult &b = var.result;
        if (relation == OracleRelation::WitnessPersists) {
            if (witnessFound(program, a) && !witnessFound(program, b)) {
                o.verdict = OracleVerdict::Disagree;
                o.detail = "witness at bound " +
                           std::to_string(reference.options.bound) +
                           " vanished at bound " +
                           std::to_string(variant.options.bound);
                return;
            }
            continue;
        }
        if (a.holds == b.holds && a.unknown == b.unknown &&
            (!withDetail || a.detail == b.detail))
            continue;
        auto describe = [&](const core::VerificationResult &r) {
            if (r.unknown)
                return std::string("unknown");
            std::string verdict = r.holds ? "holds" : "fails";
            return withDetail ? verdict + "(" + r.detail + ")" : verdict;
        };
        o.verdict = OracleVerdict::Disagree;
        o.detail.clear();
        if (reference.properties.size() > 1) {
            o.detail =
                std::string(propertyName(reference.properties[i])) + ": ";
        }
        o.detail += sideLabel(reference, variant) + "=" + describe(a) +
                    " " + sideLabel(variant, reference) + "=" + describe(b);
        return;
    }
}

} // namespace

std::vector<core::BatchEntry>
OracleJobs::run(unsigned workers) const
{
    std::vector<core::BatchJob> batch;
    std::vector<size_t> batched, alone;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (fresh[i]) {
            alone.push_back(i);
        } else {
            batched.push_back(i);
            batch.push_back(jobs[i]);
        }
    }
    std::vector<core::BatchEntry> entries(jobs.size());
    std::vector<core::BatchEntry> sharedEntries =
        core::BatchVerifier(workers).run(batch);
    for (size_t k = 0; k < batched.size(); ++k)
        entries[batched[k]] = std::move(sharedEntries[k]);
    // A batch of one job is a Verifier of its own.
    parallelFor(static_cast<int64_t>(alone.size()), workers,
                [&](int64_t k) {
                    const size_t i = alone[static_cast<size_t>(k)];
                    entries[i] = core::BatchVerifier(1).run({jobs[i]})[0];
                });
    return entries;
}

void
addOracleJobs(const prog::Program &program, const prog::Program *reparsed,
              const cat::CatModel &model, std::vector<Oracle> &oracles,
              const std::string &tag, OracleJobs &jobs)
{
    auto jobFor = [&](const OracleSide &side, core::Property property) {
        const prog::Program &target = side.reparsed ? *reparsed : program;
        if (!side.fresh) {
            auto [it, inserted] = jobs.shared.try_emplace(
                {&target, property,
                 core::sessionKey(target, model, side.options)},
                jobs.jobs.size());
            if (!inserted)
                return it->second;
        }
        core::BatchJob job;
        job.program = &target;
        job.model = &model;
        job.property = property;
        job.options = side.options;
        job.label = tag + " " + side.name + " " + propertyName(property);
        jobs.jobs.push_back(std::move(job));
        jobs.fresh.push_back(side.fresh);
        return jobs.jobs.size() - 1;
    };
    for (Oracle &oracle : oracles) {
        for (auto &[reference, variant] : oracle.pairs) {
            for (OracleSide *side : {&reference, &variant}) {
                side->jobs.clear();
                if (side->reparsed && !reparsed)
                    continue;
                for (core::Property property : side->properties)
                    side->jobs.push_back(jobFor(*side, property));
            }
        }
    }
}

std::string
reparse(const prog::Program &program, prog::Program &out)
{
    try {
        out = litmus::parseLitmus(litmus::emitLitmus(program));
    } catch (const std::exception &error) {
        return error.what();
    }
    return "";
}

OracleReport
compareOracles(const prog::Program &program,
               const std::vector<Oracle> &oracles,
               const std::vector<core::BatchEntry> &entries,
               const std::string &reparseError)
{
    OracleReport report;
    for (const Oracle &oracle : oracles) {
        OracleOutcome o;
        o.kind = oracle.kind;
        for (const auto &[reference, variant] : oracle.pairs) {
            if (o.verdict != OracleVerdict::Agree)
                break;
            if ((reference.reparsed || variant.reparsed) &&
                !reparseError.empty()) {
                o.verdict = OracleVerdict::Disagree;
                o.detail = "emit/reparse failed: " + reparseError;
            } else {
                comparePair(program, oracle.relation, reference, variant,
                            entries, o);
            }
        }
        report.outcomes.push_back(std::move(o));
    }
    return report;
}

OracleReport
runOracles(const prog::Program &program, const cat::CatModel &model,
           const OracleOptions &options, std::optional<OracleKind> only)
{
    prog::Program reparsed; // must outlive the runs below
    const std::string reparseError = reparse(program, reparsed);
    std::vector<Oracle> oracles = makeOracles(options, model, only);
    OracleJobs jobs;
    addOracleJobs(program, reparseError.empty() ? &reparsed : nullptr, model,
                  oracles, "oracle", jobs);
    return compareOracles(program, oracles, jobs.run(1), reparseError);
}

} // namespace gpumc::fuzz
