/**
 * @file
 * `enum`: the Fig. 15 families under all three engines — the SMT
 * pipeline (core::Verifier), the DPOR engine (dpor::DporChecker) and
 * the Alloy-style explicit baseline (expl::ExplicitChecker). The only
 * workload where the enumerative engines and cat::RelationEvaluator do
 * the work. The verdict gate: the three engines must agree on the
 * condition and, under Vulkan, on data-race freedom, and every larger
 * size of a family must give the verdict they agreed on.
 */

#include <map>
#include <optional>

#include "dpor/dpor_checker.hpp"
#include "explicit/explicit_checker.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace gpubench {

namespace {

/** Safety net only: every run of this workload finishes far sooner. */
constexpr double kEngineTimeoutMs = 60000;

struct EnumSetup {
    Models models;
    std::vector<ScaledProgram> programs;
    std::vector<SessionPlan> plans;
};

EnumSetup
setUp(const Options &opts, Traced *traced)
{
    EnumSetup s;
    {
        MaybeSpan span(traced, "cat.load");
        s.models = loadModels(opts);
    }
    {
        MaybeSpan span(traced, "litmus.parse");
        s.programs = scaledPrograms(s.models, opts.tiny);
    }
    // A fixed order, whatever the seed (see workload_locks.cpp).
    for (const ScaledProgram &sp : s.programs) {
        SessionPlan plan;
        plan.name = sp.name;
        plan.program = &sp.program;
        plan.model = sp.model;
        plan.options.wantWitness = false;
        plan.checks.push_back({core::Property::Safety, std::nullopt});
        if (sp.model->hasFlaggedAxioms())
            plan.checks.push_back({core::Property::CatSpec, std::nullopt});
        s.plans.push_back(std::move(plan));
    }
    return s;
}

/** The enumerative engines' verdicts on one program. */
struct EngineRun {
    bool ok = false; // supported and finished
    bool conditionHolds = false;
    bool raceFound = false;
    double ms = 0;
};

EngineRun
runDpor(const ScaledProgram &sp, Traced *traced)
{
    dpor::DporOptions options;
    options.timeoutMs = kEngineTimeoutMs;
    dpor::DporResult r;
    {
        MaybeSpan span(traced, "dpor");
        r = dpor::DporChecker(sp.program, *sp.model, options).run();
    }
    if (traced) {
        Layers &layers = traced->layers;
        layers.add("dpor.candidates",
                   static_cast<double>(r.candidatesExplored));
        layers.add("dpor.consistency_checks",
                   static_cast<double>(r.consistencyChecks));
        layers.add("dpor.pruned_subtrees",
                   static_cast<double>(r.prunedSubtrees));
    }
    return {r.supported && !r.timedOut, r.conditionHolds, r.raceFound,
            r.timeMs};
}

EngineRun
runExplicit(const ScaledProgram &sp, Traced *traced)
{
    expl::ExplicitOptions options;
    options.timeoutMs = kEngineTimeoutMs;
    expl::ExplicitResult r;
    {
        MaybeSpan span(traced, "explicit");
        r = expl::ExplicitChecker(sp.program, *sp.model, options).run();
    }
    if (traced) {
        traced->layers.add("explicit.candidates",
                           static_cast<double>(r.candidatesExplored));
    }
    return {r.supported && !r.timedOut, r.conditionHolds, r.raceFound,
            r.timeMs};
}

/** A family's verdicts, as the three engines agreed on them. */
struct FamilyVerdict {
    bool holds = false;
    std::optional<bool> race;
};
using FamilyVerdicts = std::map<std::string, FamilyVerdict>;

/**
 * The verdict gate for one program. Where the enumerative engines run,
 * the three engines must agree, and the first size they agree on sets
 * the family's verdict. Every larger size, SMT-only ones included,
 * must give the family's verdict: a family's weak outcome is reachable,
 * and it races, at every size or at none. Returns the number of failed
 * (unsupported / timed-out / unknown) runs.
 */
int
gateProgram(const ScaledProgram &sp, const SessionPlan &plan,
            const std::vector<core::VerificationResult> &smt,
            const EngineRun *dporRun, const EngineRun *explRun,
            FamilyVerdicts &families, Report &report)
{
    const int64_t verdicts =
        static_cast<int64_t>(smt.size()) + (sp.enumerative ? 2 : 0);
    report.attempted += verdicts;
    int failed = 0;
    for (const core::VerificationResult &r : smt)
        failed += r.unknown ? 1 : 0;
    if (sp.enumerative) {
        failed += dporRun->ok ? 0 : 1;
        failed += explRun->ok ? 0 : 1;
    }
    auto family = families.find(sp.family);
    if (failed || (!sp.enumerative && family == families.end())) {
        report.unchecked += verdicts;
        return failed;
    }
    report.checked += verdicts;
    bool smtHolds = smt[0].holds;
    std::optional<bool> smtRace;
    if (smt.size() > 1)
        smtRace = !smt[1].holds;
    if (sp.enumerative) {
        if (dporRun->conditionHolds != smtHolds ||
            explRun->conditionHolds != smtHolds) {
            report.mismatch(plan.name + " safety: smt " +
                            std::to_string(smtHolds) + " dpor " +
                            std::to_string(dporRun->conditionHolds) +
                            " explicit " +
                            std::to_string(explRun->conditionHolds));
        }
        if (smtRace && (dporRun->raceFound != *smtRace ||
                        explRun->raceFound != *smtRace)) {
            report.mismatch(plan.name + " drf: smt race " +
                            std::to_string(*smtRace) + " dpor " +
                            std::to_string(dporRun->raceFound) +
                            " explicit " +
                            std::to_string(explRun->raceFound));
        }
        if (family == families.end()) {
            families.emplace(sp.family, FamilyVerdict{smtHolds, smtRace});
            return 0;
        }
    }
    const FamilyVerdict &ref = family->second;
    if (smtHolds != ref.holds) {
        report.mismatch(plan.name + " safety: smt " +
                        std::to_string(smtHolds) + ", family " + sp.family +
                        " " + std::to_string(ref.holds));
    }
    if (smtRace != ref.race) {
        report.mismatch(plan.name + " drf: smt race " +
                        std::to_string(smtRace.value_or(false)) +
                        ", family " + sp.family + " race " +
                        std::to_string(ref.race.value_or(false)));
    }
    return 0;
}

/**
 * One pass over every program: SMT, then DPOR and explicit where the
 * size allows. Returns the SMT results, for the traced reconciliation.
 */
PlanResults
runPass(const EnumSetup &s, Traced *traced,
        EndToEnd::Pass *pass, Report &report)
{
    PlanResults results(s.plans.size());
    FamilyVerdicts families;
    double start = nowSec();
    for (size_t i = 0; i < s.programs.size(); ++i) {
        const ScaledProgram &sp = s.programs[i];
        double wallSec = 0;
        results[i] = runReference({s.plans[i]}, wallSec)[0];
        std::optional<EngineRun> d, e;
        if (sp.enumerative) {
            d = runDpor(sp, traced);
            e = runExplicit(sp, traced);
            if (pass) {
                for (double ms : {d->ms, e->ms}) {
                    pass->latencyMs.push_back(ms);
                    pass->missMs.push_back(ms);
                }
            }
        }
        report.failed += gateProgram(sp, s.plans[i], results[i],
                                     d ? &*d : nullptr, e ? &*e : nullptr,
                                     families, report);
    }
    if (pass) {
        addResults(s.plans, results, *pass);
        pass->wallSec = nowSec() - start;
    }
    return results;
}

} // namespace

void
runEnum(const Options &opts, Report &report, Traced *traced)
{
    if (traced) {
        EnumSetup s = setUp(opts, traced);
        PlanResults reference = runPass(s, traced, nullptr, report);
        // The SMT share of the pass is the core reference; it ran one
        // session at a time.
        double checkSec = 0;
        for (const auto &session : reference) {
            for (const core::VerificationResult &r : session)
                checkSec += r.timeMs / 1000.0;
        }
        coreLayers(reference, 1, checkSec, traced->layers);
        runTraced(s.plans, reference, traced->spans, traced->layers,
                  report);
        return;
    }

    EndToEnd e2e;
    EnumSetup s = repeatSetUp([&] { return setUp(opts, nullptr); }, e2e);
    runPass(s, nullptr, nullptr, report); // warm-up
    double start = nowSec();
    do {
        EndToEnd::Pass pass;
        runPass(s, nullptr, &pass, report);
        e2e.passes.push_back(std::move(pass));
    } while (nowSec() - start < opts.seconds);
    e2e.peakRssMb = selfPeakRssMb();
    e2e.emit(report);
}

} // namespace gpubench
