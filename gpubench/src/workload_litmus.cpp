/**
 * @file
 * `litmus`: the Table 5 input set — every `@expect` check of the
 * shipped `.litmus` corpus plus the generated pattern and progress
 * suites of each model — fanned through core::BatchVerifier as one
 * batch per pass. Thousands of tiny sessions whose time is mostly
 * encoding.
 *
 * References: shipped files are gated by their `@expect` directives,
 * generated tests by the explicit baseline's verdict wherever it
 * supports the test (computed once, between set-up and the timed
 * phase); liveness tests of the generated suites have none and are
 * counted as unchecked.
 */

#include <map>

#include "core/batch_verifier.hpp"
#include "core/session_key.hpp"
#include "explicit/explicit_checker.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace gpubench {

namespace {

/** Per-test budget of the explicit reference; a timeout fails the run. */
constexpr double kReferenceTimeoutMs = 2000;

struct LitmusSetup {
    Models models;
    Inputs inputs;
    std::vector<core::BatchJob> jobs;
};

LitmusSetup
setUp(const Options &opts, Traced *traced)
{
    LitmusSetup s;
    {
        MaybeSpan span(traced, "cat.load");
        s.models = loadModels(opts);
    }
    {
        MaybeSpan span(traced, "litmus.parse");
        addShippedFiles(s.inputs, opts, s.models);
        addGeneratedSuites(s.inputs, opts, s.models);
    }
    seededShuffle(s.inputs.queries, opts.seed);
    for (const Query &q : s.inputs.queries) {
        core::BatchJob job;
        job.program = q.program;
        job.model = q.model;
        job.property = q.property;
        job.options.bound = q.bound;
        job.options.wantWitness = false;
        job.options.solverTimeoutMs = 60000;
        job.label = q.label;
        s.jobs.push_back(std::move(job));
    }
    return s;
}

/**
 * Fill the generated tests' reference verdicts from the explicit
 * baseline, one enumeration per (program, model).
 */
void
explicitReference(Inputs &inputs, Traced *traced, Report &report)
{
    struct Answer {
        bool ok = false;
        bool conditionHolds = false;
        bool raceFound = false;
    };
    std::map<std::pair<const prog::Program *, const cat::CatModel *>, Answer>
        answers;
    for (Query &q : inputs.queries) {
        if (!q.generated || q.property == core::Property::Liveness ||
            !explicitSupports(*q.program))
            continue;
        auto key = std::make_pair(q.program, q.model);
        auto it = answers.find(key);
        if (it == answers.end()) {
            expl::ExplicitOptions options;
            options.timeoutMs = kReferenceTimeoutMs;
            expl::ExplicitResult r;
            {
                MaybeSpan span(traced, "explicit");
                r = expl::ExplicitChecker(*q.program, *q.model, options)
                        .run();
            }
            if (traced) {
                traced->layers.add("explicit.candidates",
                                   static_cast<double>(r.candidatesExplored));
            }
            // Every supported test finishes well within the budget; a
            // timeout means the baseline regressed.
            report.attempted++;
            report.failed += r.timedOut ? 1 : 0;
            it = answers
                     .emplace(key, Answer{r.supported && !r.timedOut,
                                          r.conditionHolds, r.raceFound})
                     .first;
        }
        if (!it->second.ok)
            continue;
        q.expect = q.property == core::Property::Safety
                       ? it->second.conditionHolds
                       : !it->second.raceFound;
    }
}

/** Gate one batch pass against the queries' references. */
void
gateEntries(const Inputs &inputs, const std::vector<core::BatchEntry> &entries,
            Report &report)
{
    for (size_t i = 0; i < entries.size(); ++i) {
        const Query &q = inputs.queries[i];
        const core::BatchEntry &e = entries[i];
        report.attempted++;
        if (e.failed || e.result.unknown) {
            report.failed++;
            continue;
        }
        if (!q.expect) {
            report.unchecked++;
            continue;
        }
        report.checked++;
        if (e.result.holds != *q.expect) {
            report.mismatch(q.label + " [" + q.modelName + "] " +
                            propertyName(q.property) + ": got " +
                            (e.result.holds ? "holds" : "fails"));
        }
    }
}

/**
 * Regroup a batch into the sessions core::BatchVerifier formed (equal
 * session keys, first-seen order), with each group's entries as the
 * plan's reference results.
 */
void
groupBatch(const Inputs &inputs, const std::vector<core::BatchJob> &jobs,
           const std::vector<core::BatchEntry> &entries,
           std::vector<SessionPlan> &plans, PlanResults &results)
{
    std::map<core::SessionKey, size_t> groupOf;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const core::BatchJob &job = jobs[i];
        core::SessionKey key =
            core::sessionKey(*job.program, *job.model, job.options);
        auto [it, inserted] = groupOf.try_emplace(key, plans.size());
        if (inserted) {
            SessionPlan plan;
            plan.name = job.label;
            plan.program = job.program;
            plan.model = job.model;
            plan.options = job.options;
            plans.push_back(std::move(plan));
            results.emplace_back();
        }
        plans[it->second].checks.push_back(
            {job.property, inputs.queries[i].expect});
        results[it->second].push_back(entries[i].result);
    }
}

} // namespace

void
runLitmus(const Options &opts, Report &report, Traced *traced)
{
    core::BatchVerifier batch(opts.jobs);
    if (traced) {
        LitmusSetup s = setUp(opts, traced);
        explicitReference(s.inputs, traced, report);
        double start = nowSec();
        std::vector<core::BatchEntry> entries = batch.run(s.jobs);
        double wallSec = nowSec() - start;
        gateEntries(s.inputs, entries, report);

        std::vector<SessionPlan> plans;
        PlanResults reference;
        groupBatch(s.inputs, s.jobs, entries, plans, reference);
        coreLayers(reference, batch.jobs(), wallSec, traced->layers);
        runTraced(plans, reference, traced->spans, traced->layers, report);
        return;
    }

    EndToEnd e2e;
    LitmusSetup s = repeatSetUp([&] { return setUp(opts, nullptr); }, e2e);
    explicitReference(s.inputs, nullptr, report);

    auto runPass = [&]() {
        EndToEnd::Pass pass;
        double passStart = nowSec();
        std::vector<core::BatchEntry> entries = batch.run(s.jobs);
        pass.wallSec = nowSec() - passStart;
        gateEntries(s.inputs, entries, report);
        for (size_t i = 0; i < entries.size(); ++i) {
            addVerdict(*s.jobs[i].program, s.jobs[i].property,
                       entries[i].result, pass);
        }
        return pass;
    };
    runPass(); // warm-up: allocator and page-cache state
    double start = nowSec();
    do {
        e2e.passes.push_back(runPass());
    } while (nowSec() - start < opts.seconds);
    e2e.peakRssMb = selfPeakRssMb();
    e2e.emit(report);
}

} // namespace gpubench
