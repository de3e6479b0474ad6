/**
 * @file
 * `locks`: the Table 7 rows, one verdict at a time, one core::Verifier
 * per kernel, safety then DRF on the same session as table7_real_code
 * does it. A few huge encodings where the solver is most of the work;
 * the reference verdicts are Table 7's correct/buggy column.
 */

#include "inputs.hpp"
#include "workloads.hpp"

namespace gpubench {

namespace {

struct LocksSetup {
    std::unique_ptr<cat::CatModel> vulkan;
    std::vector<KernelRow> rows;
    std::vector<SessionPlan> plans;
};

LocksSetup
setUp(const Options &opts, Traced *traced)
{
    LocksSetup s;
    {
        MaybeSpan span(traced, "cat.load");
        s.vulkan = std::make_unique<cat::CatModel>(
            cat::CatModel::fromFile(opts.root + "/cat/vulkan.cat"));
    }
    {
        MaybeSpan span(traced, "litmus.parse");
        s.rows = lockRows(opts.tiny);
    }
    // A fixed order, whatever the seed: the solver's speed on a big
    // kernel depends on the heap the previous kernels left behind.
    for (const KernelRow &row : s.rows) {
        SessionPlan plan;
        plan.name = row.name;
        plan.program = &row.program;
        plan.model = s.vulkan.get();
        plan.options.bound = 2;
        plan.options.wantWitness = false;
        plan.options.solverTimeoutMs = 120000;
        // The kernel's condition asserts a violation: safety holds
        // exactly on the buggy variants.
        plan.checks.push_back({core::Property::Safety, row.buggy});
        if (row.drf)
            plan.checks.push_back({core::Property::CatSpec, true});
        s.plans.push_back(std::move(plan));
    }
    return s;
}

} // namespace

void
runLocks(const Options &opts, Report &report, Traced *traced)
{
    if (traced) {
        LocksSetup s = setUp(opts, traced);
        double wallSec = 0;
        PlanResults reference = runReference(s.plans, wallSec);
        gateVerdicts(s.plans, reference, report);
        coreLayers(reference, 1, wallSec, traced->layers);
        runTraced(s.plans, reference, traced->spans, traced->layers,
                  report);
        return;
    }

    EndToEnd e2e;
    LocksSetup s = repeatSetUp([&] { return setUp(opts, nullptr); }, e2e);
    // Warm-up: the first row is the largest encoding. Solving it once
    // grows the heap, so the timed pass does not pay first-touch page
    // faults, whose cost varies from run to run.
    double warmSec = 0;
    gateVerdicts({s.plans.front()}, runReference({s.plans.front()}, warmSec),
                 report);
    double start = nowSec();
    do {
        EndToEnd::Pass pass;
        PlanResults results =
            runReference(s.plans, pass.wallSec);
        gateVerdicts(s.plans, results, report);
        addResults(s.plans, results, pass);
        e2e.passes.push_back(std::move(pass));
    } while (nowSec() - start < opts.seconds);
    e2e.peakRssMb = selfPeakRssMb();
    e2e.emit(report);
}

} // namespace gpubench
