#include "e2e.hpp"

namespace gpubench {

void
EndToEnd::emit(Report &report) const
{
    auto perPass = [&](auto value) {
        std::vector<double> values;
        for (const Pass &pass : passes)
            values.push_back(value(pass));
        return median(values);
    };
    report.metric("setup_s", median(setupSec), "s");
    report.metric("verdicts_per_s", perPass([](const Pass &p) {
                      return p.wallSec > 0 ? p.latencyMs.size() / p.wallSec
                                           : 0.0;
                  }),
                  "1/s");
    report.metric("latency_p50_ms", perPass([](const Pass &p) {
                      return percentile(p.latencyMs, 0.50);
                  }),
                  "ms");
    report.metric("latency_p99_ms", perPass([](const Pass &p) {
                      return percentile(p.latencyMs, 0.99);
                  }),
                  "ms");
    report.metric("miss_p50_ms",
                  perPass([](const Pass &p) { return median(p.missMs); }),
                  "ms");
    report.metric("proof_s",
                  perPass([](const Pass &p) { return p.proofSec; }), "s");
    report.metric("bugfind_s",
                  perPass([](const Pass &p) { return p.bugfindSec; }), "s");
    report.metric("smt_s", perPass([](const Pass &p) { return p.smtSec; }),
                  "s");
    report.metric("peak_rss_mb", peakRssMb, "MB");
}

void
addVerdict(const prog::Program &program, core::Property property,
           const core::VerificationResult &result, EndToEnd::Pass &pass)
{
    pass.latencyMs.push_back(result.timeMs);
    if (result.stats.get("sessionsBuilt") > 0)
        pass.missMs.push_back(result.timeMs);
    double sec = result.timeMs / 1000.0;
    pass.smtSec += sec;
    if (result.unknown)
        return;
    (solverSat(program, property, result.holds) ? pass.bugfindSec
                                                 : pass.proofSec) += sec;
}

void
addResults(const std::vector<SessionPlan> &plans, const PlanResults &results,
           EndToEnd::Pass &pass)
{
    for (size_t s = 0; s < plans.size(); ++s) {
        for (size_t c = 0; c < plans[s].checks.size(); ++c) {
            addVerdict(*plans[s].program, plans[s].checks[c].property,
                       results[s][c], pass);
        }
    }
}

} // namespace gpubench
