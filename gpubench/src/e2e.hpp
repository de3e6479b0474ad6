/**
 * @file
 * Raw samples behind the end-to-end metrics and their reduction to the
 * numbers BENCHMARK.json declares. Every workload reports every metric.
 * Each metric is computed per pass and the run reports the median over
 * its passes, so one disturbed pass does not move the result:
 *
 *   setup_s         median of the repeated set-ups
 *   verdicts_per_s  verdicts of a pass / its wall time
 *   latency_p50_ms  per-verdict latency percentiles of a pass
 *   latency_p99_ms
 *   miss_p50_ms     median latency of the verdicts that paid for their
 *                   whole pipeline (a serve cache miss, or a check that
 *                   built its session / ran an enumerative engine)
 *   proof_s         sum of UNSAT SMT verdict times of a pass
 *   bugfind_s       sum of SAT SMT verdict times of a pass
 *   smt_s           sum of all SMT verdict times of a pass
 *   peak_rss_mb     peak RSS of the process doing the work
 */

#ifndef GPUBENCH_E2E_HPP
#define GPUBENCH_E2E_HPP

#include <vector>

#include "common.hpp"
#include "mirror.hpp"

namespace gpubench {

struct EndToEnd {
    struct Pass {
        std::vector<double> latencyMs;
        std::vector<double> missMs;
        double proofSec = 0, bugfindSec = 0, smtSec = 0;
        double wallSec = 0;
    };

    std::vector<double> setupSec;
    std::vector<Pass> passes;
    double peakRssMb = 0;

    void emit(Report &report) const;
};

/** Fold one SMT verdict into @p pass. */
void addVerdict(const prog::Program &program, core::Property property,
                const core::VerificationResult &result, EndToEnd::Pass &pass);

/** Fold one pass of core::Verifier results into @p pass. */
void addResults(const std::vector<SessionPlan> &plans,
                const PlanResults &results, EndToEnd::Pass &pass);

/**
 * Run @p setUp repeatedly — at least 10 times and for at least 0.5 s,
 * at most 200 times — recording each duration in @p e2e. Returns the
 * last set-up.
 */
template <typename SetUp>
auto
repeatSetUp(SetUp setUp, EndToEnd &e2e)
{
    double first = nowSec();
    for (;;) {
        double start = nowSec();
        auto result = setUp();
        e2e.setupSec.push_back(nowSec() - start);
        size_t n = e2e.setupSec.size();
        if (n >= 200 || (n >= 10 && nowSec() - first >= 0.5))
            return result;
    }
}

} // namespace gpubench

#endif // GPUBENCH_E2E_HPP
