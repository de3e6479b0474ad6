/**
 * @file
 * Explicit-state consistency checker — the stand-in for the Alloy-based
 * tools the paper compares against (Section 6.1, Table 5, Fig. 15).
 *
 * It enumerates all candidate behaviours (rf assignments, coherence
 * orders, SC-fence orders) of a *straight-line* program and evaluates
 * the `.cat` model concretely on each. Like the Alloy tools it:
 *  - supports no control-flow instructions (and no CAS),
 *  - cannot check liveness,
 *  - blows up exponentially with the number of events.
 * Those limitations are intentional: they reproduce the paper's
 * comparison. The checker doubles as a ground-truth oracle for
 * cross-validating the SMT engine on small tests.
 *
 * The enumeration is the DPOR engine's with nothing pruned
 * (dpor::DporOptions::exhaustive); this header only names that run.
 */

#ifndef GPUMC_EXPLICIT_EXPLICIT_CHECKER_HPP
#define GPUMC_EXPLICIT_EXPLICIT_CHECKER_HPP

#include <cstdint>

#include "dpor/dpor_checker.hpp"

namespace gpumc::expl {

struct ExplicitOptions {
    /** Abort enumeration after this many candidate behaviours (0 = no
     *  limit). The result is then marked timedOut. */
    uint64_t maxCandidates = 0;
    /** Wall-clock budget in milliseconds (0 = no limit). */
    double timeoutMs = 0.0;
};

/** DPOR's result. Nothing is pruned, so consistencyChecks equals
 *  candidatesExplored, and the pruned* counters and earlyStops stay
 *  zero. */
using ExplicitResult = dpor::DporResult;

class ExplicitChecker {
  public:
    ExplicitChecker(const prog::Program &program,
                    const cat::CatModel &model,
                    ExplicitOptions options = {})
        : checker_(program, model, exhaustive(options))
    {
    }

    /** Enumerate everything once; result answers safety and DRF. */
    ExplicitResult run() { return checker_.run(); }

  private:
    static dpor::DporOptions exhaustive(ExplicitOptions options)
    {
        dpor::DporOptions dpor;
        dpor.maxCandidates = options.maxCandidates;
        dpor.timeoutMs = options.timeoutMs;
        dpor.exhaustive = true;
        return dpor;
    }

    dpor::DporChecker checker_;
};

} // namespace gpumc::expl

#endif // GPUMC_EXPLICIT_EXPLICIT_CHECKER_HPP
