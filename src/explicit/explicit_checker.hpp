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
 */

#ifndef GPUMC_EXPLICIT_EXPLICIT_CHECKER_HPP
#define GPUMC_EXPLICIT_EXPLICIT_CHECKER_HPP

#include <cstdint>

#include "analysis/concrete_execution.hpp"
#include "cat/model.hpp"
#include "program/program.hpp"

namespace gpumc::expl {

struct ExplicitOptions {
    /** Abort enumeration after this many candidate behaviours (0 = no
     *  limit). The result is then marked timedOut. */
    uint64_t maxCandidates = 0;
    /** Wall-clock budget in milliseconds (0 = no limit). */
    double timeoutMs = 0.0;
};

/** The verdict shape DPOR shares (see analysis::EnumerationResult). */
using ExplicitResult = analysis::EnumerationResult;

class ExplicitChecker {
  public:
    ExplicitChecker(const prog::Program &program,
                    const cat::CatModel &model,
                    ExplicitOptions options = {});
    ~ExplicitChecker();

    /** Enumerate everything once; result answers safety and DRF. */
    ExplicitResult run();

  private:
    struct Impl;
    Impl *impl_;
};

} // namespace gpumc::expl

#endif // GPUMC_EXPLICIT_EXPLICIT_CHECKER_HPP
