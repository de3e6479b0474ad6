/**
 * @file
 * Batch verification engine: fans a vector of independent
 * (program, model, property) queries out across worker threads and
 * collects the results in input order.
 *
 * Jobs with equal session keys (program fingerprint, model content
 * fingerprint, engine, bound, backend — see core/session_key.hpp) are
 * grouped onto one shared Verifier: under SMT the unroll/analysis/
 * encode pipeline runs once per group and each job is an
 * assumption-guarded query on the live solver, and under DPOR or the
 * explicit baseline one exploration answers the group (see
 * core::Verifier). Each job runs under its own budget
 * (`options.solverTimeoutMs`). Groups share no mutable state with each
 * other, so the fan-out across groups is embarrassingly parallel. Inputs
 * (programs and models) are only read; CatModel is immutable after
 * construction and safe to share across workers (verified: no mutable
 * members, and the only statics behind it — cat::Vocabulary::gpu()
 * and the analysis init-placement constant — are const with
 * thread-safe magic-static initialization).
 *
 * Determinism: results land in a pre-sized slot per job, groups are
 * formed in first-seen input order and run their jobs sequentially in
 * input order, so the returned vector (and every verdict in it) is
 * identical for any worker count.
 */

#ifndef GPUMC_CORE_BATCH_VERIFIER_HPP
#define GPUMC_CORE_BATCH_VERIFIER_HPP

#include <string>
#include <vector>

#include "core/verifier.hpp"

namespace gpumc::core {

/** One verification query. Pointees must outlive the run() call. */
struct BatchJob {
    const prog::Program *program = nullptr;
    const cat::CatModel *model = nullptr;
    Property property = Property::Safety;
    VerifierOptions options;
    /** Free-form tag echoed into the matching BatchEntry (e.g. the
     *  source file plus model name); not interpreted. */
    std::string label;
};

/** Outcome of one BatchJob, at the same index as its job. */
struct BatchEntry {
    std::string label;
    VerificationResult result;
    /**
     * The verifier threw (malformed program, internal limit, ...);
     * `error` holds the message. `result` is marked unknown and still
     * carries the job's wall-clock time plus whatever pipeline phase
     * stats the session had collected before the failure.
     */
    bool failed = false;
    std::string error;
};

class BatchVerifier {
  public:
    /** @param jobs worker threads; 0 = hardware concurrency. */
    explicit BatchVerifier(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Run every job; entry i corresponds to jobs[i]. */
    std::vector<BatchEntry> run(const std::vector<BatchJob> &batch) const;

  private:
    unsigned jobs_;
};

} // namespace gpumc::core

#endif // GPUMC_CORE_BATCH_VERIFIER_HPP
