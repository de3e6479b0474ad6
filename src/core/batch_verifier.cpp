#include "core/batch_verifier.hpp"

#include <map>
#include <memory>

#include "core/session_key.hpp"
#include "support/diagnostics.hpp"
#include "support/thread_budget.hpp"
#include "support/trace.hpp"

namespace gpumc::core {

BatchVerifier::BatchVerifier(unsigned jobs)
    : jobs_(jobs == 0 ? defaultConcurrency() : jobs)
{
}

std::vector<BatchEntry>
BatchVerifier::run(const std::vector<BatchJob> &batch) const
{
    std::vector<BatchEntry> entries(batch.size());

    // Group jobs that may share a live session. Grouping happens up
    // front, in input order, so the group list (and thus every
    // verdict) is independent of the worker count.
    struct Group {
        std::vector<size_t> indices;
    };
    std::vector<Group> groups;
    std::map<SessionKey, size_t> groupOf;
    for (size_t i = 0; i < batch.size(); ++i) {
        const BatchJob &job = batch[i];
        GPUMC_ASSERT(job.program && job.model,
                     "BatchJob without program/model");
        SessionKey key = sessionKey(*job.program, *job.model, job.options);
        auto [it, inserted] = groupOf.try_emplace(key, groups.size());
        if (inserted)
            groups.push_back({});
        groups[it->second].indices.push_back(i);
    }

    // The calling thread runs groups too; every thread that does labels
    // its trace lane.
    parallelFor(static_cast<int64_t>(groups.size()), jobs_, [&](int64_t g) {
        trace::Tracer::instance().nameCurrentThread("batch-worker");
        const Group &group = groups[static_cast<size_t>(g)];
        // One shared Verifier per group; a job that throws gets its
        // session discarded so the remaining jobs of the group run
        // on a fresh one instead of a half-encoded solver. Before
        // the discard, whatever pipeline stats the session already
        // collected are attached to the failed entry, together
        // with the job's wall-clock time.
        std::unique_ptr<Verifier> shared;
        auto fail = [&](BatchEntry &entry, const Stopwatch &jobTimer,
                        const char *message) {
            entry.failed = true;
            entry.error = message;
            entry.result.unknown = true;
            entry.result.detail = message;
            if (shared)
                shared->exportPipelineStats(entry.result.stats);
            entry.result.timeMs = jobTimer.elapsedMs();
            trace::Tracer &tracer = trace::Tracer::instance();
            if (tracer.enabled())
                tracer.instant("batch-job-error",
                               {{"label", entry.label},
                                {"error", message}});
            shared.reset();
        };
        for (size_t i : group.indices) {
            const BatchJob &job = batch[i];
            BatchEntry &entry = entries[i];
            entry.label = job.label;
            Stopwatch jobTimer;
            trace::Span jobSpan("batch-job");
            jobSpan.arg("label", job.label);
            try {
                if (!shared) {
                    shared = std::make_unique<Verifier>(
                        *job.program, *job.model, job.options);
                }
                shared->setSolverTimeoutMs(job.options.solverTimeoutMs);
                entry.result = shared->check(job.property);
            } catch (const FatalError &error) {
                fail(entry, jobTimer, error.what());
            } catch (const std::exception &error) {
                // Anything else (e.g. bad_alloc on a huge encoding)
                // is still confined to this query, not the whole
                // batch.
                fail(entry, jobTimer, error.what());
            } catch (...) {
                // Even a non-std exception (foreign code, exotic
                // throw) must not tear down the worker pool: the
                // entry reports an ERROR verdict like any other
                // failure.
                fail(entry, jobTimer, "unknown non-standard exception");
            }
            jobSpan.close();
        }
    });

    return entries;
}

} // namespace gpumc::core
