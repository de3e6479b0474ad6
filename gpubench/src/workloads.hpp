/**
 * @file
 * The four workloads. Each runs in one of two modes:
 *  - end to end (`--trace 0`): set up several times, then repeat
 *    passes over the inputs until `--seconds` have passed (at least
 *    one full pass), gating every verdict (e2e.hpp). Workloads with
 *    short passes run one unmeasured warm-up pass first;
 *  - traced (`--trace 1`): set up once under spans, run one untraced
 *    reference pass through core, then the outside-in traced pass of
 *    mirror.hpp, reconciled against the reference, plus the workload's
 *    own layers (serve, dpor, explicit).
 */

#ifndef GPUBENCH_WORKLOADS_HPP
#define GPUBENCH_WORKLOADS_HPP

#include "common.hpp"
#include "e2e.hpp"
#include "mirror.hpp"
#include "spans.hpp"

namespace gpubench {

/** What a traced run collects besides the report. */
struct Traced {
    Spans spans;
    Layers layers;
};

void runLitmus(const Options &opts, Report &report, Traced *traced);
void runLocks(const Options &opts, Report &report, Traced *traced);
void runServe(const Options &opts, Report &report, Traced *traced);
void runEnum(const Options &opts, Report &report, Traced *traced);

/** Open a span only in traced runs. */
class MaybeSpan {
  public:
    MaybeSpan(Traced *traced, const char *name)
        : spans_(traced ? &traced->spans : nullptr),
          id_(spans_ ? spans_->open(name) : -1)
    {
    }
    ~MaybeSpan()
    {
        if (spans_)
            spans_->close(id_);
    }
    MaybeSpan(const MaybeSpan &) = delete;
    MaybeSpan &operator=(const MaybeSpan &) = delete;

  private:
    Spans *spans_;
    int id_;
};

} // namespace gpubench

#endif // GPUBENCH_WORKLOADS_HPP
