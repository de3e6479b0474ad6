/**
 * @file
 * Session plans and the outside-in traced pass.
 *
 * A SessionPlan is one (program, model, options) session and the
 * property checks issued on it, in order — what one core::Verifier (or
 * one core::BatchVerifier group) does. The traced pass re-drives every
 * plan through the layers' public functions in Verifier's order, one
 * span per layer:
 *
 *   program.unroll     prog::unroll
 *   analysis.exec      analysis::ExecAnalysis
 *   analysis.relation  analysis::RelationAnalysis, with boundsOf/setOf
 *                      forced on every let and axiom so the lazy
 *                      analysis is not booked as encoder time
 *   smt.backend        smt::makeBackend + smt::Circuit
 *   encoder.structure  ProgramEncoder::encodeStructure
 *   encoder.axioms     RelationEncoder::assertAxioms
 *   encoder.property   filter/kill constraints, condLit or encodeFlags,
 *                      activation and guard clauses
 *   smt.solve          Backend::solve under the activation assumptions
 *
 * Sessions with a liveness check run through core::Verifier instead,
 * one `core.check` span per verdict. Every traced verdict is then
 * reconciled against an untraced Verifier run of the same plan: the
 * verdict, the variable count and the clause count must be equal.
 */

#ifndef GPUBENCH_MIRROR_HPP
#define GPUBENCH_MIRROR_HPP

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace gpubench {

struct Check {
    core::Property property = core::Property::Safety;
    /** Independent reference verdict; empty when there is none. */
    std::optional<bool> expectHolds;
};

struct SessionPlan {
    std::string name;
    const prog::Program *program = nullptr;
    const cat::CatModel *model = nullptr;
    core::VerifierOptions options;
    std::vector<Check> checks;
};

using PlanResults = std::vector<std::vector<core::VerificationResult>>;

/**
 * The untraced reference: one core::Verifier per plan, checks in plan
 * order. Returns the wall time of the whole pass in @p wallSec.
 */
PlanResults runReference(const std::vector<SessionPlan> &plans,
                         double &wallSec);

/**
 * Compare @p results with the plans' reference verdicts, counting
 * checked/unchecked/failed verdicts into @p report.
 */
void gateVerdicts(const std::vector<SessionPlan> &plans,
                  const PlanResults &results, Report &report);

/**
 * Drive every plan through the layers (see the file comment), record
 * spans and per-layer numbers, and reconcile each verdict with
 * @p reference. The reference's summed check time is the base of the
 * tracing-overhead figure.
 */
void runTraced(const std::vector<SessionPlan> &plans,
               const PlanResults &reference, Spans &spans, Layers &layers,
               Report &report);

/**
 * Fill the core.* and verifier.* layer metrics from an untraced
 * reference pass that ran on @p workers threads for @p wallSec.
 */
void coreLayers(const PlanResults &reference, unsigned workers,
                double wallSec, Layers &layers);

/** Convert summed span self times into the *_us layer metrics. */
void spanLayers(const Spans &spans, Layers &layers);

} // namespace gpubench

#endif // GPUBENCH_MIRROR_HPP
