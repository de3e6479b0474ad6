#include "mirror.hpp"

#include <map>
#include <memory>

#include "analysis/exec_analysis.hpp"
#include "analysis/relation_analysis.hpp"
#include "encoder/program_encoder.hpp"
#include "encoder/relation_encoder.hpp"
#include "program/unroller.hpp"
#include "smt/backend.hpp"
#include "smt/circuit.hpp"
#include "support/diagnostics.hpp"

namespace gpubench {

namespace {

/** One traced verdict, in the terms Verifier reports it. */
struct TracedCheck {
    bool holds = false;
    bool unknown = false;
    int64_t vars = 0;
    int64_t clauses = 0;
};

/**
 * Verifier::Session rebuilt from the layers' public functions, one
 * span per layer. The construction and query order match
 * core::Verifier exactly so that the CNF (and hence the search) is
 * the same.
 */
class MirrorSession {
  public:
    MirrorSession(const SessionPlan &plan, Spans &spans, Layers &layers)
        : program_(*plan.program), options_(plan.options)
    {
        {
            Spans::Scope span(spans, "program.unroll");
            up_.emplace(prog::unroll(program_, options_.bound));
        }
        layers.add("program.events", up_->numEvents());
        {
            Spans::Scope span(spans, "analysis.exec");
            exec_.emplace(*up_);
        }
        {
            Spans::Scope span(spans, "analysis.relation");
            ra_.emplace(*exec_, *plan.model);
            forceAnalysis(*plan.model, layers);
        }
        {
            Spans::Scope span(spans, "smt.backend");
            backend_ = smt::makeBackend(
                options_.backend,
                smt::BackendConfig{
                    options_.cubeDepth,
                    smt::shareCubesEnabled(options_.clauseShare)});
            circuit_.emplace(*backend_);
        }
        {
            Spans::Scope span(spans, "encoder.structure");
            pe_.emplace(*ra_, *circuit_,
                        encoder::EncoderOptions{
                            options_.valueBits > 0
                                ? options_.valueBits
                                : program_.suggestedValueBits(
                                      options_.bound),
                            /*coTotal=*/program_.arch != prog::Arch::Ptx,
                            options_.useLowerBounds,
                            options_.forceClosureSoundness});
            pe_->encodeStructure();
        }
        {
            Spans::Scope span(spans, "encoder.axioms");
            re_.emplace(*ra_, *pe_);
            re_->assertAxioms();
        }
    }

    int64_t numVars() const { return backend_->numVars(); }
    int64_t numClauses() const { return backend_->numClauses(); }

    TracedCheck check(core::Property property, Spans &spans,
                      Layers &layers)
    {
        Deadline deadline = Deadline::in(options_.solverTimeoutMs);
        TracedCheck out;
        Query *query = nullptr;
        {
            Spans::Scope span(spans, "encoder.property");
            query = &encodeProperty(property);
        }
        out.vars = backend_->numVars();
        out.clauses = backend_->numClauses();
        if (query->trivial) {
            out.holds = true;
            return out;
        }

        // Verifier::Session::query: assume this property's activation
        // and retire every other encoded one, in Property order.
        std::vector<smt::Lit> assumptions;
        for (const auto &[p, q] : queries_) {
            if (!q.encoded || q.trivial)
                continue;
            assumptions.push_back(p == property ? q.activation
                                                : -q.activation);
        }
        std::map<std::string, int64_t> before = backend_->statistics();
        smt::SolveResult result;
        {
            Spans::Scope span(spans, "smt.solve");
            result = smt::armTimeLimit(*backend_, deadline)
                         ? backend_->solve(assumptions)
                         : smt::SolveResult::Unknown;
        }
        std::map<std::string, int64_t> after = backend_->statistics();
        for (const char *key : {"conflicts", "decisions", "propagations"}) {
            layers.add(std::string("smt.") + key,
                       static_cast<double>(after[key] - before[key]));
        }
        if (result == smt::SolveResult::Unknown) {
            out.unknown = true;
            return out;
        }
        bool sat = result == smt::SolveResult::Sat;
        out.holds = property == core::Property::Safety &&
                            program_.assertKind == prog::AssertKind::Exists
                        ? sat
                        : !sat;
        return out;
    }

  private:
    struct Query {
        smt::Lit activation = 0;
        bool encoded = false;
        bool trivial = false;
    };

    /**
     * Force the lazy relation analysis on every let binding and axiom,
     * and count the bound sizes of the relation-typed ones.
     */
    void forceAnalysis(const cat::CatModel &model, Layers &layers)
    {
        auto force = [&](const cat::Expr &expr) {
            if (expr.type == cat::ExprType::Set) {
                ra_->setOf(expr);
                return;
            }
            const analysis::Bounds &bounds = ra_->boundsOf(expr);
            layers.add("analysis.ub_pairs",
                       static_cast<double>(bounds.ub.size()));
            layers.add("analysis.lb_pairs",
                       static_cast<double>(bounds.lb.size()));
        };
        for (const cat::LetBinding &let : model.lets())
            force(*let.expr);
        for (const cat::Axiom &axiom : model.axioms())
            force(*axiom.expr);
    }

    void assertGuarded(smt::Lit act, smt::Lit lit)
    {
        backend_->addClause({-act, lit});
    }

    void forbidSpinKills(smt::Lit act)
    {
        for (int node : up_->killNodes) {
            if (up_->nodes[node].spinKill)
                assertGuarded(act, circuit_->mkNot(pe_->guardOf(node)));
        }
    }

    Query &encodeProperty(core::Property property)
    {
        if (!commonAsserted_) {
            commonAsserted_ = true;
            for (int node : up_->killNodes) {
                if (!up_->nodes[node].spinKill)
                    circuit_->assertLit(
                        circuit_->mkNot(pe_->guardOf(node)));
            }
            if (program_.filter)
                circuit_->assertLit(pe_->condLit(*program_.filter));
        }
        Query &q = queries_[property];
        if (q.encoded)
            return q;
        q.encoded = true;
        if (property == core::Property::Safety) {
            q.activation = backend_->mkActivationLit();
            forbidSpinKills(q.activation);
            smt::Lit cond = program_.assertion
                                ? pe_->condLit(*program_.assertion)
                                : circuit_->trueLit();
            if (program_.assertKind == prog::AssertKind::Forall)
                cond = circuit_->mkNot(cond);
            assertGuarded(q.activation, cond);
            return q;
        }
        GPUMC_ASSERT(property == core::Property::CatSpec,
                     "liveness is not mirrored");
        std::vector<encoder::FlagViolation> flags = re_->encodeFlags();
        if (flags.empty()) {
            q.trivial = true;
            return q;
        }
        q.activation = backend_->mkActivationLit();
        forbidSpinKills(q.activation);
        std::vector<smt::Lit> any;
        for (const encoder::FlagViolation &f : flags)
            any.push_back(f.lit);
        assertGuarded(q.activation, circuit_->mkOr(any));
        return q;
    }

    const prog::Program &program_;
    core::VerifierOptions options_;
    std::optional<prog::UnrolledProgram> up_;
    std::optional<analysis::ExecAnalysis> exec_;
    std::optional<analysis::RelationAnalysis> ra_;
    std::unique_ptr<smt::Backend> backend_;
    std::optional<smt::Circuit> circuit_;
    std::optional<encoder::ProgramEncoder> pe_;
    std::optional<encoder::RelationEncoder> re_;
    std::map<core::Property, Query> queries_;
    bool commonAsserted_ = false;
};

bool
hasLiveness(const SessionPlan &plan)
{
    for (const Check &check : plan.checks) {
        if (check.property == core::Property::Liveness)
            return true;
    }
    return false;
}

std::string
checkLabel(const SessionPlan &plan, size_t c)
{
    return plan.name + " [" + plan.model->name() + "] " +
           propertyName(plan.checks[c].property);
}

} // namespace

PlanResults
runReference(const std::vector<SessionPlan> &plans, double &wallSec)
{
    PlanResults results(plans.size());
    double start = nowSec();
    for (size_t s = 0; s < plans.size(); ++s) {
        const SessionPlan &plan = plans[s];
        core::Verifier verifier(*plan.program, *plan.model, plan.options);
        for (const Check &check : plan.checks) {
            core::VerificationResult result;
            try {
                result = verifier.check(check.property);
            } catch (const std::exception &error) {
                result.property = check.property;
                result.unknown = true;
                result.detail = error.what();
            }
            results[s].push_back(std::move(result));
        }
    }
    wallSec = nowSec() - start;
    return results;
}

void
gateVerdicts(const std::vector<SessionPlan> &plans,
             const PlanResults &results, Report &report)
{
    for (size_t s = 0; s < plans.size(); ++s) {
        for (size_t c = 0; c < plans[s].checks.size(); ++c) {
            const core::VerificationResult &result = results[s][c];
            const std::optional<bool> &expect =
                plans[s].checks[c].expectHolds;
            report.attempted++;
            if (result.unknown) {
                report.failed++;
                continue;
            }
            if (!expect) {
                report.unchecked++;
                continue;
            }
            report.checked++;
            if (result.holds != *expect) {
                report.mismatch(checkLabel(plans[s], c) + ": got " +
                                (result.holds ? "holds" : "fails") +
                                ", reference says " +
                                (*expect ? "holds" : "fails"));
            }
        }
    }
}

void
runTraced(const std::vector<SessionPlan> &plans,
          const PlanResults &reference, Spans &spans, Layers &layers,
          Report &report)
{
    double referenceMs = 0;
    for (const auto &session : reference) {
        for (const core::VerificationResult &result : session)
            referenceMs += result.timeMs;
    }

    double start = nowSec();
    int64_t verdict = 0;
    for (size_t s = 0; s < plans.size(); ++s) {
        const SessionPlan &plan = plans[s];
        Spans::Scope sessionSpan(spans, "session");
        std::optional<MirrorSession> mirror;
        std::unique_ptr<core::Verifier> verifier;
        for (size_t c = 0; c < plan.checks.size(); ++c) {
            core::Property property = plan.checks[c].property;
            spans.setVerdict(verdict++);
            TracedCheck traced;
            if (hasLiveness(plan)) {
                // Liveness is not mirrored: the whole session runs
                // through Verifier, one core.check span per verdict.
                Spans::Scope span(spans, "core.check");
                if (!verifier) {
                    verifier = std::make_unique<core::Verifier>(
                        *plan.program, *plan.model, plan.options);
                }
                core::VerificationResult result =
                    verifier->check(property);
                traced.holds = result.holds;
                traced.unknown = result.unknown;
                traced.vars = result.stats.get("smtVars");
                traced.clauses = result.stats.get("smtClauses");
            } else {
                Spans::Scope span(spans, "verdict");
                if (!mirror)
                    mirror.emplace(plan, spans, layers);
                traced = mirror->check(property, spans, layers);
            }

            const core::VerificationResult &ref = reference[s][c];
            int64_t refVars = ref.stats.get("smtVars");
            int64_t refClauses = ref.stats.get("smtClauses");
            if (traced.holds != ref.holds ||
                traced.unknown != ref.unknown || traced.vars != refVars ||
                traced.clauses != refClauses) {
                report.mismatch(
                    "reconcile " + checkLabel(plan, c) + ": traced " +
                    (traced.holds ? "holds" : "fails") + " vars " +
                    std::to_string(traced.vars) + " clauses " +
                    std::to_string(traced.clauses) + ", Verifier " +
                    (ref.holds ? "holds" : "fails") + " vars " +
                    std::to_string(refVars) + " clauses " +
                    std::to_string(refClauses));
            } else {
                layers.add("trace.reconciled", 1);
            }
        }
        spans.setVerdict(-1);
        if (mirror) {
            layers.add("encoder.vars", static_cast<double>(mirror->numVars()));
            layers.add("encoder.clauses",
                       static_cast<double>(mirror->numClauses()));
        }
    }
    double tracedMs = (nowSec() - start) * 1000.0;
    if (referenceMs > 0)
        layers.set("trace.overhead_frac", tracedMs / referenceMs - 1.0);
}

void
coreLayers(const PlanResults &reference, unsigned workers, double wallSec,
           Layers &layers)
{
    double checkMs = 0;
    for (const auto &session : reference) {
        for (const core::VerificationResult &result : session) {
            checkMs += result.timeMs;
            layers.add("core.sessions_built",
                       static_cast<double>(result.stats.get("sessionsBuilt")));
            layers.add("core.sessions_reused",
                       static_cast<double>(
                           result.stats.get("sessionsReused")));
            layers.add("verifier.unroll_us",
                       static_cast<double>(result.stats.get("phaseUnrollUs")));
            layers.add("verifier.analysis_us",
                       static_cast<double>(
                           result.stats.get("phaseAnalysisUs")));
            layers.add("verifier.encode_us",
                       static_cast<double>(result.stats.get("phaseEncodeUs")));
            layers.add("verifier.solve_us",
                       static_cast<double>(result.stats.get("phaseSolveUs")));
        }
    }
    layers.add("core.check_us", checkMs * 1000.0);
    if (wallSec > 0 && workers > 0) {
        layers.set("core.worker_busy_frac",
                   checkMs / 1000.0 / (workers * wallSec));
    }
}

void
spanLayers(const Spans &spans, Layers &layers)
{
    for (const auto &[name, us] : spans.selfUsByName()) {
        // core.check_us comes from the untraced reference (coreLayers);
        // the traced liveness spans only appear in the span file.
        if (name == "core.check")
            continue;
        for (const std::string &metric : {name + "_us", name + ".us"}) {
            if (layers.all().count(metric)) {
                layers.add(metric, us);
                break;
            }
        }
    }
}

} // namespace gpubench
