#include "core/verifier.hpp"

#include "dpor/dpor_checker.hpp"
#include "encoder/relation_encoder.hpp"
#include "program/unroller.hpp"
#include "support/cli.hpp"
#include "support/trace.hpp"

namespace gpumc::core {

using prog::NodeSpecial;
using smt::Lit;

namespace {

const char *
propertyName(Property property)
{
    switch (property) {
      case Property::Safety: return "safety";
      case Property::Liveness: return "liveness";
      case Property::CatSpec: return "cat-spec";
    }
    return "?";
}

/** Stats-registry convention: phase times in integer microseconds. */
int64_t
toUs(double ms)
{
    return static_cast<int64_t>(ms * 1000.0 + 0.5);
}

/**
 * Mirror a result's stats into the process-wide tracer so the metrics
 * export aggregates the same registry the results carry. Size-like
 * gauges keep their maximum; time and work counters accumulate.
 * queriesOnSharedSession is a running total per session, so the
 * session reports the queries it issued instead.
 */
void
publish(const StatsRegistry &stats)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    if (!tracer.enabled())
        return;
    for (const auto &[key, value] : stats.all()) {
        if (key == "queriesOnSharedSession")
            continue;
        if (key == "events" || key == "smtVars" || key == "smtClauses" ||
            key == "smtAcyclicEdges")
            tracer.counterMax(key, value);
        else
            tracer.counterAdd(key, value);
    }
}

/**
 * Set holds and detail from whether the check @p found the behaviour
 * it looks for: one that satisfies an exists condition or violates a
 * ~exists or forall condition, a flagged one, or a stuck one.
 */
void
judge(VerificationResult &result, prog::AssertKind assertKind, bool found)
{
    switch (result.property) {
      case Property::Safety:
        switch (assertKind) {
          case prog::AssertKind::Exists:
            result.holds = found;
            result.detail = found ? "condition reachable"
                                  : "condition unreachable";
            break;
          case prog::AssertKind::NotExists:
            result.holds = !found;
            result.detail = found ? "forbidden state reachable"
                                  : "forbidden state unreachable";
            break;
          case prog::AssertKind::Forall:
            result.holds = !found;
            result.detail = found ? "counterexample found"
                                  : "condition holds in all behaviours";
            break;
        }
        break;
      case Property::CatSpec:
        result.holds = !found;
        result.detail = found ? "flagged behaviour (e.g. data race) found"
                              : "no flagged behaviour";
        break;
      case Property::Liveness:
        result.holds = !found;
        result.detail = found ? "liveness violation found"
                              : "no liveness violation";
        break;
    }
}

/** One exploration by the enumerative engine @p options picks: DPOR,
 *  or the explicit baseline, which is DPOR with nothing pruned. */
dpor::DporResult
explore(const prog::Program &program, const cat::CatModel &model,
        const VerifierOptions &options)
{
    dpor::DporOptions budget;
    budget.maxCandidates = options.maxCandidates;
    budget.timeoutMs = static_cast<double>(options.solverTimeoutMs);
    budget.exhaustive = options.engine == Engine::Explicit;
    return dpor::DporChecker(program, model, budget).run();
}

} // namespace

Verifier::Verifier(const prog::Program &program, const cat::CatModel &model,
                   VerifierOptions options)
    : program_(program), model_(model), options_(options)
{
}

Verifier::~Verifier() = default;

struct Verifier::Session {
    /** Elapsed-and-restart: closes the current timing phase. */
    static double takePhase(Stopwatch &watch)
    {
        double ms = watch.elapsedMs();
        watch.restart();
        return ms;
    }

    /** Per-property query state on the shared solver. */
    struct PropertyQuery {
        /** Selector guarding this property's constraints. */
        Lit activation = 0;
        bool encoded = false;
        /** Decided without a solver query (CatSpec with no flags). */
        bool trivial = false;
        std::vector<encoder::FlagViolation> flags;
    };

    // Members run in declaration order, so the interleaved `*Ms`
    // members fence off the pipeline phases: unroll -> exec analysis
    // -> relation analysis -> encode -> solve.
    Stopwatch phaseWatch;
    prog::UnrolledProgram up;
    double unrollMs;
    analysis::ExecAnalysis exec;
    double execAnalysisMs;
    analysis::RelationAnalysis ra;
    double relAnalysisMs;
    std::unique_ptr<smt::Backend> backend;
    smt::Circuit circuit;
    encoder::ProgramEncoder pe;
    encoder::RelationEncoder re;
    double structureEncodeMs = 0;

    // Shared-session state across property checks.
    std::map<Property, PropertyQuery> queries;
    bool commonAsserted = false;
    int64_t queriesIssued = 0;
    /** queriesIssued when the tracer last heard of it. */
    int64_t queriesPublished = 0;
    int64_t timesReused = 0;

    // Per-check state, reset by beginCheck().
    double checkEncodeMs = 0;
    double checkSolveMs = 0;
    Deadline deadline;
    std::map<std::string, int64_t> statsBase;

    Session(const prog::Program &program, const cat::CatModel &model,
            const VerifierOptions &options)
        : up(prog::unroll(program, options.bound)),
          unrollMs(takePhase(phaseWatch)),
          exec(up),
          execAnalysisMs(takePhase(phaseWatch)),
          ra(exec, model),
          relAnalysisMs(takePhase(phaseWatch)),
          backend(smt::makeBackend(
              options.backend,
              smt::BackendConfig{
                  options.cubeDepth,
                  smt::shareCubesEnabled(options.clauseShare)})),
          circuit(*backend),
          pe(ra, circuit,
             encoder::EncoderOptions{
                 options.valueBits > 0
                     ? options.valueBits
                     : program.suggestedValueBits(options.bound),
                 /*coTotal=*/program.arch != prog::Arch::Ptx,
                 options.useLowerBounds,
                 options.forceClosureSoundness}),
          re(ra, pe)
    {
        pe.encodeStructure();
        re.assertAxioms();
        structureEncodeMs = takePhase(phaseWatch);
        if (trace::Tracer::instance().enabled())
            emitBuildSpans();
    }

    /**
     * Emit the pipeline-build phases as back-to-back trace spans. The
     * phases already ran (they are timed by the member initializers),
     * so the spans are reconstructed ending "now": durations are
     * *floored* to microseconds and the start is `now - sum`, which
     * keeps every span inside the enclosing RAII `check` span.
     */
    void emitBuildSpans() const
    {
        trace::Tracer &tracer = trace::Tracer::instance();
        const std::pair<const char *, double> phases[] = {
            {"phase:unroll", unrollMs},
            {"phase:exec-analysis", execAnalysisMs},
            {"phase:relation-analysis", relAnalysisMs},
            {"phase:structure-encode", structureEncodeMs},
        };
        int64_t totalUs = 0;
        for (const auto &[name, ms] : phases)
            totalUs += static_cast<int64_t>(ms * 1000.0);
        int64_t ts = tracer.nowUs() - totalUs;
        tracer.completeSpan("session-build", ts, totalUs,
                            {{"events", std::to_string(up.numEvents())}});
        for (const auto &[name, ms] : phases) {
            int64_t durUs = static_cast<int64_t>(ms * 1000.0);
            tracer.completeSpan(name, ts, durUs);
            ts += durUs;
        }
    }

    /**
     * Open a property check: reset per-check timers, arm the check's
     * shared wall-clock deadline, and snapshot the backend statistics
     * so this check's solver work can be exported as deltas.
     */
    void beginCheck(int64_t solverTimeoutMs)
    {
        phaseWatch.restart();
        checkEncodeMs = 0;
        checkSolveMs = 0;
        deadline = Deadline::in(solverTimeoutMs);
        statsBase = backend->statistics();
    }

    /** Assert `act -> l`: l only constrains queries that assume act. */
    void assertGuarded(Lit act, Lit l)
    {
        backend->addClause({-act, l});
    }

    /**
     * Constraints every property needs, asserted unguarded exactly
     * once: the litmus `filter` clause and the hard (non-spin) kill
     * forbids. Spin kills stay per-property: Safety/CatSpec forbid
     * them (guarded), Liveness interprets them as stuck threads.
     */
    void ensureCommon(const prog::Program &program)
    {
        if (commonAsserted)
            return;
        commonAsserted = true;
        for (int node : up.killNodes) {
            if (!up.nodes[node].spinKill)
                circuit.assertLit(circuit.mkNot(pe.guardOf(node)));
        }
        if (program.filter)
            circuit.assertLit(pe.condLit(*program.filter));
    }

    /** Forbid reaching spin-kill nodes, guarded by @p act. */
    void forbidSpinKills(Lit act)
    {
        for (int node : up.killNodes) {
            if (up.nodes[node].spinKill)
                assertGuarded(act, circuit.mkNot(pe.guardOf(node)));
        }
    }

    /**
     * Issue this property's query on the shared solver: assume its
     * activation and retire every other encoded property's group.
     * Under these assumptions the formula is equisatisfiable with the
     * fresh single-property encoding (the other groups' clauses are
     * satisfied by their negated selectors, and their gate variables
     * are unconstrained), so verdicts match fresh sessions exactly.
     */
    smt::SolveResult query(Property property)
    {
        std::vector<Lit> assumptions;
        for (const auto &[p, q] : queries) {
            if (!q.encoded || q.trivial)
                continue;
            assumptions.push_back(p == property ? q.activation
                                                : -q.activation);
        }
        // Explicitly (re)arm the limit before every query: derives the
        // remaining per-check budget from the shared deadline, and
        // resets any budget a previous (possibly timed-out) check left
        // behind so it cannot poison this query. armTimeLimit refuses
        // an already-expired deadline — remainingMs() == 0 must map to
        // "Unknown now", never to setTimeLimitMs(0) ("unlimited").
        if (!smt::armTimeLimit(*backend, deadline))
            return smt::SolveResult::Unknown;
        queriesIssued++;
        return backend->solve(assumptions);
    }

    /** Stamp phase timings and solver statistics into @p result. */
    void exportStats(VerificationResult &result, bool builtSession)
    {
        // The pipeline phases ran once, when the session was built;
        // checks served from the live session only pay property
        // encoding + solving.
        result.stats.set("phaseUnrollUs",
                         toUs(builtSession ? unrollMs : 0));
        result.stats.set("phaseExecAnalysisUs",
                         toUs(builtSession ? execAnalysisMs : 0));
        result.stats.set("phaseRelAnalysisUs",
                         toUs(builtSession ? relAnalysisMs : 0));
        result.stats.set(
            "phaseAnalysisUs",
            toUs(builtSession ? execAnalysisMs + relAnalysisMs : 0));
        result.stats.set(
            "phaseEncodeUs",
            toUs((builtSession ? structureEncodeMs : 0) + checkEncodeMs));
        result.stats.set("phaseSolveUs", toUs(checkSolveMs));
        result.stats.set("sessionsBuilt", builtSession ? 1 : 0);
        result.stats.set("sessionsReused", builtSession ? 0 : 1);
        result.stats.set("queriesOnSharedSession", queriesIssued);
        // Solver counters as deltas against the beginCheck() snapshot,
        // so each result reports its own check's work even though the
        // backend accumulates across the whole session.
        std::string solverPrefix = "solver.";
        for (const auto &[key, value] : backend->statistics()) {
            auto it = statsBase.find(key);
            int64_t base = it == statsBase.end() ? 0 : it->second;
            result.stats.set(solverPrefix + key, value - base);
        }
        publish(result.stats);
        trace::counterAdd("queriesOnSharedSession",
                          queriesIssued - queriesPublished);
        queriesPublished = queriesIssued;
    }
};

VerificationResult
Verifier::check(Property property)
{
    return run(property);
}

VerificationResult
Verifier::checkSafety()
{
    return run(Property::Safety);
}

VerificationResult
Verifier::checkLiveness()
{
    return run(Property::Liveness);
}

VerificationResult
Verifier::checkCatSpec()
{
    return run(Property::CatSpec);
}

std::vector<VerificationResult>
Verifier::checkAll(const std::vector<Property> &properties)
{
    std::vector<VerificationResult> results;
    results.reserve(properties.size());
    for (Property property : properties)
        results.push_back(run(property));
    return results;
}

VerificationResult
Verifier::run(Property property)
{
    if (options_.engine != Engine::Smt)
        return runEnumerative(property);
    Stopwatch timer;
    VerificationResult result;
    result.property = property;

    trace::Span checkSpan("check");
    checkSpan.arg("property", propertyName(property));

    const bool builtSession = !session_;
    if (builtSession)
        session_ = std::make_unique<Session>(program_, model_, options_);
    Session &s = *session_;
    s.beginCheck(options_.solverTimeoutMs);
    if (!builtSession) {
        s.timesReused++;
        trace::Tracer &tracer = trace::Tracer::instance();
        if (tracer.enabled())
            tracer.instant("session-reused",
                           {{"property", propertyName(property)}});
    }

    trace::Span encodeSpan("encode");
    encodeSpan.arg("property", propertyName(property));

    s.ensureCommon(program_);

    // Per-property query construction, encoded once per session behind
    // a fresh activation literal; repeats of the same property reuse
    // the already-encoded group (and the solver's learned clauses).
    Session::PropertyQuery &q = s.queries[property];
    if (!q.encoded) {
        q.encoded = true;
        switch (property) {
          case Property::Safety: {
            q.activation = s.backend->mkActivationLit();
            s.forbidSpinKills(q.activation);
            Lit cond = program_.assertion
                           ? s.pe.condLit(*program_.assertion)
                           : s.circuit.trueLit();
            if (program_.assertKind == prog::AssertKind::Forall)
                cond = s.circuit.mkNot(cond);
            s.assertGuarded(q.activation, cond);
            break;
          }
          case Property::CatSpec: {
            q.flags = s.re.encodeFlags();
            if (q.flags.empty()) {
                q.trivial = true;
                break;
            }
            q.activation = s.backend->mkActivationLit();
            s.forbidSpinKills(q.activation);
            std::vector<Lit> any;
            for (const encoder::FlagViolation &f : q.flags)
                any.push_back(f.lit);
            s.assertGuarded(q.activation, s.circuit.mkOr(any));
            break;
          }
          case Property::Liveness: {
            // Spin kills represent stuck threads here, so they are
            // deliberately not forbidden for this property's query.
            q.activation = s.backend->mkActivationLit();

            // stuck(t): some spinloop of t exhausted the bound with
            // all of its final-iteration reads observing co-maximal
            // writes.
            std::vector<Lit> stuck(program_.numThreads(),
                                   s.circuit.falseLit());
            for (const prog::SpinKillInfo &info : s.up.spinKills) {
                std::vector<Lit> conj = {s.pe.guardOf(info.killNode)};
                for (int read : info.lastIterationReads) {
                    // The read observes a co-maximal write.
                    std::vector<Lit> cases;
                    for (const auto &[key, lit] : s.pe.rfMap()) {
                        int w = static_cast<int>(key >> 32);
                        int r = static_cast<int>(key & 0xffffffff);
                        if (r != read)
                            continue;
                        cases.push_back(
                            s.circuit.mkAnd(lit, s.pe.coMaximalLit(w)));
                    }
                    conj.push_back(s.circuit.mkOr(cases));
                }
                stuck[info.thread] = s.circuit.mkOr(
                    stuck[info.thread], s.circuit.mkAnd(conj));
            }

            // Violation: some thread is stuck, and every thread is
            // either stuck or terminated (no thread can make
            // progress).
            std::vector<Lit> someStuck;
            std::vector<Lit> allBlocked;
            for (int t = 0; t < program_.numThreads(); ++t) {
                someStuck.push_back(stuck[t]);
                allBlocked.push_back(
                    s.circuit.mkOr(stuck[t], s.pe.threadTerminated(t)));
            }
            s.assertGuarded(q.activation, s.circuit.mkOr(someStuck));
            s.assertGuarded(q.activation, s.circuit.mkAnd(allBlocked));
            break;
          }
        }
    }

    result.stats.set("events", s.up.numEvents());
    result.stats.set("smtVars", s.backend->numVars());
    result.stats.set("smtClauses", s.backend->numClauses());
    result.stats.set("smtAcyclicEdges", s.backend->numAcyclicEdges());

    // The property-specific encoding above is part of the encode phase.
    s.checkEncodeMs += Session::takePhase(s.phaseWatch);
    encodeSpan.close();

    if (q.trivial) {
        result.holds = true;
        result.detail = "model has no flagged axioms";
        s.exportStats(result, builtSession);
        result.timeMs = timer.elapsedMs();
        checkSpan.arg("outcome", "holds");
        return result;
    }

    smt::SolveResult solveResult;
    {
        trace::Span solveSpan("solve");
        solveSpan.arg("property", propertyName(property));
        solveResult = s.query(property);
        solveSpan.arg("result",
                      solveResult == smt::SolveResult::Sat     ? "sat"
                      : solveResult == smt::SolveResult::Unsat ? "unsat"
                                                               : "unknown");
    }
    s.checkSolveMs += Session::takePhase(s.phaseWatch);
    if (solveResult == smt::SolveResult::Unknown) {
        // Unknown is confined to this check: the solver unwound to its
        // root level, the activation stays retired for other queries,
        // and the next check re-arms its own deadline — later
        // properties are reported independently.
        result.unknown = true;
        result.detail = "solver resource limit exhausted";
        s.exportStats(result, builtSession);
        result.timeMs = timer.elapsedMs();
        checkSpan.arg("outcome", "unknown");
        return result;
    }
    bool sat = solveResult == smt::SolveResult::Sat;
    judge(result, program_.assertKind, sat);

    if (sat && options_.wantWitness) {
        trace::Span witnessSpan("witness");
        ExecutionWitness witness = extractWitness(s.ra, s.pe);
        if (property == Property::CatSpec) {
            // Record the flagged (racy) pairs in witness coordinates.
            std::map<int, int> localOf;
            for (size_t i = 0; i < witness.events.size(); ++i)
                localOf[witness.events[i].originalId] =
                    static_cast<int>(i);
            for (const encoder::FlagViolation &f : q.flags) {
                for (const auto &[pair, lit] : f.pairLits) {
                    if (!s.circuit.modelTrue(lit))
                        continue;
                    auto ia = localOf.find(pair.first);
                    auto ib = localOf.find(pair.second);
                    if (ia != localOf.end() && ib != localOf.end()) {
                        witness.flaggedPairs.push_back(
                            {ia->second, ib->second});
                    }
                }
            }
        }
        if (options_.validateWitness) {
            GPUMC_ASSERT(witnessConsistent(witness, s.ra, model_),
                         "SAT witness violates the cat model: encoder bug");
        }
        result.witness = std::move(witness);
    }

    s.exportStats(result, builtSession);
    result.timeMs = timer.elapsedMs();
    checkSpan.arg("outcome", result.holds ? "holds" : "violated");
    return result;
}

VerificationResult
Verifier::runEnumerative(Property property)
{
    Stopwatch timer;
    VerificationResult result;
    result.property = property;
    trace::Span checkSpan("check");
    checkSpan.arg("property", propertyName(property));

    if (property == Property::Liveness) {
        result.unknown = true;
        result.detail =
            "liveness is not supported by the enumerative engines";
    } else {
        // One exploration answers Safety and CatSpec alike; one that
        // ran out of budget is re-run under this check's own budget.
        const bool explores = !explored_ || explored_->timedOut;
        if (explores) {
            explored_ = std::make_unique<dpor::DporResult>(
                explore(program_, model_, options_));
        }
        const dpor::DporResult &r = *explored_;
        result.stats.set("sessionsBuilt", explores ? 1 : 0);
        result.stats.set("sessionsReused", explores ? 0 : 1);
        result.stats.set(
            "candidatesExplored",
            explores ? static_cast<int64_t>(r.candidatesExplored) : 0);
        if (!r.supported) {
            result.unknown = true;
            result.detail =
                std::string(kUnsupportedDetail) + r.unsupportedReason;
        } else if (r.timedOut) {
            result.unknown = true;
            result.detail = "exploration budget exhausted after " +
                            std::to_string(r.candidatesExplored) +
                            " candidates";
        } else if (property == Property::Safety) {
            bool exists = program_.assertKind == prog::AssertKind::Exists;
            judge(result, program_.assertKind, r.conditionHolds == exists);
        } else if (model_.hasFlaggedAxioms()) {
            judge(result, program_.assertKind, r.raceFound);
        } else {
            result.holds = true;
            result.detail = "model has no flagged axioms";
        }
    }

    publish(result.stats);
    result.timeMs = timer.elapsedMs();
    checkSpan.arg("outcome", result.unknown  ? "unknown"
                             : result.holds ? "holds"
                                            : "violated");
    return result;
}

bool
Verifier::exportPipelineStats(StatsRegistry &stats) const
{
    if (!session_)
        return false;
    const Session &s = *session_;
    stats.set("phaseUnrollUs", toUs(s.unrollMs));
    stats.set("phaseExecAnalysisUs", toUs(s.execAnalysisMs));
    stats.set("phaseRelAnalysisUs", toUs(s.relAnalysisMs));
    stats.set("phaseAnalysisUs", toUs(s.execAnalysisMs + s.relAnalysisMs));
    stats.set("phaseEncodeUs", toUs(s.structureEncodeMs + s.checkEncodeMs));
    stats.set("phaseSolveUs", toUs(s.checkSolveMs));
    stats.set("events", s.up.numEvents());
    stats.set("smtVars", s.backend->numVars());
    stats.set("smtClauses", s.backend->numClauses());
    stats.set("smtAcyclicEdges", s.backend->numAcyclicEdges());
    return true;
}

void
addBoundFlag(cli::Parser &cli, int &bound)
{
    cli.integer("bound", "N", "loop unroll bound (default: 2)", bound,
                prog::kMinBound, prog::kMaxBound);
}

void
addTimeoutFlag(cli::Parser &cli, int64_t &timeoutMs)
{
    cli.integer("timeout", "MS",
                "solver or exploration budget per check\n"
                "(default: 0, unlimited)",
                timeoutMs, 0, INT64_MAX);
}

void
addVerifierFlags(cli::Parser &cli, VerifierOptions &options)
{
    cli.choice("engine",
               "smt: bounded SMT encoding (default)\n"
               "dpor: stateless model checking\n"
               "explicit: enumerate-everything baseline\n"
               "dpor and explicit check straight-line programs;\n"
               "liveness is unknown under them",
               {{"smt", Engine::Smt},
                {"dpor", Engine::Dpor},
                {"explicit", Engine::Explicit}},
               options.engine);
    addBoundFlag(cli, options.bound);
    addTimeoutFlag(cli, options.solverTimeoutMs);
    cli.choice("backend", "SMT backend (default: builtin)",
               {{"z3", smt::BackendKind::Z3},
                {"builtin", smt::BackendKind::Builtin}},
               options.backend);
    cli.integer("cube-depth", "N",
                "split builtin-solver queries into 2^N cubes\n"
                "solved in parallel (default: 0, off)",
                options.cubeDepth, 0, 16);
    cli.choice("clause-share",
               "share learned clauses between the cube solvers\n"
               "(default: off)",
               {{"off", smt::ClauseShareMode::Off},
                {"cube", smt::ClauseShareMode::Cube}},
               options.clauseShare);
}

} // namespace gpumc::core
