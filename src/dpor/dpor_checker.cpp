#include "dpor/dpor_checker.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analysis/concrete_execution.hpp"
#include "analysis/relation_analysis.hpp"
#include "cat/evaluator.hpp"
#include "program/event.hpp"
#include "program/unroller.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace gpumc::dpor {

using cat::PairSet;
using prog::Event;
using prog::EventKind;

namespace {

/** DFS control flow: keep going, cut the enclosing (rf) subtree, or
 *  unwind the whole exploration (budget exhausted / verdict settled). */
enum class Walk { Continue, CutSubtree, Abort };

} // namespace

struct DporChecker::Impl {
    const prog::Program &program;
    const cat::CatModel &model;
    DporOptions opts;

    prog::UnrolledProgram up;
    analysis::ExecAnalysis exec;
    analysis::RelationAnalysis ra;
    analysis::ValueSimulation sim;
    /** Straight-line programs execute every event. */
    const std::vector<int> events;

    std::vector<int> reads;                   // read event ids
    std::vector<std::vector<int>> candidates; // rf sources per read
    std::vector<int> rfChoice;                // current assignment

    // Writes grouped per location (id order), and the PTX per-pair
    // decision list.
    std::vector<std::vector<int>> locWrites;
    std::vector<std::vector<int>> orders; // current insertion prefixes
    std::vector<std::pair<int, int>> coPairs;
    std::vector<int> coChoice; // 0 unordered, 1 <, 2 >

    PairSet initCo;

    /** The rf stage's graph: the static relations with *empty* barrier
     *  relations (the sound under-approximation before values are
     *  simulated), co = initCo, an empty sync_fence and the current rf
     *  prefix. Kept for the whole run, like coStage. */
    std::optional<analysis::ConcreteContext> rfStage;
    /** The co stage's graph: the static relations, and the barrier
     *  relations, rf and sync_fence of the current (rf, sf) subtree. */
    std::optional<analysis::ConcreteContext> coStage;

    // Stage-classified axioms (see AxiomPolarity); all empty when
    // exhaustive, so no partial graph is checked.
    std::vector<const cat::Axiom *> rfStageAxioms;
    std::vector<const cat::Axiom *> coRootAxioms;
    std::vector<const cat::Axiom *> coStageAxioms;

    bool flagged = false;
    bool condRfDetermined = false; ///< assertion+filter register-only,
                                   ///< never set when exhaustive
    bool flagsCoConstant = false;  ///< flags ignore co and sync_fence

    Stopwatch watch;
    DporResult result;
    bool condTrueSomewhere = false;
    bool condFalseSomewhere = false;

    Impl(const prog::Program &p, const cat::CatModel &m, DporOptions o)
        : program(p), model(m), opts(o), up(prog::unroll(p, 1)),
          exec(up), ra(exec, m), sim(p, up),
          events(analysis::everyEvent(up))
    {
    }

    // ---- budget ---------------------------------------------------------

    bool deadlineExpired()
    {
        if (opts.timeoutMs > 0 && watch.elapsedMs() > opts.timeoutMs) {
            result.timedOut = true;
            return true;
        }
        return false;
    }

    bool overBudget()
    {
        if (opts.maxCandidates &&
            result.candidatesExplored >= opts.maxCandidates) {
            result.timedOut = true;
            return true;
        }
        return deadlineExpired();
    }

    // ---- verdict bookkeeping --------------------------------------------

    /** Everything the result reports is already determined (never when
     *  exhaustive: that run walks every candidate). */
    bool done() const
    {
        if (opts.exhaustive)
            return false;
        bool condSettled = program.assertKind == prog::AssertKind::Forall
            ? condFalseSomewhere
            : condTrueSomewhere;
        return condSettled && (!flagged || result.raceFound);
    }

    // ---- partial-graph consistency --------------------------------------

    /**
     * Set @p stage's relation @p name to @p value and check the stage's
     * monotone axioms on the partial graph. Every undecided relation is
     * supplied as its decided-so-far subset, so any violation is final
     * (see AxiomPolarity).
     */
    bool partialViolated(const std::vector<const cat::Axiom *> &axioms,
                         analysis::ConcreteContext &stage,
                         const char *name, PairSet value)
    {
        if (axioms.empty())
            return false;
        result.consistencyChecks++;
        stage.set(name, std::move(value));
        for (const cat::Axiom *ax : axioms) {
            if (!stage.evaluator().holds(*ax))
                return true;
        }
        return false;
    }

    PairSet rfPrefix(size_t upTo) const
    {
        PairSet rf;
        for (size_t i = 0; i < upTo; ++i)
            rf.add(rfChoice[i], reads[i]);
        return rf;
    }

    // ---- leaf evaluation ------------------------------------------------

    Walk evaluateLeaf(const PairSet &co)
    {
        result.candidatesExplored++;
        if (overBudget())
            return Walk::Abort;

        coStage->set("co", co);
        cat::RelationEvaluator &ev = coStage->evaluator();
        result.consistencyChecks++;
        if (!ev.consistent())
            return Walk::Continue;

        auto valuation = [&](const prog::CondTerm &term) {
            return sim.evalTerm(term, co);
        };
        if (program.filter &&
            !prog::evalCond(*program.filter, valuation)) {
            return Walk::Continue;
        }
        result.consistentBehaviours++;

        bool cond = !program.assertion ||
                    prog::evalCond(*program.assertion, valuation);
        (cond ? condTrueSomewhere : condFalseSomewhere) = true;

        if (flagged && !result.raceFound) {
            for (const cat::AxiomCheck &check : ev.evalFlags()) {
                if (!check.holds)
                    result.raceFound = true;
            }
        }

        if (done())
            return Walk::Abort; // verdict fully determined

        // One consistent leaf settles the whole rf subtree when the
        // condition is rf-determined and the race flags cannot change
        // with the remaining co/sf choices.
        if (condRfDetermined &&
            (!flagged || result.raceFound || flagsCoConstant)) {
            result.earlyStops++;
            return Walk::CutSubtree;
        }
        return Walk::Continue;
    }

    // ---- coherence exploration ------------------------------------------

    PairSet coFromOrders() const
    {
        PairSet co = initCo;
        for (const std::vector<int> &order : orders) {
            for (size_t i = 0; i < order.size(); ++i) {
                for (size_t j = i + 1; j < order.size(); ++j)
                    co.add(order[i], order[j]);
            }
        }
        return co;
    }

    /** Vulkan: insert writes into per-location total orders. */
    Walk exploreTotalCo(size_t locIdx, size_t writeIdx)
    {
        if (deadlineExpired())
            return Walk::Abort;
        if (locIdx == locWrites.size())
            return evaluateLeaf(coFromOrders());
        if (writeIdx == locWrites[locIdx].size())
            return exploreTotalCo(locIdx + 1, 0);

        int w = locWrites[locIdx][writeIdx];
        std::vector<int> &order = orders[locIdx];
        // Append first: the id-ordered (po-like) coherence order is
        // usually consistent, so the first leaf lands quickly.
        for (size_t pos = order.size() + 1; pos-- > 0;) {
            order.insert(order.begin() + static_cast<long>(pos), w);
            Walk walk = Walk::Continue;
            if (partialViolated(coStageAxioms, *coStage, "co",
                                coFromOrders())) {
                result.prunedCoBranches++;
            } else {
                walk = exploreTotalCo(locIdx, writeIdx + 1);
            }
            order.erase(order.begin() + static_cast<long>(pos));
            if (walk != Walk::Continue)
                return walk;
        }
        return Walk::Continue;
    }

    PairSet coFromChoices(size_t upTo) const
    {
        PairSet co = initCo;
        for (size_t k = 0; k < upTo; ++k) {
            if (coChoice[k] == 1)
                co.add(coPairs[k].first, coPairs[k].second);
            else if (coChoice[k] == 2)
                co.add(coPairs[k].second, coPairs[k].first);
        }
        return co;
    }

    /**
     * The closure of a decided prefix only grows along extensions, so
     * a prefix whose closure already orders an unordered-chosen pair
     * (or both directions of any pair) stays non-canonical in every
     * completion and can be cut immediately — the leaf set is exactly
     * the explicit baseline's canonical assignments.
     */
    bool prefixCanonical(const PairSet &closed, size_t upTo) const
    {
        for (size_t k = 0; k < upTo; ++k) {
            bool fwd = closed.contains(coPairs[k].first,
                                       coPairs[k].second);
            bool bwd = closed.contains(coPairs[k].second,
                                       coPairs[k].first);
            if (fwd && bwd)
                return false; // cyclic: invalid
            if (coChoice[k] == 0 && (fwd || bwd))
                return false; // duplicate of an ordered choice
        }
        return true;
    }

    /** PTX: decide same-location write pairs one at a time. */
    Walk explorePartialCo(size_t pairIdx)
    {
        if (deadlineExpired())
            return Walk::Abort;
        if (pairIdx == coPairs.size())
            return evaluateLeaf(
                coFromChoices(pairIdx).transitiveClosure());

        // Ordered-by-id first so the po-like coherence comes up first.
        for (int c : {1, 2, 0}) {
            coChoice[pairIdx] = c;
            PairSet closed =
                coFromChoices(pairIdx + 1).transitiveClosure();
            if (!prefixCanonical(closed, pairIdx + 1))
                continue;
            Walk walk = Walk::Continue;
            if (partialViolated(coStageAxioms, *coStage, "co", closed)) {
                result.prunedCoBranches++;
            } else {
                walk = explorePartialCo(pairIdx + 1);
            }
            if (walk != Walk::Continue)
                return walk;
        }
        return Walk::Continue;
    }

    Walk exploreCo()
    {
        // Axioms that ignore co entirely (or are monotone in it) are
        // decided at the subtree root: a violation with co still empty
        // rules out every coherence completion under this (rf, sf).
        if (partialViolated(coRootAxioms, *coStage, "co", initCo)) {
            result.prunedSubtrees++;
            return Walk::Continue;
        }
        if (program.arch == prog::Arch::Ptx) {
            coChoice.assign(coPairs.size(), 0);
            return explorePartialCo(0);
        }
        for (std::vector<int> &order : orders)
            order.clear();
        return exploreTotalCo(0, 0);
    }

    // ---- sync-fence exploration -----------------------------------------

    Walk exploreSf()
    {
        std::vector<int> fences;
        for (int e = 0; e < up.numEvents(); ++e) {
            const Event &ev = up.events[e];
            if (ev.kind == EventKind::Fence && ev.tags.count("SC"))
                fences.push_back(e);
        }
        if (fences.empty() || program.arch != prog::Arch::Ptx) {
            coStage->set("sync_fence", PairSet());
            return exploreCo();
        }
        const PairSet &ub = ra.baseBounds("sync_fence").ub;
        std::sort(fences.begin(), fences.end());
        std::set<std::vector<uint64_t>> seen;
        do {
            if (deadlineExpired())
                return Walk::Abort;
            PairSet sf;
            for (size_t i = 0; i < fences.size(); ++i) {
                for (size_t j = i + 1; j < fences.size(); ++j) {
                    if (ub.contains(fences[i], fences[j]))
                        sf.add(fences[i], fences[j]);
                }
            }
            std::vector<uint64_t> key;
            key.reserve(sf.size());
            for (auto [a, b] : sf.pairs())
                key.push_back(PairSet::key(a, b));
            std::sort(key.begin(), key.end());
            if (!seen.insert(std::move(key)).second) {
                result.sfDeduped++;
                continue;
            }
            coStage->set("sync_fence", std::move(sf));
            Walk walk = exploreCo();
            if (walk != Walk::Continue)
                return walk;
        } while (std::next_permutation(fences.begin(), fences.end()));
        return Walk::Continue;
    }

    // ---- rf exploration -------------------------------------------------

    Walk exploreRfComplete()
    {
        if (!sim.simulate(reads, rfChoice))
            return Walk::Continue; // value-inconsistent rf choice
        coStage->set("rf", rfPrefix(reads.size()));
        for (auto &[name, rel] :
             analysis::concreteBarrierRels(ra, events, sim.barrierIds())) {
            coStage->set(name, std::move(rel));
        }

        // A register-only filter is decided by rf alone: failing it
        // kills every behaviour of this subtree.
        if (condRfDetermined && program.filter) {
            auto valuation = [&](const prog::CondTerm &term) {
                return sim.evalTerm(term, initCo);
            };
            if (!prog::evalCond(*program.filter, valuation)) {
                result.prunedByFilter++;
                return Walk::Continue;
            }
        }

        Walk walk = exploreSf();
        if (walk == Walk::CutSubtree)
            return Walk::Continue; // subtree settled, next rf choice
        return walk;
    }

    Walk exploreRf(size_t readIndex)
    {
        if (deadlineExpired())
            return Walk::Abort;
        if (readIndex == reads.size())
            return exploreRfComplete();
        for (int w : candidates[readIndex]) {
            rfChoice[readIndex] = w;
            result.rfBranches++;
            if (partialViolated(rfStageAxioms, *rfStage, "rf",
                                rfPrefix(readIndex + 1))) {
                result.prunedRfPrefixes++;
                continue;
            }
            Walk walk = exploreRf(readIndex + 1);
            if (walk != Walk::Continue)
                return walk; // only Abort propagates this high
        }
        return Walk::Continue;
    }

    // ---- setup & entry point --------------------------------------------

    void classifyAxioms()
    {
        // During rf branching every relation an execution chooses is
        // still undecided; during coherence insertion only co is (sf is
        // fixed before co, values after rf).
        const std::vector<std::string> undecidedAtCo = {"co"};
        const std::vector<std::string> coAndSf = {"co", "sync_fence"};

        flagsCoConstant = true;
        for (const cat::Axiom &ax : model.axioms()) {
            AxiomPolarity polarity(model, ax);
            if (ax.kind == cat::AxiomKind::FlagNonEmpty) {
                flagsCoConstant =
                    flagsCoConstant && polarity.constantIn(coAndSf);
                continue;
            }
            if (polarity.prunableWithPartial(analysis::kChosenRels) &&
                polarity.of("rf") == cat::Polarity::Pos) {
                rfStageAxioms.push_back(&ax);
            }
            if (polarity.prunableWithPartial(undecidedAtCo)) {
                coRootAxioms.push_back(&ax);
                if (polarity.of("co") == cat::Polarity::Pos)
                    coStageAxioms.push_back(&ax);
            }
        }
    }

    void publishCounters() const
    {
        auto add = [](const char *name, uint64_t v) {
            trace::counterAdd(name, static_cast<int64_t>(v));
        };
        add("dpor.runs", 1);
        add("dpor.candidates", result.candidatesExplored);
        add("dpor.consistent", result.consistentBehaviours);
        add("dpor.rfBranches", result.rfBranches);
        add("dpor.prunedRfPrefixes", result.prunedRfPrefixes);
        add("dpor.prunedCoBranches", result.prunedCoBranches);
        add("dpor.prunedSubtrees", result.prunedSubtrees);
        add("dpor.prunedByFilter", result.prunedByFilter);
        add("dpor.sfDeduped", result.sfDeduped);
        add("dpor.earlyStops", result.earlyStops);
        add("dpor.consistencyChecks", result.consistencyChecks);
        if (result.timedOut)
            add("dpor.timeouts", 1);
    }

    DporResult run()
    {
        result.unsupportedReason =
            analysis::enumerationUnsupportedReason(program);
        if (!result.unsupportedReason.empty()) {
            result.supported = false;
            return result;
        }

        flagged = model.hasFlaggedAxioms();
        if (!opts.exhaustive) {
            condRfDetermined =
                (!program.assertion ||
                 !analysis::condUsesMemory(*program.assertion)) &&
                (!program.filter ||
                 !analysis::condUsesMemory(*program.filter));
            classifyAxioms();
        }

        for (int e = up.numInitEvents; e < up.numEvents(); ++e) {
            if (up.events[e].kind == EventKind::Read)
                reads.push_back(e);
        }
        const PairSet &rfUb = ra.baseBounds("rf").ub;
        candidates.resize(reads.size());
        for (size_t i = 0; i < reads.size(); ++i) {
            for (auto [w, r] : rfUb.pairs()) {
                if (r == reads[i])
                    candidates[i].push_back(w);
            }
        }
        rfChoice.assign(reads.size(), -1);

        std::map<int, std::vector<int>> perLoc =
            analysis::concreteWritesPerLoc(up);
        for (auto &[loc, writes] : perLoc) {
            (void)loc;
            std::sort(writes.begin(), writes.end());
            for (size_t i = 0; i < writes.size(); ++i) {
                for (size_t j = i + 1; j < writes.size(); ++j)
                    coPairs.push_back({writes[i], writes[j]});
            }
            locWrites.push_back(std::move(writes));
        }
        orders.resize(locWrites.size());
        initCo = analysis::concreteInitCoEdges(up);
        rfStage.emplace(up, events, model,
                        analysis::concreteStaticRels(ra, events));
        rfStage->set("co", initCo);
        coStage.emplace(up, events, model,
                        analysis::concreteStaticRels(ra, events));

        exploreRf(0);

        result.conditionHolds = analysis::quantifiedConditionHolds(
            program.assertKind, condTrueSomewhere, condFalseSomewhere);
        result.timeMs = watch.elapsedMs();
        if (!opts.exhaustive)
            publishCounters();
        return result;
    }
};

AxiomPolarity::AxiomPolarity(const cat::CatModel &model,
                             const cat::Axiom &axiom)
    : axiom_(&axiom), walk_(model)
{
    walk_.walk(*axiom.expr, cat::Polarity::Pos);
}

bool
AxiomPolarity::occursAtMost(const std::vector<std::string> &rels,
                            cat::Polarity at) const
{
    return std::all_of(rels.begin(), rels.end(), [&](const std::string &r) {
        return cat::joinPolarity(of(r), at) == at;
    });
}

DporChecker::DporChecker(const prog::Program &program,
                         const cat::CatModel &model, DporOptions options)
    : impl_(new Impl(program, model, options))
{
}

DporChecker::~DporChecker()
{
    delete impl_;
}

DporResult
DporChecker::run()
{
    return impl_->run();
}

} // namespace gpumc::dpor
