#include "explicit/explicit_checker.hpp"

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

namespace gpumc::expl {

using cat::PairSet;
using prog::Event;
using prog::EventKind;

struct ExplicitChecker::Impl {
    const prog::Program &program;
    const cat::CatModel &model;
    ExplicitOptions opts;

    prog::UnrolledProgram up;
    analysis::ExecAnalysis exec;
    analysis::RelationAnalysis ra;
    analysis::ValueSimulation sim;

    std::vector<int> reads;                    // read event ids
    std::vector<std::vector<int>> candidates;  // rf candidates per read
    std::vector<int> rfChoice;                 // current assignment
    /** The current candidate's graph, kept for the whole run. */
    std::optional<analysis::ConcreteContext> graph;

    Stopwatch watch;
    ExplicitResult result;
    bool condTrueSomewhere = false;
    bool condFalseSomewhere = false;

    Impl(const prog::Program &p, const cat::CatModel &m,
         ExplicitOptions o)
        : program(p), model(m), opts(o), up(prog::unroll(p, 1)),
          exec(up), ra(exec, m), sim(p, up)
    {
    }

    bool overBudget()
    {
        if (opts.maxCandidates &&
            result.candidatesExplored >= opts.maxCandidates) {
            result.timedOut = true;
            return true;
        }
        if (opts.timeoutMs > 0 && watch.elapsedMs() > opts.timeoutMs) {
            result.timedOut = true;
            return true;
        }
        return false;
    }

    // ---- coherence enumeration -------------------------------------------

    /**
     * Enumerate total co (Vulkan), invoking fn for each. Permutations
     * are generated lazily — each location holds one current order
     * advanced in place by next_permutation under a mixed-radix carry —
     * so memory stays O(#writes) and the wall-clock budget is
     * re-checked between candidates instead of after materializing the
     * whole factorial product.
     */
    template <typename Fn>
    bool enumerateTotalCo(Fn &&fn)
    {
        std::map<int, std::vector<int>> perLocMap =
            analysis::concreteWritesPerLoc(up);
        std::vector<std::vector<int>> perLoc;
        for (auto &[loc, writes] : perLocMap) {
            (void)loc;
            std::sort(writes.begin(), writes.end());
            perLoc.push_back(std::move(writes));
        }
        PairSet initCo = analysis::concreteInitCoEdges(up);
        while (true) {
            if (overBudget())
                return false;
            PairSet co = initCo;
            for (const std::vector<int> &order : perLoc) {
                for (size_t i = 0; i < order.size(); ++i) {
                    for (size_t j = i + 1; j < order.size(); ++j)
                        co.add(order[i], order[j]);
                }
            }
            if (!fn(co))
                return false;
            // Advance: next_permutation wraps a digit back to sorted
            // order and carries into the next location.
            size_t k = 0;
            while (k < perLoc.size() &&
                   !std::next_permutation(perLoc[k].begin(),
                                          perLoc[k].end())) {
                k++;
            }
            if (k == perLoc.size())
                return true;
        }
    }

    /** Enumerate partial transitive co (PTX), invoking fn for each. */
    template <typename Fn>
    bool enumeratePartialCo(Fn &&fn)
    {
        std::map<int, std::vector<int>> perLoc =
            analysis::concreteWritesPerLoc(up);
        std::vector<std::pair<int, int>> pairs; // unordered write pairs
        for (auto &[loc, writes] : perLoc) {
            (void)loc;
            for (size_t i = 0; i < writes.size(); ++i) {
                for (size_t j = i + 1; j < writes.size(); ++j)
                    pairs.push_back({writes[i], writes[j]});
            }
        }
        PairSet initCo = analysis::concreteInitCoEdges(up);
        std::vector<int> choice(pairs.size(), 0); // 0 unordered, 1 <, 2 >
        while (true) {
            if (overBudget())
                return false;
            PairSet co = initCo;
            for (size_t k = 0; k < pairs.size(); ++k) {
                if (choice[k] == 1)
                    co.add(pairs[k].first, pairs[k].second);
                else if (choice[k] == 2)
                    co.add(pairs[k].second, pairs[k].first);
            }
            PairSet closed = co.transitiveClosure();
            // Skip assignments whose closure contradicts or duplicates
            // another assignment (antisymmetry / unordered violated).
            bool canonical = true;
            for (size_t k = 0; k < pairs.size() && canonical; ++k) {
                bool fwd = closed.contains(pairs[k].first,
                                           pairs[k].second);
                bool bwd = closed.contains(pairs[k].second,
                                           pairs[k].first);
                if (fwd && bwd)
                    canonical = false; // cyclic: invalid
                if (choice[k] == 0 && (fwd || bwd))
                    canonical = false; // duplicate of an ordered choice
            }
            if (canonical && !fn(closed))
                return false;
            size_t k = 0;
            while (k < choice.size() && ++choice[k] == 3) {
                choice[k] = 0;
                k++;
            }
            if (k == choice.size())
                return true;
        }
    }

    /**
     * Enumerate sync_fence total orders (PTX SC fences). Distinct
     * fence permutations collapse to identical sf sets whenever the
     * static upper bound prunes pairs; each distinct set is evaluated
     * exactly once.
     */
    template <typename Fn>
    bool enumerateSyncFence(Fn &&fn)
    {
        std::vector<int> fences;
        for (int e = 0; e < up.numEvents(); ++e) {
            const Event &ev = up.events[e];
            if (ev.kind == EventKind::Fence && ev.tags.count("SC"))
                fences.push_back(e);
        }
        if (fences.empty() || program.arch != prog::Arch::Ptx) {
            PairSet empty;
            return fn(empty);
        }
        const PairSet &ub = ra.baseBounds("sync_fence").ub;
        std::sort(fences.begin(), fences.end());
        std::set<std::vector<uint64_t>> seen;
        do {
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
            if (!seen.insert(std::move(key)).second)
                continue;
            if (!fn(sf))
                return false;
        } while (std::next_permutation(fences.begin(), fences.end()));
        return true;
    }

    // ---- behaviour evaluation --------------------------------------------

    /** Evaluate one complete behaviour candidate. */
    bool evaluateBehaviour(const PairSet &co, const PairSet &sf)
    {
        result.candidatesExplored++;
        if (overBudget())
            return false;

        graph->set("co", co);
        graph->set("sync_fence", sf);
        cat::RelationEvaluator &evaluator = graph->evaluator();
        if (!evaluator.consistent())
            return true;

        auto valuation = [&](const prog::CondTerm &term) {
            return sim.evalTerm(term, co);
        };
        if (program.filter &&
            !prog::evalCond(*program.filter, valuation)) {
            return true;
        }
        result.consistentBehaviours++;

        bool cond = !program.assertion ||
                    prog::evalCond(*program.assertion, valuation);
        (cond ? condTrueSomewhere : condFalseSomewhere) = true;

        if (!result.raceFound) {
            for (const cat::AxiomCheck &check : evaluator.evalFlags()) {
                if (!check.holds)
                    result.raceFound = true;
            }
        }
        return true;
    }

    // ---- top-level enumeration --------------------------------------------

    bool enumerateRf(size_t readIndex)
    {
        if (readIndex == reads.size()) {
            if (!sim.simulate(reads, rfChoice))
                return true; // value-inconsistent rf choice: skip
            PairSet rf;
            for (size_t i = 0; i < reads.size(); ++i)
                rf.add(rfChoice[i], reads[i]);
            graph->set("rf", std::move(rf));
            for (auto &[name, rel] :
                 analysis::concreteBarrierRels(ra, sim.barrierIds())) {
                graph->set(name, std::move(rel));
            }
            auto withCo = [&](const PairSet &co) {
                return enumerateSyncFence([&](const PairSet &sf) {
                    return evaluateBehaviour(co, sf);
                });
            };
            if (program.arch == prog::Arch::Ptx)
                return enumeratePartialCo(withCo);
            return enumerateTotalCo(withCo);
        }
        for (int w : candidates[readIndex]) {
            rfChoice[readIndex] = w;
            if (!enumerateRf(readIndex + 1))
                return false;
        }
        return true;
    }

    ExplicitResult run()
    {
        result.unsupportedReason =
            analysis::enumerationUnsupportedReason(program);
        if (!result.unsupportedReason.empty()) {
            result.supported = false;
            return result;
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
        graph.emplace(up, model, analysis::concreteStaticRels(ra));

        enumerateRf(0);

        result.conditionHolds = analysis::quantifiedConditionHolds(
            program.assertKind, condTrueSomewhere, condFalseSomewhere);
        result.timeMs = watch.elapsedMs();
        return result;
    }
};

ExplicitChecker::ExplicitChecker(const prog::Program &program,
                                 const cat::CatModel &model,
                                 ExplicitOptions options)
    : impl_(new Impl(program, model, options))
{
}

ExplicitChecker::~ExplicitChecker()
{
    delete impl_;
}

ExplicitResult
ExplicitChecker::run()
{
    return impl_->run();
}

} // namespace gpumc::expl
