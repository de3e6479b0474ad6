/**
 * @file
 * The reuse contract of cat::RelationEvaluator and
 * analysis::ConcreteContext: one long-lived evaluator, told which base
 * relation changed, judges every candidate graph exactly as a fresh
 * evaluator does. Also pins the exploration counters of a few fixed
 * programs, and checks that every engine reads a condition's `P<k>` as
 * the thread at index k.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/concrete_execution.hpp"
#include "analysis/exec_analysis.hpp"
#include "analysis/relation_analysis.hpp"
#include "dpor/dpor_checker.hpp"
#include "explicit/explicit_checker.hpp"
#include "litmus/generator.hpp"
#include "program/event.hpp"
#include "program/unroller.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using cat::PairSet;

// ---------------------------------------------------------------------
// invalidate() drops exactly the lets that read a base relation.
// ---------------------------------------------------------------------

/** Three events whose base relations the test edits in place. */
class EditableExec : public cat::ExecutionView {
  public:
    int numEvents() const override { return 3; }

    bool inSet(int, const std::string &tag) const override
    {
        return tag == "_";
    }

    const PairSet &baseRel(const std::string &name) const override
    {
        return rels.at(name);
    }

    std::map<std::string, PairSet> rels = {
        {"po", PairSet()}, {"rf", PairSet()}, {"co", PairSet()}};
};

TEST(EvaluatorReuse, InvalidateRefreshesExactlyTheReaders)
{
    cat::CatModel model = cat::CatModel::fromSource(
        "let co = co+\n"       // reads base co; later `co` is this let
        "let fr = rf^-1; co\n" // reads rf, and co through the let
        "let hb = po+\n"
        "acyclic (hb | fr) as order");
    EditableExec exec;
    exec.rels["po"].add(0, 1);
    exec.rels["rf"].add(1, 0);
    exec.rels["co"].add(1, 2);
    cat::RelationEvaluator ev(model, exec);
    ASSERT_TRUE(ev.letValue(1).contains(0, 2));
    const PairSet *hb = &ev.letValue(2);
    EXPECT_TRUE(ev.consistent());

    // Until invalidated, the memoized lets keep the old relation.
    exec.rels["co"] = PairSet();
    EXPECT_TRUE(ev.letValue(1).contains(0, 2));
    ev.invalidate("co");
    EXPECT_TRUE(ev.letValue(0).empty());
    EXPECT_TRUE(ev.letValue(1).empty());
    EXPECT_EQ(&ev.letValue(2), hb) << "po-only let re-evaluated";

    exec.rels["co"].add(1, 0);
    exec.rels["po"].add(1, 0);
    ev.invalidate("co");
    ev.invalidate("po");
    EXPECT_TRUE(ev.letValue(1).contains(0, 0));
    EXPECT_TRUE(ev.letValue(2).contains(0, 0));
    EXPECT_FALSE(ev.consistent());

    // A name no let reads invalidates nothing.
    hb = &ev.letValue(2);
    ev.invalidate("sync_fence");
    EXPECT_EQ(&ev.letValue(2), hb);
}

// ---------------------------------------------------------------------
// A long-lived context against fresh evaluators, over the candidate
// graphs of straight-line corpus programs.
// ---------------------------------------------------------------------

/** Upper limits that keep each walk short. */
constexpr int kMaxCandidates = 300;
constexpr size_t kCoChoicesPerRf = 4;
constexpr size_t kMaxCoChoices = 64;

/** A ConcreteContext plus a copy of its relations for fresh checks. */
struct MirroredContext {
    std::map<std::string, PairSet> rels;
    analysis::ConcreteContext context;

    MirroredContext(const prog::UnrolledProgram &up,
                    const cat::CatModel &model,
                    std::map<std::string, PairSet> statics)
        : rels(statics),
          context(up, analysis::everyEvent(up), model, std::move(statics))
    {
    }

    void set(const std::string &name, const PairSet &value)
    {
        rels[name] = value;
        context.set(name, value);
    }
};

::testing::AssertionResult
matchesFresh(MirroredContext &graph, const prog::UnrolledProgram &up,
             const cat::CatModel &model)
{
    analysis::ConcreteView view(up, analysis::everyEvent(up), graph.rels);
    cat::RelationEvaluator fresh(model, view);
    cat::RelationEvaluator &reused = graph.context.evaluator();
    if (reused.consistent() != fresh.consistent())
        return ::testing::AssertionFailure() << "consistent() differs";
    std::vector<cat::AxiomCheck> a = reused.evalFlags();
    std::vector<cat::AxiomCheck> b = fresh.evalFlags();
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].holds != b[i].holds || !(a[i].flagged == b[i].flagged)) {
            return ::testing::AssertionFailure()
                   << "flag " << a[i].axiom->name << " differs";
        }
    }
    for (size_t i = 0; i < model.lets().size(); ++i) {
        const cat::LetBinding &let = model.lets()[i];
        if (let.expr->type == cat::ExprType::Rel &&
            !(reused.letValue(static_cast<int>(i)) ==
              fresh.letValue(static_cast<int>(i)))) {
            return ::testing::AssertionFailure()
                   << "let " << let.name << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Coherence orders over the init edges: the per-location total orders
 *  under Vulkan, the canonical transitive partial orders under PTX. */
std::vector<PairSet>
coherenceChoices(const prog::Program &program,
                 const prog::UnrolledProgram &up)
{
    std::vector<std::pair<int, int>> pairs;
    for (const auto &[loc, writes] : analysis::concreteWritesPerLoc(up)) {
        (void)loc;
        for (size_t i = 0; i < writes.size(); ++i) {
            for (size_t j = i + 1; j < writes.size(); ++j)
                pairs.push_back({writes[i], writes[j]});
        }
    }
    const PairSet initCo = analysis::concreteInitCoEdges(up);
    std::vector<PairSet> out;
    std::vector<int> choice(pairs.size(), 0); // 0 unordered, 1 <, 2 >
    while (out.size() < kMaxCoChoices) {
        PairSet co = initCo;
        for (size_t k = 0; k < pairs.size(); ++k) {
            if (choice[k] == 1)
                co.add(pairs[k].first, pairs[k].second);
            else if (choice[k] == 2)
                co.add(pairs[k].second, pairs[k].first);
        }
        PairSet closed = co.transitiveClosure();
        bool keep = true;
        for (size_t k = 0; k < pairs.size(); ++k) {
            bool fwd = closed.contains(pairs[k].first, pairs[k].second);
            bool bwd = closed.contains(pairs[k].second, pairs[k].first);
            if ((fwd && bwd) || (choice[k] == 0 && (fwd || bwd)) ||
                (choice[k] == 0 && program.arch == prog::Arch::Vulkan))
                keep = false;
        }
        if (keep)
            out.push_back(std::move(closed));
        size_t k = 0;
        while (k < choice.size() && ++choice[k] == 3)
            choice[k++] = 0;
        if (k == choice.size())
            break;
    }
    return out;
}

/** sync_fence choices: one per PTX SC-fence permutation. */
std::vector<PairSet>
syncFenceChoices(const prog::Program &program,
                 const prog::UnrolledProgram &up,
                 analysis::RelationAnalysis &ra)
{
    std::vector<int> fences;
    for (int e = 0; e < up.numEvents(); ++e) {
        const prog::Event &ev = up.events[e];
        if (ev.kind == prog::EventKind::Fence && ev.tags.count("SC"))
            fences.push_back(e);
    }
    if (fences.empty() || program.arch != prog::Arch::Ptx)
        return {PairSet()};
    const PairSet &ub = ra.baseBounds("sync_fence").ub;
    std::vector<PairSet> out;
    do {
        PairSet sf;
        for (size_t i = 0; i < fences.size(); ++i) {
            for (size_t j = i + 1; j < fences.size(); ++j) {
                if (ub.contains(fences[i], fences[j]))
                    sf.add(fences[i], fences[j]);
            }
        }
        out.push_back(std::move(sf));
    } while (std::next_permutation(fences.begin(), fences.end()));
    return out;
}

struct WalkStats {
    int candidates = 0;
    int rfAssignments = 0;
    /** Distinct sync_barrier/syncbar values the context was given. */
    std::vector<std::pair<std::string, PairSet>> barriers;
};

/**
 * Change the context as the explicit baseline does — rf and the
 * barrier relations per rf assignment, then co, then sync_fence — and
 * compare it with a fresh evaluator on every candidate.
 */
WalkStats
walkCandidates(const std::string &file, const cat::CatModel &model)
{
    prog::Program program = litmus::parseLitmusFile(file);
    WalkStats stats;
    EXPECT_EQ(analysis::enumerationUnsupportedReason(program), "")
        << file;
    prog::UnrolledProgram up = prog::unroll(program, 1);
    analysis::ExecAnalysis exec(up);
    analysis::RelationAnalysis ra(exec, model);
    analysis::ValueSimulation sim(program, up);
    const std::vector<int> events = analysis::everyEvent(up);
    MirroredContext graph(up, model,
                          analysis::concreteStaticRels(ra, events));

    std::vector<int> reads;
    for (int e = up.numInitEvents; e < up.numEvents(); ++e) {
        if (up.events[e].kind == prog::EventKind::Read)
            reads.push_back(e);
    }
    std::vector<std::vector<int>> sources(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        for (auto [w, r] : ra.baseBounds("rf").ub.pairs()) {
            if (r == reads[i])
                sources[i].push_back(w);
        }
        if (sources[i].empty())
            return stats;
    }
    const std::vector<PairSet> coChoices = coherenceChoices(program, up);
    const std::vector<PairSet> sfChoices =
        syncFenceChoices(program, up, ra);

    std::vector<size_t> digit(reads.size(), 0);
    std::vector<int> rfChoice(reads.size());
    while (stats.candidates < kMaxCandidates) {
        for (size_t i = 0; i < reads.size(); ++i)
            rfChoice[i] = sources[i][digit[i]];
        if (sim.simulate(reads, rfChoice)) {
            PairSet rf;
            for (size_t i = 0; i < reads.size(); ++i)
                rf.add(rfChoice[i], reads[i]);
            graph.set("rf", rf);
            for (const auto &[name, rel] :
                 analysis::concreteBarrierRels(ra, events,
                                               sim.barrierIds())) {
                graph.set(name, rel);
                std::pair<std::string, PairSet> seen(name, rel);
                if (std::find(stats.barriers.begin(), stats.barriers.end(),
                              seen) == stats.barriers.end())
                    stats.barriers.push_back(std::move(seen));
            }
            // A few coherence choices per rf assignment, rotating, so
            // rf and the barrier relations change often too.
            size_t first = stats.rfAssignments * kCoChoicesPerRf;
            stats.rfAssignments++;
            for (size_t c = 0;
                 c < std::min(kCoChoicesPerRf, coChoices.size()); ++c) {
                graph.set("co", coChoices[(first + c) % coChoices.size()]);
                for (const PairSet &sf : sfChoices) {
                    graph.set("sync_fence", sf);
                    stats.candidates++;
                    ::testing::AssertionResult same =
                        matchesFresh(graph, up, model);
                    if (!same) {
                        ADD_FAILURE() << file << " [" << model.name()
                                      << "] candidate " << stats.candidates
                                      << ": " << same.message();
                        return stats;
                    }
                }
            }
        }
        size_t k = 0;
        while (k < digit.size() && ++digit[k] == sources[k].size())
            digit[k++] = 0;
        if (k == digit.size())
            break;
    }
    return stats;
}

const std::vector<std::string> kPtxPrograms = {
    "ptx/paper/fig7-sb-dynbar.litmus", "ptx/paper/fig7-sb-statbar.litmus",
    "ptx/paper/fig5-mp-proxy.litmus",  "ptx/paper/fig6-co-partial.litmus",
    "ptx/basic/iriw-fence-sc.litmus",  "ptx/basic/mp-rel-acq.litmus",
    "ptx/basic/rmw-add-atomicity.litmus", "ptx/basic/lb-data-both.litmus",
};

const std::vector<std::string> kVulkanPrograms = {
    "vulkan/basic/cbar-mp.litmus",
    "vulkan/basic/mp-nonatomic-flag-race.litmus",
    "vulkan/basic/corr-atomic.litmus",
    "vulkan/basic/coherence-rmw-chain.litmus",
    "vulkan/basic/rmw-atomicity.litmus",
    "vulkan/paper/fig9-hb-chain-semav.litmus",
};

void
walkAll(const std::vector<std::string> &files, const cat::CatModel &model)
{
    for (const std::string &file : files) {
        WalkStats stats = walkCandidates(litmusPath(file), model);
        EXPECT_GT(stats.candidates, 0) << file;
        EXPECT_GT(stats.rfAssignments, 1) << file;
    }
}

TEST(EvaluatorReuse, PtxV60MatchesFreshEvaluators)
{
    walkAll(kPtxPrograms, ptx60Model());
}

TEST(EvaluatorReuse, PtxV75MatchesFreshEvaluators)
{
    walkAll(kPtxPrograms, ptx75Model());
}

TEST(EvaluatorReuse, VulkanMatchesFreshEvaluators)
{
    walkAll(kVulkanPrograms, vulkanModel());
}

TEST(EvaluatorReuse, DynamicBarrierIdsChangeTheBarrierRelations)
{
    // fig7-sb-dynbar reads its barrier id from memory, so the rf choice
    // decides whether the two barriers synchronize.
    WalkStats stats = walkCandidates(
        litmusPath("ptx/paper/fig7-sb-dynbar.litmus"), ptx75Model());
    int syncBarrierValues = 0;
    for (const auto &[name, rel] : stats.barriers)
        syncBarrierValues += name == "sync_barrier";
    EXPECT_GE(syncBarrierValues, 2);
}

// ---------------------------------------------------------------------
// The search itself: exploration counters of fixed programs.
// ---------------------------------------------------------------------

TEST(ExplorationCounters, FixedProgramsKeepTheirSearch)
{
    struct Case {
        const char *name;
        litmus::ScaledPattern pattern;
        prog::Arch arch;
        const cat::CatModel &model;
        uint64_t dporCandidates;
        uint64_t dporChecks;
        uint64_t explicitCandidates;
    };
    const Case cases[] = {
        {"MP-6", litmus::ScaledPattern::MP, prog::Arch::Ptx, ptx75Model(),
         63, 251, 64},
        {"LB-6", litmus::ScaledPattern::LB, prog::Arch::Vulkan,
         vulkanModel(), 64, 638, 64},
        {"IRIW-6", litmus::ScaledPattern::IRIW, prog::Arch::Vulkan,
         vulkanModel(), 43, 302, 64},
    };
    for (const Case &c : cases) {
        prog::Program program =
            litmus::generateScaled(c.pattern, c.arch, 6);
        dpor::DporResult d = dpor::DporChecker(program, c.model).run();
        expl::ExplicitResult e =
            expl::ExplicitChecker(program, c.model).run();
        EXPECT_EQ(d.candidatesExplored, c.dporCandidates) << c.name;
        EXPECT_EQ(d.consistencyChecks, c.dporChecks) << c.name;
        EXPECT_EQ(e.candidatesExplored, c.explicitCandidates) << c.name;
    }

    // The explicit baseline's complete search on corpus files: SC-fence
    // orders (sb/iriw-fence-sc), partial coherence with inconsistent
    // candidates (corw-cycle), total coherence over an RMW chain, and a
    // release/acquire pair.
    struct FileCase {
        const char *file;
        const cat::CatModel &model;
        uint64_t candidates;
        uint64_t consistent;
    };
    const FileCase files[] = {
        {"ptx/basic/sb-fence-sc.litmus", ptx75Model(), 8, 4},
        {"ptx/basic/iriw-fence-sc.litmus", ptx75Model(), 32, 24},
        {"ptx/basic/corw-cycle.litmus", ptx75Model(), 27, 4},
        {"vulkan/basic/coherence-rmw-chain.litmus", vulkanModel(), 96, 6},
        {"vulkan/basic/mp-rel-acq.litmus", vulkanModel(), 4, 3},
    };
    for (const FileCase &c : files) {
        prog::Program program = litmus::parseLitmusFile(litmusPath(c.file));
        expl::ExplicitResult e =
            expl::ExplicitChecker(program, c.model).run();
        ASSERT_TRUE(e.supported && !e.timedOut) << c.file;
        EXPECT_EQ(e.candidatesExplored, c.candidates) << c.file;
        EXPECT_EQ(e.consistentBehaviours, c.consistent) << c.file;
    }
}

// ---------------------------------------------------------------------
// Conditions name threads by index, whatever a program calls them.
// ---------------------------------------------------------------------

TEST(ThreadNames, EnginesReadConditionRegistersByIndex)
{
    prog::Program program = litmus::parseLitmus(R"(
PTX "mp-weak-split"
P0@cta 1,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, y  ;
st.weak y, 1   | ld.weak r1, x  ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
)");
    // A program built in code may name its threads freely; the
    // condition's P1 is still the reader at index 1.
    program.threads[0].name = "P1";
    program.threads[1].name = "P0";

    core::Verifier verifier(program, ptx75Model());
    bool smtHolds = verifier.checkSafety().holds;
    EXPECT_TRUE(smtHolds) << "weak message passing is observable";
    EXPECT_EQ(dpor::DporChecker(program, ptx75Model()).run().conditionHolds,
              smtHolds);
    EXPECT_EQ(
        expl::ExplicitChecker(program, ptx75Model()).run().conditionHolds,
        smtHolds);
}

} // namespace
} // namespace gpumc::test
