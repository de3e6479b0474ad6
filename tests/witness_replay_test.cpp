/**
 * @file
 * Replay of SAT witnesses through the concrete evaluator
 * (core::witnessConsistent): the static and barrier relations come from
 * the same builders the enumerative engines use, over the witness's
 * executed events, and rf, co, sync_fence and the barrier ids from the
 * witness. A witness replays as consistent under the model that found
 * it, and replay rejects an execution the model forbids. Every Sat
 * witness of the corpus's `@expect` queries on the builtin backend
 * replays too, so an `acyclic` axiom its solver fails to enforce shows
 * up as a witness the `.cat` evaluator rejects.
 */

#include <gtest/gtest.h>

#include "analysis/exec_analysis.hpp"
#include "analysis/relation_analysis.hpp"
#include "core/witness.hpp"
#include "program/unroller.hpp"
#include "support/string_utils.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

/** A program, its witness for @p property, and the analysis the
 *  verifier built it over. */
struct Replay {
    prog::Program program;
    core::ExecutionWitness witness;
    prog::UnrolledProgram up;
    analysis::ExecAnalysis exec;
    analysis::RelationAnalysis ra;

    Replay(const std::string &file, const cat::CatModel &model,
           core::Property property)
        : program(litmus::parseLitmusFile(litmusPath(file))),
          witness(witnessOf(program, model, property)),
          up(prog::unroll(program, core::VerifierOptions().bound)),
          exec(up), ra(exec, model)
    {
    }

    static core::ExecutionWitness
    witnessOf(const prog::Program &program, const cat::CatModel &model,
              core::Property property)
    {
        core::VerifierOptions options;
        options.validateWitness = true;
        core::Verifier verifier(program, model, options);
        core::VerificationResult r = verifier.check(property);
        EXPECT_TRUE(r.witness.has_value()) << program.name;
        return r.witness.value_or(core::ExecutionWitness{});
    }

    /** The executed barriers' witness indices. */
    std::vector<size_t> barriers() const
    {
        std::vector<size_t> out;
        for (size_t i = 0; i < witness.events.size(); ++i) {
            if (witness.events[i].barrierId)
                out.push_back(i);
        }
        return out;
    }
};

const char *kScModel = R"("SC"
let fr = rf^-1 ; co
acyclic po | rf | co | fr as sc
)";

TEST(WitnessReplay, ConsistentUnderTheModelThatFoundIt)
{
    Replay r("ptx/basic/sb-weak.litmus", ptx60Model(),
             core::Property::Safety);
    ASSERT_EQ(r.witness.finalRegisters.at("P0:r0"), 0);
    ASSERT_EQ(r.witness.finalRegisters.at("P1:r1"), 0);
    EXPECT_TRUE(core::witnessConsistent(r.witness, r.ra, ptx60Model()));
}

TEST(WitnessReplay, StoreBufferingIsInconsistentUnderSc)
{
    // Both loads read the initial values: po and fr close a cycle.
    Replay r("ptx/basic/sb-weak.litmus", ptx60Model(),
             core::Property::Safety);
    cat::CatModel sc = cat::CatModel::fromSource(kScModel);
    EXPECT_FALSE(core::witnessConsistent(r.witness, r.ra, sc));
}

TEST(WitnessReplay, VulkanControlBarrierWitnessIsConsistent)
{
    // Barriers 7 and 8 do not synchronize, so the load may miss the
    // store.
    Replay r("vulkan/basic/cbar-diff-ids.litmus", vulkanModel(),
             core::Property::Safety);
    std::vector<size_t> barriers = r.barriers();
    ASSERT_EQ(barriers.size(), 2u);
    EXPECT_NE(*r.witness.events[barriers[0]].barrierId,
              *r.witness.events[barriers[1]].barrierId);
    EXPECT_TRUE(core::witnessConsistent(r.witness, r.ra, vulkanModel()));
}

TEST(WitnessReplay, DynamicBarrierIdsComeFromTheModel)
{
    // P0's barrier id is a register read from memory; the violating
    // witness reads 0, so its barrier misses P1's barrier 1. Replayed
    // with equal ids the barriers synchronize, and one load must see
    // the other thread's store.
    Replay r("ptx/paper/fig7-sb-dynbar.litmus", ptx60Model(),
             core::Property::Safety);
    std::vector<size_t> barriers = r.barriers();
    ASSERT_EQ(barriers.size(), 2u);
    EXPECT_EQ(*r.witness.events[barriers[0]].barrierId, 0);
    EXPECT_EQ(*r.witness.events[barriers[1]].barrierId, 1);
    EXPECT_TRUE(core::witnessConsistent(r.witness, r.ra, ptx60Model()));

    core::ExecutionWitness same = r.witness;
    same.events[barriers[0]].barrierId = same.events[barriers[1]].barrierId;
    EXPECT_FALSE(core::witnessConsistent(same, r.ra, ptx60Model()));
}

/** The properties a corpus file expects a verdict for under @p model,
 *  as the corpus runner reads its `@expect` directives. */
std::vector<core::Property>
expectedProperties(const prog::Program &program, const cat::CatModel &model,
                   const std::string &safetyKey)
{
    std::vector<core::Property> out;
    if (program.meta.count(safetyKey) || program.meta.count("safety"))
        out.push_back(core::Property::Safety);
    if (program.meta.count("liveness"))
        out.push_back(core::Property::Liveness);
    if (program.meta.count("drf") && model.hasFlaggedAxioms())
        out.push_back(core::Property::CatSpec);
    return out;
}

TEST(WitnessReplay, EveryCorpusSatWitnessIsConsistent)
{
    int replayed = 0;
    for (const std::string &file : corpusFiles()) {
        prog::Program program = litmus::parseLitmusFile(file);
        std::vector<std::pair<const cat::CatModel *, std::string>> models;
        if (program.arch == prog::Arch::Ptx)
            models = {{&ptx60Model(), "safety-v60"},
                      {&ptx75Model(), "safety-v75"}};
        else
            models = {{&vulkanModel(), "safety"}};
        core::VerifierOptions options;
        options.backend = smt::BackendKind::Builtin;
        if (auto it = program.meta.find("bound"); it != program.meta.end())
            options.bound = static_cast<int>(parseInt(it->second).value());
        prog::UnrolledProgram up = prog::unroll(program, options.bound);
        analysis::ExecAnalysis exec(up);
        for (const auto &[model, safetyKey] : models) {
            analysis::RelationAnalysis ra(exec, *model);
            core::Verifier verifier(program, *model, options);
            for (core::Property property :
                 expectedProperties(program, *model, safetyKey)) {
                core::VerificationResult result = verifier.check(property);
                ASSERT_FALSE(result.unknown) << file;
                if (!result.witness)
                    continue;
                EXPECT_TRUE(
                    core::witnessConsistent(*result.witness, ra, *model))
                    << file << " [" << model->name() << "] "
                    << result.detail;
                replayed++;
            }
        }
    }
    EXPECT_GT(replayed, 50);
}

} // namespace
} // namespace gpumc::test
