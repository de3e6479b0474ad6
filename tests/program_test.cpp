/**
 * @file
 * Unit tests for the program IR: validation, tag computation, scope
 * predicates, the unroller (instances, kills, spinloops, events) and
 * the structural analyses (mutual exclusion, dependencies).
 */

#include <gtest/gtest.h>

#include "analysis/dependency_analysis.hpp"
#include "analysis/exec_analysis.hpp"
#include "litmus/litmus_parser.hpp"
#include "program/unroller.hpp"

namespace gpumc::test {
namespace {

using namespace prog;

Program
parse(const char *source)
{
    return litmus::parseLitmus(source);
}

TEST(ProgramValidate, RejectsUnknownJumpTarget)
{
    EXPECT_THROW(parse(R"(
PTX
P0@cta 0,gpu 0 ;
goto NOWHERE   ;
exists (true)
)"),
                 FatalError);
}

TEST(ProgramValidate, RejectsWrongArchScope)
{
    EXPECT_THROW(parse(R"(
VULKAN
P0@sg 0,wg 0,qf 0 ;
ld.atom.sys.sc0 r0, x ;
exists (true)
)"),
                 FatalError);
}

TEST(ProgramValidate, RejectsScInVulkan)
{
    EXPECT_THROW(parse(R"(
VULKAN
P0@sg 0,wg 0,qf 0 ;
membar.sc.dv.semsc0 ;
exists (true)
)"),
                 FatalError);
}

TEST(ProgramValidate, AliasChainsResolve)
{
    Program p = parse(R"(
PTX
{ x = 3; s -> x; t -> s; y = 1; }
P0@cta 0,gpu 0 ;
st.weak t, 1   ;
exists (true)
)");
    EXPECT_EQ(p.physLoc("t"), p.physLoc("x"));
    EXPECT_EQ(p.physLoc("s"), p.physLoc("x"));
    EXPECT_NE(p.physLoc("y"), p.physLoc("x"));
    EXPECT_NE(p.virtLoc("t"), p.virtLoc("x"));
}

TEST(ProgramValidate, RejectsCyclicAlias)
{
    EXPECT_THROW(parse(R"(
PTX
{ a -> b; b -> a; }
P0@cta 0,gpu 0 ;
st.weak a, 1   ;
exists (true)
)"),
                 FatalError);
}

TEST(EventTags, PtxTags)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1   ;
ld.acquire.sys r0, x ;
atom.rel.gpu.add r1, x, 1 ;
fence.sc.cta   ;
fence.proxy.alias ;
sust.weak s, 1 ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 1);
    // Events: init(x), init(s), then thread events in order.
    int base = up.numInitEvents;
    EXPECT_EQ(base, 2);
    const Event &weakStore = up.events[base + 0];
    EXPECT_TRUE(weakStore.tags.count("W"));
    EXPECT_TRUE(weakStore.tags.count("WEAK"));
    EXPECT_TRUE(weakStore.tags.count("GEN"));
    EXPECT_FALSE(weakStore.tags.count("A"));

    const Event &acqLoad = up.events[base + 1];
    EXPECT_TRUE(acqLoad.tags.count("R"));
    EXPECT_TRUE(acqLoad.tags.count("ACQ"));
    EXPECT_TRUE(acqLoad.tags.count("A"));
    EXPECT_TRUE(acqLoad.tags.count("SYS"));

    const Event &rmwRead = up.events[base + 2];
    const Event &rmwWrite = up.events[base + 3];
    EXPECT_TRUE(rmwRead.tags.count("RMW"));
    EXPECT_TRUE(rmwWrite.tags.count("RMW"));
    EXPECT_EQ(rmwRead.rmwPartner, rmwWrite.id);
    EXPECT_TRUE(rmwWrite.tags.count("REL"));

    const Event &scFence = up.events[base + 4];
    EXPECT_TRUE(scFence.tags.count("F"));
    EXPECT_TRUE(scFence.tags.count("SC"));
    EXPECT_TRUE(scFence.tags.count("CTA"));

    const Event &aliasFence = up.events[base + 5];
    EXPECT_TRUE(aliasFence.tags.count("ALIAS"));

    const Event &surfStore = up.events[base + 6];
    EXPECT_TRUE(surfStore.tags.count("SUR"));
    EXPECT_FALSE(surfStore.tags.count("GEN"));

    // Init writes are observable through every proxy.
    EXPECT_TRUE(up.events[0].tags.count("TEX"));
    EXPECT_TRUE(up.events[0].tags.count("IW"));
}

TEST(EventTags, VulkanAvVisAndSemantics)
{
    Program p = parse(R"(
VULKAN
P0@sg 0,wg 0,qf 0 ;
st.sc1 x, 1       ;
st.atom.rel.dv.sc0 f, 1 ;
membar.acq.dv.semsc0.semsc1 ;
ld.sc0.vis r0, y  ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 1);
    int base = up.numInitEvents;
    const Event &plainStore = up.events[base + 0];
    EXPECT_TRUE(plainStore.tags.count("SC1"));
    EXPECT_FALSE(plainStore.tags.count("AV"));
    EXPECT_TRUE(plainStore.tags.count("NONPRIV"));

    const Event &relAtomic = up.events[base + 1];
    EXPECT_TRUE(relAtomic.tags.count("AV"));
    EXPECT_TRUE(relAtomic.tags.count("SEMSC0"));
    EXPECT_TRUE(relAtomic.tags.count("SEMAV")) << "release implies av";

    const Event &fence = up.events[base + 2];
    EXPECT_TRUE(fence.tags.count("SEMSC0"));
    EXPECT_TRUE(fence.tags.count("SEMSC1"));
    EXPECT_TRUE(fence.tags.count("SEMVIS")) << "acquire implies vis";

    const Event &visLoad = up.events[base + 3];
    EXPECT_TRUE(visLoad.tags.count("VIS"));
}

TEST(ScopePredicates, Hierarchy)
{
    ThreadPlacement a, b;
    a.gpu = 0;
    a.cta = 0;
    b.gpu = 0;
    b.cta = 1;
    EXPECT_FALSE(sameCta(a, b));
    EXPECT_TRUE(scopeIncludes(a, Scope::Gpu, b));
    EXPECT_FALSE(scopeIncludes(a, Scope::Cta, b));
    EXPECT_TRUE(scopeIncludes(a, Scope::Sys, b));

    ThreadPlacement v1, v2;
    v1.wg = 1;
    v2.wg = 1;
    v1.sg = 0;
    v2.sg = 1;
    EXPECT_TRUE(sameWg(v1, v2));
    EXPECT_FALSE(sameSg(v1, v2));
    EXPECT_TRUE(scopeIncludes(v1, Scope::Wg, v2));
    EXPECT_FALSE(scopeIncludes(v1, Scope::Sg, v2));
}

TEST(Unroller, StraightLineHasNoKills)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1   ;
ld.weak r0, x  ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 2);
    EXPECT_TRUE(up.killNodes.empty());
    EXPECT_TRUE(up.spinloops.empty());
    EXPECT_EQ(up.numEvents(), 3); // init + store + load
}

TEST(Unroller, LoopCreatesInstancesAndSpinKill)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 ;
LC00:          ;
ld.weak r0, f  ;
beq r0, 0, LC00 ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 2);
    ASSERT_EQ(up.spinloops.size(), 1u);
    EXPECT_EQ(up.spinloops[0].thread, 0);
    ASSERT_EQ(up.killNodes.size(), 1u);
    EXPECT_TRUE(up.nodes[up.killNodes[0]].spinKill);
    // 3 read instances (budget 2,1,0) + init write.
    int reads = 0;
    for (const Event &e : up.events)
        reads += e.kind == EventKind::Read ? 1 : 0;
    EXPECT_EQ(reads, 3);
    ASSERT_EQ(up.spinKills.size(), 1u);
    EXPECT_EQ(up.spinKills[0].lastIterationReads.size(), 1u);
}

TEST(Unroller, StoreLoopIsNotSpinloop)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 ;
LC00:          ;
ld.weak r0, f  ;
st.weak x, 1   ;
beq r0, 0, LC00 ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 2);
    EXPECT_TRUE(up.spinloops.empty());
    ASSERT_EQ(up.killNodes.size(), 1u);
    EXPECT_FALSE(up.nodes[up.killNodes[0]].spinKill);
}

TEST(ExecAnalysis, MutualExclusionOnBranches)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 ;
ld.weak r0, c  ;
beq r0, 0, LTHEN ;
st.weak x, 1   ;
goto LEND      ;
LTHEN:         ;
st.weak y, 1   ;
LEND:          ;
ld.weak r1, x  ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 2);
    analysis::ExecAnalysis exec(up);
    // Find the two stores and the final load.
    int storeX = -1, storeY = -1, loadX = -1, loadC = -1;
    for (const Event &e : up.events) {
        if (e.isInit)
            continue;
        if (e.kind == EventKind::Write && e.instr->location == "x")
            storeX = e.id;
        if (e.kind == EventKind::Write && e.instr->location == "y")
            storeY = e.id;
        if (e.kind == EventKind::Read && e.instr->location == "x")
            loadX = e.id;
        if (e.kind == EventKind::Read && e.instr->location == "c")
            loadC = e.id;
    }
    ASSERT_GE(storeX, 0);
    ASSERT_GE(storeY, 0);
    EXPECT_TRUE(exec.mutExcl(storeX, storeY));
    EXPECT_FALSE(exec.mutExcl(storeX, loadX));
    EXPECT_TRUE(exec.poBefore(loadC, loadX));
    EXPECT_TRUE(exec.eventUnconditional(loadC));
    EXPECT_FALSE(exec.eventUnconditional(storeX));
    EXPECT_TRUE(exec.eventUnconditional(loadX));
}

TEST(Dependencies, DataAndControl)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 ;
ld.weak r0, x  ;
add r1, r0, 1  ;
st.weak y, r1  ;
bne r0, 0, LSKIP ;
st.weak z, 1   ;
LSKIP:         ;
exists (true)
)");
    UnrolledProgram up = unroll(p, 2);
    analysis::Dependencies deps =
        analysis::computeDependencies(up);
    int read = -1, storeY = -1, storeZ = -1;
    for (const Event &e : up.events) {
        if (e.isInit)
            continue;
        if (e.kind == EventKind::Read)
            read = e.id;
        if (e.kind == EventKind::Write && e.instr->location == "y")
            storeY = e.id;
        if (e.kind == EventKind::Write && e.instr->location == "z")
            storeZ = e.id;
    }
    EXPECT_TRUE(deps.data.contains(read, storeY))
        << "data flows through add";
    EXPECT_TRUE(deps.ctrl.contains(read, storeZ))
        << "branch guards the store";
    EXPECT_FALSE(deps.ctrl.contains(read, storeY));
}

TEST(ValueBits, AutoSizingCoversAccumulation)
{
    Program p = parse(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
atom.rlx.gpu.add r0, c, 100 | atom.rlx.gpu.add r0, c, 100 ;
exists (P0:r0 == 100)
)");
    int bits = p.suggestedValueBits(2);
    // Max reachable value ~ 600; needs at least 11 bits with headroom.
    EXPECT_GE(bits, 11);
}

TEST(ValueBits, SaturatesAtTheLimitsOfInt64)
{
    Program p = parse(R"(
PTX
{ x = -9223372036854775808; }
P0@cta 0,gpu 0                              ;
atom.rlx.gpu.add r0, x, 9223372036854775807 ;
exists (P0:r0 == 9223372036854775807)
)");
    EXPECT_EQ(p.suggestedValueBits(2), 63);
}

} // namespace
} // namespace gpumc::test
