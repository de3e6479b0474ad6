/**
 * @file
 * Unit tests for the litmus front-ends: column-format structure,
 * prelude, conditions, directives, and the two instruction dialects.
 */

#include <gtest/gtest.h>

#include "litmus/condition_parser.hpp"
#include "litmus/litmus_parser.hpp"
#include "litmus/ptx_dialect.hpp"
#include "litmus/vulkan_dialect.hpp"

namespace gpumc::litmus {
namespace {

using namespace prog;

TEST(LitmusStructure, HeaderPreludeAndColumns)
{
    Program p = parseLitmus(R"(
(* a comment (* nested *) here *)
PTX "my-test"
{ x = 7; s -> x; }
P0@cta 0,gpu 1 | P1@cta 1,gpu 1 ;
st.weak x, 1   | ld.weak r0, x  ;
               | ld.weak r1, s  ;
exists (P1:r0 == 1 /\ P1:r1 == 7)
)");
    EXPECT_EQ(p.name, "my-test");
    EXPECT_EQ(p.arch, Arch::Ptx);
    ASSERT_EQ(p.numThreads(), 2);
    EXPECT_EQ(p.threads[0].placement.cta, 0);
    EXPECT_EQ(p.threads[0].placement.gpu, 1);
    EXPECT_EQ(p.threads[1].placement.cta, 1);
    EXPECT_EQ(p.threads[0].instrs.size(), 1u);
    EXPECT_EQ(p.threads[1].instrs.size(), 2u);
    EXPECT_EQ(p.vars[0].init, 7);
    EXPECT_EQ(p.physLoc("s"), p.physLoc("x"));
    EXPECT_EQ(p.assertKind, AssertKind::Exists);
}

TEST(LitmusStructure, DirectivesAndFilter)
{
    Program p = parseLitmus(R"(
(* @expect safety=holds drf=racy *)
(* @config bound=3 *)
VULKAN "t"
P0@sg 0,wg 0,qf 0 ;
st.sc0 x, 1       ;
filter (x == 1)
~exists (P0:r9 == 5)
)");
    EXPECT_EQ(p.meta.at("safety"), "holds");
    EXPECT_EQ(p.meta.at("drf"), "racy");
    EXPECT_EQ(p.meta.at("bound"), "3");
    EXPECT_NE(p.filter, nullptr);
    EXPECT_EQ(p.assertKind, AssertKind::NotExists);
}

TEST(LitmusStructure, SswMarker)
{
    Program p = parseLitmus(R"(
VULKAN
P0@sg 0,wg 0,qf 0,ssw | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1           | ld.sc0 r0, x      ;
exists (true)
)");
    EXPECT_TRUE(p.threads[0].placement.ssw);
    EXPECT_FALSE(p.threads[1].placement.ssw);
}

TEST(LitmusStructure, ErrorsAreReported)
{
    EXPECT_THROW(parseLitmus("WRONGARCH\n"), FatalError);
    // More columns than threads.
    EXPECT_THROW(parseLitmus(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1 | st.weak y, 1 ;
exists (true)
)"),
                 FatalError);
}

TEST(LitmusStructure, BadIntegerLiteralsAreInputErrors)
{
    // Each literal is past its field's range (or no number at all), so
    // the input is rejected rather than the process aborted.
    auto program = [](const char *prelude, const char *header,
                      const char *store, const char *cond) {
        return std::string("PTX\n") + prelude + header +
               " | P1@cta 0,gpu 0 ;\n" + store +
               " | ld.weak r0, x ;\nexists (" + cond + ")\n";
    };
    EXPECT_NO_THROW(parseLitmus(program("", "P0@cta 0,gpu 0",
                                        "st.weak x, 1", "P1:r0 == 1")));
    for (const std::string &source :
         {program("", "P0@cta 0,gpu 0", "st.weak x, 99999999999999999999",
                  "P1:r0 == 1"),
          program("", "P0@cta 99999999999,gpu 0", "st.weak x, 1",
                  "P1:r0 == 1"),
          program("{ x = 99999999999999999999; }\n", "P0@cta 0,gpu 0",
                  "st.weak x, 1", "P1:r0 == 1"),
          program("", "P0@cta 0,gpu 0", "st.weak x, 1",
                  "P1:r0 == 99999999999999999999"),
          program("", "P0@cta 0,gpu 0", "st.weak x, 1",
                  "P99999999999:r0 == 1"),
          program("", "P0@cta 0,gpu 0", "st.weak x, 1", "P1:r0 == -")}) {
        EXPECT_THROW(parseLitmus(source), FatalError) << source;
    }
}

TEST(LitmusStructure, ThreadColumnsAreNamedByIndex)
{
    // Conditions read `P1:r0` as column 1, so a header naming column 0
    // P1 would check a different thread than the one it shows.
    EXPECT_THROW(parseLitmus(R"(
PTX
P1@cta 0,gpu 0 | P0@cta 1,gpu 0 ;
st.weak x, 1   | ld.weak r0, y  ;
exists (P1:r0 == 1)
)"),
                 FatalError);
    EXPECT_THROW(parseLitmus(R"(
PTX
P0@cta 0,gpu 0 | P2@cta 1,gpu 0 ;
st.weak x, 1   | ld.weak r0, x  ;
exists (true)
)"),
                 FatalError);
}

TEST(ConditionParser, PrecedenceAndForms)
{
    CondPtr c = parseCondition(
        "P0:r1 == 1 /\\ P1:r2 != 2 \\/ ~(x == 3)");
    // '\/' binds loosest: the root is an Or.
    ASSERT_EQ(c->kind, Cond::Kind::Or);
    EXPECT_EQ(c->lhs->kind, Cond::Kind::And);
    EXPECT_EQ(c->rhs->kind, Cond::Kind::Not);

    // Register-to-register and single '=' forms.
    CondPtr c2 = parseCondition("P0:r1 = P1:r1");
    ASSERT_EQ(c2->kind, Cond::Kind::Eq);
    EXPECT_EQ(c2->tl.kind, CondTerm::Kind::Reg);
    EXPECT_EQ(c2->tr.thread, 1);

    EXPECT_THROW(parseCondition("P0:r1 =="), FatalError);
    EXPECT_THROW(parseCondition("??"), FatalError);
}

TEST(ConditionEval, Evaluates)
{
    CondPtr c = parseCondition("(a == 1 /\\ b == 2) \\/ c != 0");
    auto valuation = [](const CondTerm &t) -> int64_t {
        if (t.kind == CondTerm::Kind::Const)
            return t.value;
        if (t.name == "a")
            return 1;
        if (t.name == "b")
            return 9;
        return 0; // c
    };
    EXPECT_FALSE(evalCond(*c, valuation));
}

TEST(PtxDialect, Instructions)
{
    SourceLoc loc{1, 1};
    auto one = [&](const char *text) {
        auto v = parsePtxInstruction(text, loc);
        EXPECT_EQ(v.size(), 1u);
        return v[0];
    };
    Instruction ld = one("ld.acquire.sys r0, x");
    EXPECT_EQ(ld.op, Opcode::Load);
    EXPECT_EQ(ld.order, MemOrder::Acq);
    EXPECT_EQ(*ld.scope, Scope::Sys);
    EXPECT_TRUE(ld.atomic);

    Instruction st = one("st.weak x, 5");
    EXPECT_EQ(st.op, Opcode::Store);
    EXPECT_FALSE(st.atomic);
    EXPECT_EQ(st.src.value, 5);

    Instruction cas = one("atom.acq.gpu.cas r1, l, 0, 2");
    EXPECT_EQ(cas.rmwKind, RmwKind::Cas);
    EXPECT_EQ(cas.src.value, 0);
    EXPECT_EQ(cas.src2.value, 2);

    Instruction pf = one("fence.proxy.texture");
    EXPECT_EQ(pf.op, Opcode::ProxyFence);
    EXPECT_EQ(pf.proxyFence, ProxyFenceKind::Texture);

    Instruction bar = one("bar.cta.sync r2");
    EXPECT_EQ(bar.op, Opcode::Barrier);
    EXPECT_TRUE(bar.barrierId.isReg());

    Instruction tld = one("tld.weak r1, t");
    EXPECT_EQ(tld.proxy, Proxy::Texture);

    EXPECT_THROW(one("frobnicate r0"), FatalError);
    EXPECT_THROW(one("atom.acq.gpu r0, x, 1"), FatalError); // no kind
    EXPECT_THROW(one("ld.bogus r0, x"), FatalError);
}

TEST(VulkanDialect, Instructions)
{
    SourceLoc loc{1, 1};
    auto parse = [&](const char *text) {
        return parseVulkanInstruction(text, loc);
    };
    auto v = parse("st.atom.rel.dv.sc1 f, 1");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_TRUE(v[0].atomic);
    EXPECT_EQ(v[0].order, MemOrder::Rel);
    EXPECT_EQ(*v[0].storageClass, StorageClass::Sc1);

    auto fence = parse("membar.acq.dv.semsc0.semsc1.semvis");
    EXPECT_TRUE(fence[0].semSc0);
    EXPECT_TRUE(fence[0].semSc1);
    EXPECT_TRUE(fence[0].semVis);

    // Barrier with memory semantics expands to fence+barrier+fence.
    auto cbar = parse("cbar.acqrel.wg.semsc0 3");
    ASSERT_EQ(cbar.size(), 3u);
    EXPECT_EQ(cbar[0].op, Opcode::Fence);
    EXPECT_EQ(cbar[0].order, MemOrder::Rel);
    EXPECT_EQ(cbar[1].op, Opcode::Barrier);
    EXPECT_EQ(cbar[1].barrierId.value, 3);
    EXPECT_EQ(cbar[2].order, MemOrder::Acq);

    auto plain = parse("cbar.wg 1");
    EXPECT_EQ(plain.size(), 1u);

    // Non-atomic access with an order is rejected.
    EXPECT_THROW(parse("st.rel.sc0 x, 1"), FatalError);
    // av flag on plain store.
    auto av = parse("st.sc0.av x, 1");
    EXPECT_TRUE(av[0].avFlag);
}

} // namespace
} // namespace gpumc::litmus
