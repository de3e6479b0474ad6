/**
 * @file
 * Unit tests for the relation (bounds) analysis of Table 3: base
 * relation lower/upper bounds, derived-relation propagation, and the
 * static set evaluation.
 */

#include <gtest/gtest.h>

#include "analysis/relation_analysis.hpp"
#include "litmus/litmus_parser.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using analysis::Bounds;
using analysis::ExecAnalysis;
using analysis::RelationAnalysis;

struct Fixture {
    prog::Program program;
    prog::UnrolledProgram up;
    ExecAnalysis exec;
    RelationAnalysis ra;

    Fixture(const char *source, const cat::CatModel &model, int bound = 2)
        : program(litmus::parseLitmus(source)),
          up(prog::unroll(program, bound)), exec(up), ra(exec, model)
    {
    }

    int eventByDisplay(const std::string &needle) const
    {
        for (const prog::Event &e : up.events) {
            if (e.display.find(needle) != std::string::npos)
                return e.id;
        }
        return -1;
    }
};

TEST(RelationAnalysis, RfUpperBoundSameLocationOnly)
{
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, x  ;
st.weak y, 1   | ld.weak r1, y  ;
exists (true)
)",
              ptx60Model());
    const Bounds &rf = f.ra.baseBounds("rf");
    EXPECT_TRUE(rf.lb.empty());
    int stx = f.eventByDisplay("st x");
    int sty = f.eventByDisplay("st y");
    int ldx = f.eventByDisplay("ld r0,x");
    int ldy = f.eventByDisplay("ld r1,y");
    EXPECT_TRUE(rf.ub.contains(stx, ldx));
    EXPECT_FALSE(rf.ub.contains(stx, ldy));
    EXPECT_FALSE(rf.ub.contains(sty, ldx));
    // Init writes are rf candidates too.
    EXPECT_TRUE(rf.ub.contains(0, ldx) || rf.ub.contains(1, ldx));
}

TEST(RelationAnalysis, CoInitIsLowerBound)
{
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1   ;
exists (true)
)",
              ptx60Model());
    const Bounds &co = f.ra.baseBounds("co");
    int init = 0;
    int st = f.eventByDisplay("st x");
    EXPECT_TRUE(co.lb.contains(init, st));
    EXPECT_FALSE(co.ub.contains(st, init)) << "nothing precedes init";
}

TEST(RelationAnalysis, ScopeRelationBounds)
{
    Fixture f(R"(
PTX
P0@cta 0,gpu 0      | P1@cta 1,gpu 0       ;
st.release.cta x, 1 | ld.acquire.gpu r0, x ;
exists (true)
)",
              ptx60Model());
    int st = f.eventByDisplay("st x");
    int ld = f.eventByDisplay("ld r0,x");
    // Different CTAs: the cta-scoped store cannot reach the other
    // thread, so sr does not relate them; scta neither.
    EXPECT_FALSE(f.ra.baseBounds("sr").ub.contains(st, ld));
    EXPECT_FALSE(f.ra.baseBounds("scta").ub.contains(st, ld));
    // po within each thread is a lower bound.
    const Bounds &po = f.ra.baseBounds("po");
    EXPECT_EQ(po.lb.size(), po.ub.size());
}

TEST(RelationAnalysis, SyncBarrierStaticIdsSplitBounds)
{
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 ;
bar.cta.sync 1 | bar.cta.sync 1 | bar.cta.sync 2 ;
exists (true)
)",
              ptx60Model());
    int b0 = f.eventByDisplay("P0: cbar");
    int b1 = f.eventByDisplay("P1: cbar");
    int b2 = f.eventByDisplay("P2: cbar");
    const Bounds &sync = f.ra.baseBounds("sync_barrier");
    EXPECT_TRUE(sync.lb.contains(b0, b1)) << "equal static ids";
    EXPECT_FALSE(sync.ub.contains(b0, b2)) << "unequal static ids";
}

TEST(RelationAnalysis, SyncBarrierDynamicIdInUpperBoundOnly)
{
    Fixture f(R"(
PTX
P0@cta 0,gpu 0  | P1@cta 0,gpu 0 ;
ld.weak r2, z   | bar.cta.sync 1 ;
bar.cta.sync r2 |                ;
exists (true)
)",
              ptx60Model());
    int b0 = f.eventByDisplay("P0: cbar");
    int b1 = f.eventByDisplay("P1: cbar");
    const Bounds &sync = f.ra.baseBounds("sync_barrier");
    EXPECT_TRUE(sync.ub.contains(b0, b1));
    EXPECT_FALSE(sync.lb.contains(b0, b1)) << "id only known at runtime";
}

TEST(RelationAnalysis, DerivedDiffUsesLowerBoundOfSubtrahend)
{
    // For `loc \ po`, pairs known to be in po (lb) leave the ub.
    cat::CatModel model =
        cat::CatModel::fromSource("let r = loc \\ po\nempty r");
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1   ;
ld.weak r0, x  ;
exists (true)
)",
              model);
    int st = f.eventByDisplay("st x");
    int ld = f.eventByDisplay("ld r0,x");
    const Bounds &diff =
        f.ra.boundsOf(*model.lets()[0].expr);
    EXPECT_FALSE(diff.ub.contains(st, ld)) << "po pair removed";
    EXPECT_TRUE(diff.ub.contains(ld, st)) << "inverse not in po";
}

TEST(RelationAnalysis, ClosureUpperBoundIsTransitive)
{
    cat::CatModel model =
        cat::CatModel::fromSource("let p2 = po+\nempty p2");
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 ;
st.weak x, 1   ;
st.weak y, 1   ;
st.weak z, 1   ;
exists (true)
)",
              model);
    int a = f.eventByDisplay("st x");
    int c = f.eventByDisplay("st z");
    EXPECT_TRUE(f.ra.boundsOf(*model.lets()[0].expr).ub.contains(a, c));
}

TEST(RelationAnalysis, SeqLowerBoundOnlyThroughUnconditionalEvents)
{
    // po;po joins ld -> st y only through the store under the branch, so
    // the pair is possible but not certain; ld -> st z also passes the
    // unconditional st y and is certain whenever both ends execute.
    cat::CatModel model =
        cat::CatModel::fromSource("let pp = po ; po\nempty pp");
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 ;
ld.weak r0, c  ;
beq r0, 0, LE  ;
st.weak x, 1   ;
LE:            ;
st.weak y, 1   ;
st.weak z, 1   ;
exists (true)
)",
              model);
    int ld = f.eventByDisplay("ld r0,c");
    int sty = f.eventByDisplay("st y");
    int stz = f.eventByDisplay("st z");
    ASSERT_FALSE(f.exec.eventUnconditional(f.eventByDisplay("st x")));
    ASSERT_TRUE(f.exec.eventUnconditional(sty));
    const Bounds &pp = f.ra.boundsOf(*model.lets()[0].expr);
    EXPECT_TRUE(pp.ub.contains(ld, sty));
    EXPECT_FALSE(pp.lb.contains(ld, sty)) << "only via the branch arm";
    EXPECT_TRUE(pp.lb.contains(ld, stz)) << "via the unconditional st y";
}

TEST(RelationAnalysis, SetOfEvaluatesTags)
{
    cat::CatModel model = cat::CatModel::fromSource(
        "let strong = M & A\nempty ([strong] ; po)");
    Fixture f(R"(
PTX
P0@cta 0,gpu 0       ;
st.weak x, 1         ;
st.relaxed.gpu y, 1  ;
exists (true)
)",
              model);
    const std::vector<bool> &strong =
        f.ra.setOf(*model.lets()[0].expr);
    int weak = f.eventByDisplay("st x");
    int strongSt = f.eventByDisplay("st y");
    EXPECT_FALSE(strong[weak]);
    EXPECT_TRUE(strong[strongSt]);
}

TEST(RelationAnalysis, MutualExclusionPrunesBounds)
{
    // Stores on the two branch arms never pair in po/loc bounds.
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 ;
ld.weak r0, c  ;
beq r0, 0, LA  ;
st.weak x, 1   ;
goto LE        ;
LA:            ;
st.weak x, 2   ;
LE:            ;
exists (true)
)",
              ptx60Model());
    int s1 = f.eventByDisplay("st x,1");
    int s2 = f.eventByDisplay("st x,2");
    EXPECT_FALSE(f.ra.baseBounds("po").ub.contains(s1, s2));
    EXPECT_FALSE(f.ra.baseBounds("loc").ub.contains(s1, s2));
    EXPECT_FALSE(f.ra.baseBounds("co").ub.contains(s1, s2));
}

TEST(RelationAnalysis, NamesShareWhatTheyName)
{
    cat::CatModel model = cat::CatModel::fromSource(
        "let S = W | R\n"
        "let hb = (po | rf) ; [W]\n"
        "acyclic hb as order\n"
        "irreflexive [W] ; rf ; [S] as lost");
    Fixture f(R"(
PTX
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
st.weak x, 1   | ld.weak r0, x  ;
exists (true)
)",
              model);
    const cat::Expr &setLet = *model.lets()[0].expr;
    const cat::Expr &hbLet = *model.lets()[1].expr;
    const cat::Expr &order = *model.axioms()[0].expr;
    const cat::Expr &lost = *model.axioms()[1].expr;

    // A let reference returns its let's bounds, not a copy.
    ASSERT_EQ(order.resolution, cat::NameRes::LetRef);
    EXPECT_EQ(&f.ra.boundsOf(order), &f.ra.boundsOf(hbLet));

    // A base-relation name returns the base relation's bounds.
    const cat::Expr &po = *hbLet.lhs->lhs;
    ASSERT_EQ(po.resolution, cat::NameRes::BaseRel);
    EXPECT_EQ(&f.ra.boundsOf(po), &f.ra.baseBounds("po"));
    const cat::Expr &rf = *lost.lhs->rhs;
    ASSERT_EQ(rf.resolution, cat::NameRes::BaseRel);
    EXPECT_EQ(&f.ra.boundsOf(rf), &f.ra.baseBounds("rf"));

    // Two occurrences of one base set name share one mask, and a set
    // let reference shares its let's.
    const cat::Expr &w1 = *hbLet.rhs->lhs;
    const cat::Expr &w2 = *lost.lhs->lhs->lhs;
    ASSERT_EQ(w1.name, "W");
    ASSERT_EQ(w2.name, "W");
    ASSERT_NE(w1.id, w2.id);
    EXPECT_EQ(&f.ra.setOf(w1), &f.ra.setOf(w2));
    const cat::Expr &setRef = *lost.rhs->lhs;
    ASSERT_EQ(setRef.resolution, cat::NameRes::LetRef);
    EXPECT_EQ(&f.ra.setOf(setRef), &f.ra.setOf(setLet));
    int st = f.eventByDisplay("st x");
    int ld = f.eventByDisplay("ld r0,x");
    EXPECT_TRUE(f.ra.setOf(w1)[st]);
    EXPECT_FALSE(f.ra.setOf(w1)[ld]);
    EXPECT_TRUE(f.ra.setOf(setRef)[ld]);
}

} // namespace
} // namespace gpumc::test
