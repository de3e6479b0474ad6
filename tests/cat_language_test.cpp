/**
 * @file
 * Unit tests for the .cat language pipeline: lexer, parser, semantic
 * checking, the concrete relation evaluator and the PairSet algebra.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cat/evaluator.hpp"
#include "cat/lexer.hpp"
#include "cat/model.hpp"
#include "cat/parser.hpp"
#include "cat/polarity.hpp"

namespace gpumc::cat {
namespace {

// --- lexer ------------------------------------------------------------

TEST(CatLexer, TokenKinds)
{
    auto tokens = tokenizeCat("let x = po | rf^-1 ; [W] & _ \\ co+");
    std::vector<TokKind> kinds;
    for (const Token &t : tokens)
        kinds.push_back(t.kind);
    EXPECT_EQ(kinds,
              (std::vector<TokKind>{
                  TokKind::Let, TokKind::Ident, TokKind::Equals,
                  TokKind::Ident, TokKind::Pipe, TokKind::Ident,
                  TokKind::Inverse, TokKind::Semi, TokKind::LBracket,
                  TokKind::Ident, TokKind::RBracket, TokKind::Amp,
                  TokKind::Ident, TokKind::Backslash, TokKind::Ident,
                  TokKind::Plus, TokKind::End}));
}

TEST(CatLexer, NestedComments)
{
    auto tokens = tokenizeCat("(* outer (* inner *) still *) let");
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].kind, TokKind::Let);
}

TEST(CatLexer, HyphenatedNames)
{
    auto tokens = tokenizeCat("non-rmw-reads sync_fence ptx.v6");
    EXPECT_EQ(tokens[0].text, "non-rmw-reads");
    EXPECT_EQ(tokens[1].text, "sync_fence");
    EXPECT_EQ(tokens[2].text, "ptx.v6");
}

TEST(CatLexer, UnterminatedCommentFails)
{
    EXPECT_THROW(tokenizeCat("(* oops"), FatalError);
}

// --- parser -----------------------------------------------------------

TEST(CatParser, StarDisambiguation)
{
    // Binary cartesian vs postfix Kleene closure.
    ParsedModel m = parseCat("let a = W * R\nlet b = po*\nlet c = po* ; rf");
    EXPECT_EQ(m.lets[0].expr->kind, ExprKind::Cartesian);
    EXPECT_EQ(m.lets[1].expr->kind, ExprKind::ReflTransClosure);
    EXPECT_EQ(m.lets[2].expr->kind, ExprKind::Seq);
    EXPECT_EQ(m.lets[2].expr->lhs->kind, ExprKind::ReflTransClosure);
}

TEST(CatParser, KleeneBeforeNextStatement)
{
    // `po+` followed directly by the next `let` must stay postfix.
    ParsedModel m = parseCat("let a = po+\nlet b = rf");
    EXPECT_EQ(m.lets[0].expr->kind, ExprKind::TransClosure);
    EXPECT_EQ(m.lets.size(), 2u);
}

TEST(CatParser, Precedence)
{
    // & binds tighter than ; binds tighter than |
    ParsedModel m = parseCat("let a = po ; rf & loc | co");
    const Expr &root = *m.lets[0].expr;
    ASSERT_EQ(root.kind, ExprKind::Union);
    EXPECT_EQ(root.lhs->kind, ExprKind::Seq);
    EXPECT_EQ(root.lhs->rhs->kind, ExprKind::Inter);
}

TEST(CatParser, AxiomsAndFlags)
{
    ParsedModel m = parseCat(
        "\"M\"\nacyclic po as order\nempty rf\nirreflexive co\n"
        "flag ~empty loc as race");
    EXPECT_EQ(m.modelName, "M");
    ASSERT_EQ(m.axioms.size(), 4u);
    EXPECT_EQ(m.axioms[0].kind, AxiomKind::Acyclic);
    EXPECT_EQ(m.axioms[0].name, "order");
    EXPECT_EQ(m.axioms[3].kind, AxiomKind::FlagNonEmpty);
    EXPECT_EQ(m.axioms[3].name, "race");
}

TEST(CatModelChecks, UnknownNameRejected)
{
    EXPECT_THROW(CatModel::fromSource("let a = nonexistent"),
                 FatalError);
}

TEST(CatModelChecks, TypeErrors)
{
    // Cartesian of relations is a type error.
    EXPECT_THROW(CatModel::fromSource("let a = po * rf"), FatalError);
    // Sequencing sets is a type error.
    EXPECT_THROW(CatModel::fromSource("let a = W ; R"), FatalError);
    // Axioms must be relations.
    EXPECT_THROW(CatModel::fromSource("empty W"), FatalError);
}

TEST(CatModelChecks, ShadowingSeesOlderBinding)
{
    // `let co = co+` must resolve the RHS co to the base relation.
    CatModel model = CatModel::fromSource("let co = co+\nempty co");
    ASSERT_EQ(model.lets().size(), 1u);
    const Expr &rhs = *model.lets()[0].expr;
    ASSERT_EQ(rhs.kind, ExprKind::TransClosure);
    EXPECT_EQ(rhs.lhs->resolution, NameRes::BaseRel);
}

TEST(CatModelChecks, ShippedModelsParse)
{
    for (const char *file :
         {"/ptx-v6.0.cat", "/ptx-v7.5.cat", "/vulkan.cat"}) {
        EXPECT_NO_THROW(CatModel::fromFile(std::string(GPUMC_CAT_DIR) +
                                           file))
            << file;
    }
    EXPECT_TRUE(CatModel::fromFile(std::string(GPUMC_CAT_DIR) +
                                   "/vulkan.cat")
                    .hasFlaggedAxioms());
    EXPECT_FALSE(CatModel::fromFile(std::string(GPUMC_CAT_DIR) +
                                    "/ptx-v6.0.cat")
                     .hasFlaggedAxioms());
}

/** Every node's id under @p e in pre-order, set operands included;
 *  counts the set-typed nodes among them into @p setNodes. */
void
collectIds(const Expr &e, std::vector<int> &ids, int &setNodes)
{
    ids.push_back(e.id);
    setNodes += e.type == ExprType::Set;
    if (e.lhs)
        collectIds(*e.lhs, ids, setNodes);
    if (e.rhs)
        collectIds(*e.rhs, ids, setNodes);
}

std::vector<int>
modelIds(const CatModel &model, int &setNodes)
{
    std::vector<int> ids;
    setNodes = 0;
    for (const LetBinding &let : model.lets())
        collectIds(*let.expr, ids, setNodes);
    for (const Axiom &ax : model.axioms())
        collectIds(*ax.expr, ids, setNodes);
    return ids;
}

TEST(CatModelIds, DenseUniqueAndStableAcrossLoads)
{
    for (const char *file :
         {"/ptx-v6.0.cat", "/ptx-v7.5.cat", "/vulkan.cat"}) {
        const std::string path = std::string(GPUMC_CAT_DIR) + file;
        CatModel model = CatModel::fromFile(path);
        int setNodes = 0;
        std::vector<int> ids = modelIds(model, setNodes);
        EXPECT_GT(setNodes, 0) << file;
        // Each of 0..numNodes()-1 is used exactly once.
        ASSERT_EQ(static_cast<int>(ids.size()), model.numNodes()) << file;
        std::vector<int> sorted = ids;
        std::sort(sorted.begin(), sorted.end());
        for (int i = 0; i < model.numNodes(); ++i)
            ASSERT_EQ(sorted[i], i) << file;
        // A second load of the same file numbers the same nodes alike.
        EXPECT_EQ(modelIds(CatModel::fromFile(path), setNodes), ids)
            << file;
    }
}

// --- occurrence polarity -----------------------------------------------

TEST(PolarityWalk, FlipsUnderDiffFollowsLetsAndSkipsSets)
{
    CatModel model = CatModel::fromSource(
        "let hb = (po | rf)+\n"
        "let fr = rf^-1 ; co\n"
        "acyclic hb | fr as order\n"
        "irreflexive (co \\ hb) ; [W] as lost\n"
        "empty (W * R) \\ loc as pairs");
    const Axiom &order = model.axioms()[0];
    const Axiom &lost = model.axioms()[1];
    const Axiom &pairs = model.axioms()[2];
    const Expr &hb = *model.lets()[0].expr;

    // `hb` is reached directly from `order` and under the right of `\`
    // from `lost`; the base relations under it follow.
    PolarityWalk both(model);
    both.walk(*order.expr, Polarity::Pos);
    EXPECT_EQ(both.of(hb), Polarity::Pos);
    EXPECT_EQ(both.ofBase("rf"), Polarity::Pos);
    both.walk(*lost.expr, Polarity::Pos);
    EXPECT_EQ(both.of(hb), Polarity::Both);
    EXPECT_EQ(both.ofBase("po"), Polarity::Both);
    EXPECT_EQ(both.ofBase("rf"), Polarity::Both);
    EXPECT_EQ(both.ofBase("co"), Polarity::Pos);
    EXPECT_EQ(both.ofBase("loc"), Polarity::None);
    // Walking a root again changes nothing.
    both.walk(*lost.expr, Polarity::Pos);
    EXPECT_EQ(both.ofBase("co"), Polarity::Pos);

    // A root walked from Neg flips everything below it.
    PolarityWalk flipped(model);
    flipped.walk(*lost.expr, Polarity::Neg);
    EXPECT_EQ(flipped.ofBase("co"), Polarity::Neg);
    EXPECT_EQ(flipped.ofBase("po"), Polarity::Pos);
    EXPECT_EQ(flipped.of(hb), Polarity::Pos);
    EXPECT_EQ(flipped.of(*order.expr), Polarity::None);

    // The set operands of `[S]` and `*` are never entered.
    PolarityWalk sets(model);
    sets.walk(*lost.expr, Polarity::Pos);
    sets.walk(*pairs.expr, Polarity::Pos);
    const Expr &bracket = *lost.expr->rhs;
    ASSERT_EQ(bracket.kind, ExprKind::Bracket);
    EXPECT_EQ(sets.of(bracket), Polarity::Pos);
    EXPECT_EQ(sets.of(*bracket.lhs), Polarity::None);
    const Expr &product = *pairs.expr->lhs;
    ASSERT_EQ(product.kind, ExprKind::Cartesian);
    EXPECT_EQ(sets.of(product), Polarity::Pos);
    EXPECT_EQ(sets.of(*product.lhs), Polarity::None);
    EXPECT_EQ(sets.ofBase("loc"), Polarity::Neg);
}

// --- pair set algebra ---------------------------------------------------

TEST(PairSet, BasicOps)
{
    PairSet a, b;
    a.add(0, 1);
    a.add(1, 2);
    b.add(1, 2);
    b.add(2, 3);
    EXPECT_EQ(a.unionWith(b).size(), 3u);
    EXPECT_EQ(a.intersectWith(b).size(), 1u);
    EXPECT_EQ(a.minus(b).size(), 1u);
    EXPECT_TRUE(a.minus(b).contains(0, 1));
    PairSet composed = a.compose(b);
    EXPECT_TRUE(composed.contains(0, 2));
    EXPECT_TRUE(composed.contains(1, 3));
    EXPECT_EQ(composed.size(), 2u);
    EXPECT_TRUE(a.inverse().contains(1, 0));
}

TEST(PairSet, TransitiveClosureAndCycles)
{
    PairSet chain;
    chain.add(0, 1);
    chain.add(1, 2);
    chain.add(2, 3);
    PairSet closed = chain.transitiveClosure();
    EXPECT_TRUE(closed.contains(0, 3));
    EXPECT_EQ(closed.size(), 6u);
    EXPECT_TRUE(closed.isAcyclic());
    EXPECT_TRUE(closed.isIrreflexive());

    chain.add(3, 0);
    PairSet cyclic = chain.transitiveClosure();
    EXPECT_FALSE(cyclic.isAcyclic());
    EXPECT_FALSE(cyclic.isIrreflexive()); // (0,0) via the cycle
    EXPECT_TRUE(cyclic.contains(0, 0));
}

// --- concrete evaluator --------------------------------------------------

/** A tiny hand-built execution for evaluator tests. */
class TinyExec : public ExecutionView {
  public:
    // Events: 0:W(init) 1:W 2:R
    int numEvents() const override { return 3; }

    bool inSet(int event, const std::string &tag) const override
    {
        if (tag == "_")
            return true;
        if (tag == "W")
            return event == 0 || event == 1;
        if (tag == "R")
            return event == 2;
        if (tag == "M")
            return true;
        if (tag == "IW" || tag == "I")
            return event == 0;
        return false;
    }

    const PairSet &baseRel(const std::string &name) const override
    {
        static const PairSet empty;
        if (name == "rf")
            return rf_;
        if (name == "co")
            return co_;
        if (name == "po")
            return po_;
        if (name == "loc")
            return loc_;
        return empty;
    }

    TinyExec()
    {
        rf_.add(0, 2);
        co_.add(0, 1);
        po_.add(1, 2);
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                loc_.add(i, j);
    }

  private:
    PairSet rf_, co_, po_, loc_;
};

TEST(RelationEvaluator, EvaluatesDerivedRelations)
{
    CatModel model = CatModel::fromSource(
        "let fr = rf^-1 ; co\n"
        "let com = rf | co | fr\n"
        "acyclic (po | com) as sc-per-loc\n"
        "flag ~empty (fr & po^-1) as stale");
    TinyExec exec;
    RelationEvaluator evaluator(model, exec);

    PairSet fr = evaluator.evalRel(*model.lets()[0].expr);
    ASSERT_EQ(fr.size(), 1u);
    EXPECT_TRUE(fr.contains(2, 1)); // read 2 (from init) vs write 1

    // po(1,2), rf(0,2), co(0,1), fr(2,1): cycle 1 -> 2 -> 1.
    EXPECT_FALSE(evaluator.consistent());

    auto flags = evaluator.evalFlags();
    ASSERT_EQ(flags.size(), 1u);
    EXPECT_FALSE(flags[0].holds);
    EXPECT_TRUE(flags[0].flagged.contains(2, 1));
}

TEST(RelationEvaluator, SetOperations)
{
    CatModel model = CatModel::fromSource(
        "let nonInitWrites = W \\ IW\n"
        "empty ([nonInitWrites] ; rf)");
    TinyExec exec;
    RelationEvaluator evaluator(model, exec);
    std::vector<bool> set = evaluator.evalSet(*model.lets()[0].expr);
    EXPECT_EQ(set, (std::vector<bool>{false, true, false}));
    // rf comes only from the init write: the axiom holds.
    EXPECT_TRUE(evaluator.consistent());
}

} // namespace
} // namespace gpumc::cat
