/**
 * @file
 * cat::PairSet against a reference hash-set implementation. Every
 * operation must list the same pairs in the same order as the reference,
 * because the encoder numbers its variables in `pairs()` order: a
 * different order is a different CNF.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <unordered_set>

#include "cat/pair_set.hpp"

namespace gpumc::test {
namespace {

using cat::EventPair;
using cat::PairSet;

/**
 * The hash set plus insertion-ordered vector that PairSet replaced, with
 * its algorithms: the naive closure fix-point, compose over a map-indexed
 * right operand and Kahn's algorithm over maps.
 */
class RefPairSet {
  public:
    void add(int a, int b)
    {
        if (keys_.insert(PairSet::key(a, b)).second)
            pairs_.emplace_back(a, b);
    }
    bool contains(int a, int b) const
    {
        return keys_.count(PairSet::key(a, b)) != 0;
    }
    size_t size() const { return pairs_.size(); }
    const std::vector<EventPair> &pairs() const { return pairs_; }

    RefPairSet unionWith(const RefPairSet &o) const
    {
        RefPairSet out = *this;
        for (auto [a, b] : o.pairs_)
            out.add(a, b);
        return out;
    }
    RefPairSet intersectWith(const RefPairSet &o) const
    {
        RefPairSet out;
        const RefPairSet &small = size() <= o.size() ? *this : o;
        const RefPairSet &large = size() <= o.size() ? o : *this;
        for (auto [a, b] : small.pairs_) {
            if (large.contains(a, b))
                out.add(a, b);
        }
        return out;
    }
    RefPairSet minus(const RefPairSet &o) const
    {
        RefPairSet out;
        for (auto [a, b] : pairs_) {
            if (!o.contains(a, b))
                out.add(a, b);
        }
        return out;
    }
    RefPairSet compose(const RefPairSet &o) const
    {
        std::map<int, std::vector<int>> bySource;
        for (auto [a, b] : o.pairs_)
            bySource[a].push_back(b);
        RefPairSet out;
        for (auto [a, b] : pairs_) {
            auto it = bySource.find(b);
            if (it == bySource.end())
                continue;
            for (int c : it->second)
                out.add(a, c);
        }
        return out;
    }
    RefPairSet inverse() const
    {
        RefPairSet out;
        for (auto [a, b] : pairs_)
            out.add(b, a);
        return out;
    }
    RefPairSet transitiveClosure() const
    {
        RefPairSet result = *this;
        while (true) {
            RefPairSet next = result.unionWith(result.compose(*this));
            if (next.size() == result.size())
                return result;
            result = std::move(next);
        }
    }
    RefPairSet withIdentity(const std::vector<int> &events) const
    {
        RefPairSet out = *this;
        for (int e : events)
            out.add(e, e);
        return out;
    }
    bool isIrreflexive() const
    {
        for (auto [a, b] : pairs_) {
            if (a == b)
                return false;
        }
        return true;
    }
    bool isAcyclic() const
    {
        std::map<int, std::vector<int>> succ;
        std::map<int, int> indeg;
        for (auto [a, b] : pairs_) {
            succ[a].push_back(b);
            indeg[b]++;
            indeg.try_emplace(a, 0);
            succ.try_emplace(b);
        }
        std::vector<int> queue;
        for (auto &[node, deg] : indeg) {
            if (deg == 0)
                queue.push_back(node);
        }
        size_t visited = 0;
        while (!queue.empty()) {
            int node = queue.back();
            queue.pop_back();
            visited++;
            for (int next : succ[node]) {
                if (--indeg[next] == 0)
                    queue.push_back(next);
            }
        }
        return visited == indeg.size();
    }

  private:
    std::vector<EventPair> pairs_;
    std::unordered_set<uint64_t> keys_;
};

/** One relation built twice from the same add sequence. */
struct Both {
    PairSet got;
    RefPairSet want;

    void add(int a, int b)
    {
        got.add(a, b);
        want.add(a, b);
    }
};

/**
 * A random relation over ids [0, maxId]: empty for maxId < 0, forward
 * edges only (a DAG) when @p forward, duplicates included.
 */
Both
randomRelation(std::mt19937 &rng, int maxId, bool forward)
{
    Both out;
    if (maxId < 0)
        return out;
    std::uniform_int_distribution<int> id(0, maxId);
    int count = std::uniform_int_distribution<int>(0, 2 * maxId + 4)(rng);
    for (int i = 0; i < count; ++i) {
        int a = id(rng), b = id(rng);
        if (forward && a >= b)
            continue;
        out.add(a, b);
    }
    return out;
}

void
expectSame(const PairSet &got, const RefPairSet &want, const char *what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(got.pairs(), want.pairs());
    EXPECT_EQ(got.size(), want.size());
    EXPECT_EQ(got.empty(), want.size() == 0);
    EXPECT_EQ(got.isIrreflexive(), want.isIrreflexive());
    EXPECT_EQ(got.isAcyclic(), want.isAcyclic());
    for (int a = -1; a <= 210; a += 3) {
        for (int b = -1; b <= 210; b += 5) {
            ASSERT_EQ(got.contains(a, b), want.contains(a, b))
                << a << "," << b;
        }
    }
    for (auto [a, b] : want.pairs())
        ASSERT_TRUE(got.contains(a, b)) << a << "," << b;
}

TEST(PairSet, MatchesReferenceOrderOnRandomRelations)
{
    // Id ranges cross the 64-id growth steps; -1 leaves a set empty.
    const int maxIds[] = {-1, 5, 40, 63, 64, 100, 127, 128, 200};
    std::vector<int> universe;
    for (int e = 0; e <= 200; e += 7)
        universe.push_back(e);
    for (unsigned seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937 rng(seed);
        std::uniform_int_distribution<size_t> pick(0, std::size(maxIds) - 1);
        bool forward = seed % 2 == 0;
        Both x = randomRelation(rng, maxIds[pick(rng)], forward);
        Both y = randomRelation(rng, maxIds[pick(rng)], forward);
        expectSame(x.got, x.want, "operand");
        expectSame(x.got.unionWith(y.got), x.want.unionWith(y.want),
                   "union");
        expectSame(x.got.intersectWith(y.got),
                   x.want.intersectWith(y.want), "intersection");
        expectSame(y.got.intersectWith(x.got),
                   y.want.intersectWith(x.want), "intersection swapped");
        expectSame(x.got.minus(y.got), x.want.minus(y.want), "minus");
        expectSame(x.got.compose(y.got), x.want.compose(y.want), "compose");
        expectSame(y.got.compose(x.got), y.want.compose(x.want),
                   "compose swapped");
        expectSame(x.got.inverse(), x.want.inverse(), "inverse");
        expectSame(x.got.transitiveClosure(), x.want.transitiveClosure(),
                   "closure");
        expectSame(x.got.withIdentity(universe),
                   x.want.withIdentity(universe), "identity");
        expectSame(x.got.transitiveClosure().withIdentity(universe),
                   x.want.transitiveClosure().withIdentity(universe),
                   "reflexive closure");

        PairSet copy = x.got;
        expectSame(copy, x.want, "copy");
        EXPECT_TRUE(copy == x.got);
        EXPECT_EQ(x.got == y.got, x.want.size() == y.want.size() &&
                                      x.want.minus(y.want).size() == 0);
    }
}

TEST(PairSet, EqualityIgnoresInsertionOrder)
{
    PairSet a, b;
    a.add(1, 2);
    a.add(70, 3);
    b.add(70, 3);
    b.add(1, 2);
    EXPECT_NE(a.pairs(), b.pairs());
    EXPECT_TRUE(a == b);
    b.add(2, 1);
    EXPECT_FALSE(a == b);
    a.add(2, 2);
    EXPECT_FALSE(a == b) << "same size, different pairs";
    EXPECT_TRUE(PairSet() == PairSet());
}

TEST(PairSet, ContainsIsFalsePastTheGrownDimension)
{
    PairSet s;
    EXPECT_FALSE(s.contains(0, 0));
    s.add(3, 5);
    EXPECT_TRUE(s.contains(3, 5));
    EXPECT_FALSE(s.contains(5, 3));
    EXPECT_FALSE(s.contains(3, 64));
    EXPECT_FALSE(s.contains(64, 3));
    EXPECT_FALSE(s.contains(1000, 1000));
    EXPECT_FALSE(s.contains(-1, 5));
    EXPECT_FALSE(s.contains(3, -1));
    s.add(130, 2);
    EXPECT_TRUE(s.contains(3, 5)) << "kept across growth";
    EXPECT_TRUE(s.contains(130, 2));
    EXPECT_FALSE(s.contains(2, 130));
    EXPECT_FALSE(s.contains(192, 0));
    s.add(3, 5);
    EXPECT_EQ(s.size(), 2u);
}

TEST(PairSet, NegativeIdAborts)
{
    PairSet s;
    EXPECT_DEATH(s.add(-1, 0), "negative event id");
}

TEST(PairSet, ClosureOfLongChainAndCycle)
{
    const int n = 150;
    Both chain;
    for (int i = 0; i + 1 < n; ++i)
        chain.add(i, i + 1);
    PairSet closed = chain.got.transitiveClosure();
    EXPECT_EQ(closed.size(), size_t(n) * (n - 1) / 2);
    EXPECT_TRUE(closed.contains(0, n - 1));
    EXPECT_FALSE(closed.contains(n - 1, 0));
    EXPECT_TRUE(closed.isAcyclic());
    EXPECT_TRUE(closed.isIrreflexive());
    EXPECT_EQ(closed.pairs(), chain.want.transitiveClosure().pairs());

    Both cycle = chain;
    cycle.add(n - 1, 0);
    EXPECT_FALSE(cycle.got.isAcyclic());
    EXPECT_TRUE(cycle.got.isIrreflexive());
    PairSet full = cycle.got.transitiveClosure();
    EXPECT_EQ(full.size(), size_t(n) * n);
    EXPECT_FALSE(full.isIrreflexive());
    EXPECT_EQ(full.pairs(), cycle.want.transitiveClosure().pairs());
}

} // namespace
} // namespace gpumc::test
