#include "smt/circuit.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace gpumc::smt {

Circuit::Circuit(Backend &backend) : backend_(backend)
{
    trueLit_ = backend_.newVar();
    backend_.addClause({trueLit_});
}

Lit
Circuit::mkAnd(Lit a, Lit b)
{
    if (isFalse(a) || isFalse(b))
        return falseLit();
    if (isTrue(a))
        return b;
    if (isTrue(b))
        return a;
    if (a == b)
        return a;
    if (a == -b)
        return falseLit();
    if (a > b)
        std::swap(a, b);
    uint64_t key = gateKey(a, b);
    if (const Lit *cached = andCache_.find(key))
        return *cached;
    Lit out = backend_.newVar();
    backend_.addClause({-out, a});
    backend_.addClause({-out, b});
    backend_.addClause({out, -a, -b});
    andCache_.emplace(key, out);
    return out;
}

Lit
Circuit::mkOr(Lit a, Lit b)
{
    return -mkAnd(-a, -b);
}

Lit
Circuit::mkAnd(std::span<const Lit> lits)
{
    // Fold constants and duplicates first; then build a Tseitin gate with
    // one output variable for the whole conjunction.
    std::vector<Lit> ops;
    ops.reserve(lits.size());
    for (Lit l : lits) {
        if (isFalse(l))
            return falseLit();
        if (isTrue(l))
            continue;
        ops.push_back(l);
    }
    // Sort by variable so complementary literals become adjacent.
    std::sort(ops.begin(), ops.end(), [](Lit x, Lit y) {
        int32_t ax = std::abs(x), ay = std::abs(y);
        return ax != ay ? ax < ay : x < y;
    });
    ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
    for (size_t i = 0; i + 1 < ops.size(); ++i) {
        if (ops[i] == -ops[i + 1])
            return falseLit();
    }
    if (ops.empty())
        return trueLit();
    if (ops.size() == 1)
        return ops[0];
    if (ops.size() == 2)
        return mkAnd(ops[0], ops[1]);

    Lit out = backend_.newVar();
    std::vector<Lit> longClause;
    longClause.reserve(ops.size() + 1);
    longClause.push_back(out);
    for (Lit l : ops) {
        backend_.addClause({-out, l});
        longClause.push_back(-l);
    }
    backend_.addClause(longClause);
    return out;
}

Lit
Circuit::mkOr(std::span<const Lit> lits)
{
    std::vector<Lit> negated;
    negated.reserve(lits.size());
    for (Lit l : lits)
        negated.push_back(-l);
    return -mkAnd(negated);
}

Lit
Circuit::mkXor(Lit a, Lit b)
{
    if (isFalse(a))
        return b;
    if (isFalse(b))
        return a;
    if (isTrue(a))
        return -b;
    if (isTrue(b))
        return -a;
    if (a == b)
        return falseLit();
    if (a == -b)
        return trueLit();
    // Normalize to positive-positive form; XOR is invariant modulo output
    // negation under input negation.
    bool flip = false;
    if (a < 0) {
        a = -a;
        flip = !flip;
    }
    if (b < 0) {
        b = -b;
        flip = !flip;
    }
    if (a > b)
        std::swap(a, b);
    uint64_t key = gateKey(a, b);
    Lit out;
    if (const Lit *cached = xorCache_.find(key)) {
        out = *cached;
    } else {
        out = backend_.newVar();
        backend_.addClause({-out, a, b});
        backend_.addClause({-out, -a, -b});
        backend_.addClause({out, -a, b});
        backend_.addClause({out, a, -b});
        xorCache_.emplace(key, out);
    }
    return flip ? -out : out;
}

Lit
Circuit::mkIte(Lit c, Lit t, Lit e)
{
    if (isTrue(c))
        return t;
    if (isFalse(c))
        return e;
    if (t == e)
        return t;
    return mkOr(mkAnd(c, t), mkAnd(-c, e));
}

void
Circuit::assertAtMostOne(std::span<const Lit> lits)
{
    // Pairwise encoding: fine for the small cardinalities (rf candidates
    // per read) that gpumc produces.
    for (size_t i = 0; i < lits.size(); ++i) {
        for (size_t j = i + 1; j < lits.size(); ++j)
            backend_.addClause({-lits[i], -lits[j]});
    }
}

void
Circuit::assertExactlyOne(std::span<const Lit> lits)
{
    GPUMC_ASSERT(!lits.empty(), "exactly-one over empty set");
    assertClause(lits);
    assertAtMostOne(lits);
}

} // namespace gpumc::smt
