/**
 * @file
 * Boolean circuit builder with Tseitin translation into a Backend.
 *
 * All gates are structurally hashed, so re-building the same sub-formula
 * returns the same literal instead of duplicating clauses. Constant
 * literals are folded eagerly. The two-input AND and XOR gates are
 * cached by their input pair in a FlatMap each (an open-addressing
 * table that nothing iterates, so it cannot reorder the CNF).
 */

#ifndef GPUMC_SMT_CIRCUIT_HPP
#define GPUMC_SMT_CIRCUIT_HPP

#include <span>
#include <vector>

#include "smt/backend.hpp"
#include "support/flat_map.hpp"

namespace gpumc::smt {

class Circuit {
  public:
    explicit Circuit(Backend &backend);

    Backend &backend() { return backend_; }

    /** The constant-true literal. */
    Lit trueLit() const { return trueLit_; }
    /** The constant-false literal. */
    Lit falseLit() const { return -trueLit_; }

    bool isTrue(Lit l) const { return l == trueLit_; }
    bool isFalse(Lit l) const { return l == -trueLit_; }

    /** Fresh unconstrained variable. */
    Lit freshVar() { return backend_.newVar(); }

    Lit mkNot(Lit a) const { return -a; }
    Lit mkAnd(Lit a, Lit b);
    Lit mkOr(Lit a, Lit b);
    Lit mkAnd(std::span<const Lit> lits);
    Lit mkOr(std::span<const Lit> lits);
    Lit mkAnd(std::initializer_list<Lit> lits)
    {
        return mkAnd(std::span<const Lit>(lits.begin(), lits.size()));
    }
    Lit mkOr(std::initializer_list<Lit> lits)
    {
        return mkOr(std::span<const Lit>(lits.begin(), lits.size()));
    }
    Lit mkXor(Lit a, Lit b);
    Lit mkEquiv(Lit a, Lit b) { return mkNot(mkXor(a, b)); }
    Lit mkImplies(Lit a, Lit b) { return mkOr(-a, b); }
    /** if c then t else e. */
    Lit mkIte(Lit c, Lit t, Lit e);

    /** Assert a literal at the top level. */
    void assertLit(Lit l) { backend_.addClause({l}); }
    /** Assert a clause at the top level. */
    void assertClause(std::span<const Lit> clause)
    {
        backend_.addClause(clause);
    }
    void assertClause(std::initializer_list<Lit> clause)
    {
        backend_.addClause(clause);
    }
    /** Assert a implies b. */
    void assertImplies(Lit a, Lit b) { backend_.addClause({-a, b}); }

    /** Assert that at most one of the literals is true (pairwise). */
    void assertAtMostOne(std::span<const Lit> lits);
    /** Assert that exactly one of the literals is true. */
    void assertExactlyOne(std::span<const Lit> lits);

    /** Model value of a literal after a Sat solve. */
    bool modelTrue(Lit l) const
    {
        return backend_.modelValue(l) == TruthValue::True;
    }

  private:
    /**
     * A gate's input pair as one cache key. The caches only see pairs
     * with a != b, so no key is FlatMap's empty key (a = b = -1).
     */
    static uint64_t gateKey(Lit a, Lit b)
    {
        return static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32 |
               static_cast<uint32_t>(b);
    }

    Backend &backend_;
    Lit trueLit_;
    FlatMap<Lit> andCache_;
    FlatMap<Lit> xorCache_;
};

} // namespace gpumc::smt

#endif // GPUMC_SMT_CIRCUIT_HPP
