/**
 * @file
 * A set of event pairs (a concrete binary relation over event ids) with
 * the relational-algebra operations used by the `.cat` evaluator (DPOR,
 * its exhaustive mode and witness replay) and by the relation (bounds)
 * analysis.
 *
 * Storage: a row-major bit matrix over event ids, grown on demand in
 * steps of 64 ids, answers membership; a vector keeps the pairs in
 * insertion order. `pairs()` order is part of the contract: the encoder
 * numbers its variables in that order, so every operation appends its
 * result in a fixed, documented order.
 */

#ifndef GPUMC_CAT_PAIR_SET_HPP
#define GPUMC_CAT_PAIR_SET_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gpumc::cat {

using EventPair = std::pair<int, int>;

class PairSet {
  public:
    PairSet() = default;

    /** An event pair packed into one hash key (for callers' maps). */
    static uint64_t key(int a, int b)
    {
        return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
               static_cast<uint32_t>(b);
    }

    /** Adds (a, b) unless present. Event ids must be non-negative. */
    void add(int a, int b)
    {
        if (static_cast<uint32_t>(a) >= dim_ ||
            static_cast<uint32_t>(b) >= dim_) {
            grow(a, b);
        }
        uint64_t &word = bits_[wordIndex(a, b)];
        uint64_t mask = uint64_t(1) << (b & 63);
        if (word & mask)
            return;
        word |= mask;
        pairs_.emplace_back(a, b);
    }

    bool contains(int a, int b) const
    {
        return static_cast<uint32_t>(a) < dim_ &&
               static_cast<uint32_t>(b) < dim_ &&
               ((bits_[wordIndex(a, b)] >> (b & 63)) & 1) != 0;
    }

    size_t size() const { return pairs_.size(); }
    bool empty() const { return pairs_.empty(); }

    /** Iteration over pairs in insertion order. */
    const std::vector<EventPair> &pairs() const { return pairs_; }

    // --- relational algebra ---------------------------------------------
    // Each result's pair order follows from its operands' orders.

    /** This set's pairs, then o's new ones. */
    PairSet unionWith(const PairSet &o) const;
    /** In the smaller operand's order (this one on a tie). */
    PairSet intersectWith(const PairSet &o) const;
    /** In this set's order. */
    PairSet minus(const PairSet &o) const;
    /**
     * Relational composition this ; o: for each pair (a, b) of this set,
     * (a, c) for every (b, c) of o in o's order.
     */
    PairSet compose(const PairSet &o) const;
    /** In this set's order. */
    PairSet inverse() const;
    /**
     * Transitive closure, in the order of the naive fix-point
     * r := r ∪ (r ; this).
     */
    PairSet transitiveClosure() const;
    /** Reflexive closure over the given event universe ids, appended. */
    PairSet withIdentity(const std::vector<int> &events) const;

    /** True if no pair (a, a) exists. */
    bool isIrreflexive() const;
    /** True if the relation (as a graph) has no cycle. */
    bool isAcyclic() const;

    /** Set equality: the insertion order is ignored. */
    bool operator==(const PairSet &o) const;

  private:
    size_t wordIndex(int a, int b) const
    {
        return static_cast<size_t>(a) * (dim_ >> 6) +
               (static_cast<uint32_t>(b) >> 6);
    }
    /** Widens the matrix to hold (a, b); rejects negative ids. */
    void grow(int a, int b);

    std::vector<EventPair> pairs_;
    /** dim_ rows of dim_ / 64 words; bit (a, b) is pair membership. */
    std::vector<uint64_t> bits_;
    uint32_t dim_ = 0;
};

} // namespace gpumc::cat

#endif // GPUMC_CAT_PAIR_SET_HPP
