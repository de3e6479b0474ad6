#include "cat/pair_set.hpp"

#include <algorithm>
#include <span>

#include "support/diagnostics.hpp"

namespace gpumc::cat {

namespace {

/**
 * The pairs of a relation indexed by source (compressed rows): the
 * successors of each source keep the relation's pair order.
 */
class Successors {
  public:
    Successors(const std::vector<EventPair> &pairs, uint32_t dim)
        : dim_(dim), offset_(dim + 1, 0), succ_(pairs.size())
    {
        for (auto [a, b] : pairs)
            ++offset_[a];
        // offset_[a] becomes the end of a's row; filling each row from
        // the back leaves it at the row's start.
        for (uint32_t i = 1; i <= dim; ++i)
            offset_[i] += offset_[i - 1];
        for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
            succ_[--offset_[it->first]] = it->second;
    }

    /** Successors of @p a; none for an id past the dimension. */
    std::span<const int> of(int a) const
    {
        if (static_cast<uint32_t>(a) >= dim_)
            return {};
        return {succ_.data() + offset_[a], succ_.data() + offset_[a + 1]};
    }

  private:
    uint32_t dim_;
    std::vector<uint32_t> offset_;
    std::vector<int> succ_;
};

} // namespace

void
PairSet::grow(int a, int b)
{
    GPUMC_ASSERT(a >= 0 && b >= 0, "negative event id in pair (", a, ", ",
                 b, ")");
    uint32_t dim = (static_cast<uint32_t>(std::max(a, b)) + 64) & ~63u;
    size_t oldStride = dim_ >> 6, stride = dim >> 6;
    std::vector<uint64_t> bits(static_cast<size_t>(dim) * stride, 0);
    for (size_t row = 0; row < dim_; ++row) {
        std::copy_n(bits_.begin() + row * oldStride, oldStride,
                    bits.begin() + row * stride);
    }
    bits_ = std::move(bits);
    dim_ = dim;
}

bool
PairSet::operator==(const PairSet &o) const
{
    if (size() != o.size())
        return false;
    return std::all_of(pairs_.begin(), pairs_.end(), [&](EventPair p) {
        return o.contains(p.first, p.second);
    });
}

PairSet
PairSet::unionWith(const PairSet &o) const
{
    PairSet out = *this;
    for (auto [a, b] : o.pairs_)
        out.add(a, b);
    return out;
}

PairSet
PairSet::intersectWith(const PairSet &o) const
{
    PairSet out;
    const PairSet &small = size() <= o.size() ? *this : o;
    const PairSet &large = size() <= o.size() ? o : *this;
    for (auto [a, b] : small.pairs_) {
        if (large.contains(a, b))
            out.add(a, b);
    }
    return out;
}

PairSet
PairSet::minus(const PairSet &o) const
{
    PairSet out;
    for (auto [a, b] : pairs_) {
        if (!o.contains(a, b))
            out.add(a, b);
    }
    return out;
}

PairSet
PairSet::compose(const PairSet &o) const
{
    PairSet out;
    if (empty() || o.empty())
        return out;
    Successors next(o.pairs_, o.dim_);
    for (auto [a, b] : pairs_) {
        for (int c : next.of(b))
            out.add(a, c);
    }
    return out;
}

PairSet
PairSet::inverse() const
{
    PairSet out;
    for (auto [a, b] : pairs_)
        out.add(b, a);
    return out;
}

PairSet
PairSet::transitiveClosure() const
{
    // Semi-naive fix-point: a pair only needs extending once, when it is
    // appended. Pairs are extended in the order they were appended, so
    // each round of the naive r := r ∪ (r ; this) appends the same pairs
    // in the same order.
    PairSet out = *this;
    if (empty())
        return out;
    Successors next(pairs_, dim_);
    for (size_t i = 0; i < out.pairs_.size(); ++i) {
        auto [a, b] = out.pairs_[i];
        for (int c : next.of(b))
            out.add(a, c);
    }
    return out;
}

PairSet
PairSet::withIdentity(const std::vector<int> &events) const
{
    PairSet out = *this;
    for (int e : events)
        out.add(e, e);
    return out;
}

bool
PairSet::isIrreflexive() const
{
    return std::none_of(pairs_.begin(), pairs_.end(),
                        [](const EventPair &p) {
                            return p.first == p.second;
                        });
}

bool
PairSet::isAcyclic() const
{
    // Kahn's algorithm: every id drains to in-degree 0 iff no cycle.
    if (empty())
        return true;
    Successors next(pairs_, dim_);
    std::vector<uint32_t> indeg(dim_, 0);
    for (auto [a, b] : pairs_)
        ++indeg[b];
    std::vector<int> ready;
    for (uint32_t id = 0; id < dim_; ++id) {
        if (indeg[id] == 0)
            ready.push_back(static_cast<int>(id));
    }
    size_t drained = 0;
    while (!ready.empty()) {
        int id = ready.back();
        ready.pop_back();
        drained++;
        for (int c : next.of(id)) {
            if (--indeg[c] == 0)
                ready.push_back(c);
        }
    }
    return drained == dim_;
}

} // namespace gpumc::cat
