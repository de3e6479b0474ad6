/**
 * @file
 * Occurrence polarity of `.cat` sub-expressions: the one walk behind
 * the SMT encoder's closure soundness (which closures need
 * well-foundedness indices) and the DPOR engine's monotone pruning
 * (which axioms may be checked on a partial graph).
 *
 * A walk starts at a root with a polarity and pushes it down the tree:
 * through let references, unchanged under every operator except the
 * right operand of `\`, where it flips. It never enters the set
 * operands of `*` and `[S]`, since sets are built from event tags and
 * cannot mention a relation. Each (node, polarity) pair is visited
 * once, so a node reached both ways ends up Both.
 *
 * Read from a root at Pos, a node at Pos can only grow the root's value
 * when it grows (the root is monotone in it), and a node at Neg can
 * only shrink it.
 */

#ifndef GPUMC_CAT_POLARITY_HPP
#define GPUMC_CAT_POLARITY_HPP

#include <map>
#include <string>
#include <vector>

#include "cat/model.hpp"

namespace gpumc::cat {

/** How a node occurs below the roots walked so far (a bit set). */
enum class Polarity {
    None = 0, ///< not reached
    Pos = 1,  ///< only positively (the root is monotone in it)
    Neg = 2,  ///< only negatively (antitone)
    Both = 3, ///< mixed occurrences
};

inline Polarity
joinPolarity(Polarity a, Polarity b)
{
    return Polarity(int(a) | int(b));
}

inline Polarity
flipPolarity(Polarity p)
{
    return Polarity((int(p) & 1) << 1 | int(p) >> 1);
}

class PolarityWalk {
  public:
    explicit PolarityWalk(const CatModel &model)
        : model_(&model), nodes_(model.numNodes(), Polarity::None)
    {
    }

    /** Reach every node below @p root, @p root itself at @p at. */
    void walk(const Expr &root, Polarity at);

    /** The join of the polarities @p node was reached at. */
    Polarity of(const Expr &node) const;

    /** The join over every occurrence of base relation @p name. */
    Polarity ofBase(const std::string &name) const;

  private:
    const CatModel *model_;
    /** By node id. */
    std::vector<Polarity> nodes_;
    std::map<std::string, Polarity> bases_;
};

} // namespace gpumc::cat

#endif // GPUMC_CAT_POLARITY_HPP
