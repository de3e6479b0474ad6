#include "cat/polarity.hpp"

namespace gpumc::cat {

void
PolarityWalk::walk(const Expr &root, Polarity at)
{
    Polarity &seen = nodes_[model_->idOf(root)];
    Polarity joined = joinPolarity(seen, at);
    if (joined == seen)
        return;
    seen = joined;
    switch (root.kind) {
      case ExprKind::Name:
        if (root.resolution == NameRes::LetRef) {
            walk(*model_->lets()[root.letIndex].expr, at);
        } else if (root.resolution == NameRes::BaseRel) {
            Polarity &base = bases_[root.name];
            base = joinPolarity(base, at);
        }
        return;
      case ExprKind::Diff:
        walk(*root.lhs, at);
        walk(*root.rhs, flipPolarity(at));
        return;
      case ExprKind::Union:
      case ExprKind::Inter:
      case ExprKind::Seq:
        walk(*root.lhs, at);
        walk(*root.rhs, at);
        return;
      case ExprKind::Cartesian:
      case ExprKind::Bracket:
        return; // set operands
      case ExprKind::Inverse:
      case ExprKind::TransClosure:
      case ExprKind::ReflTransClosure:
      case ExprKind::Optional:
        walk(*root.lhs, at);
        return;
    }
}

Polarity
PolarityWalk::of(const Expr &node) const
{
    return nodes_[model_->idOf(node)];
}

Polarity
PolarityWalk::ofBase(const std::string &name) const
{
    auto it = bases_.find(name);
    return it == bases_.end() ? Polarity::None : it->second;
}

} // namespace gpumc::cat
