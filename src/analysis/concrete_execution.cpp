#include "analysis/concrete_execution.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "cat/vocabulary.hpp"
#include "program/event.hpp"

namespace gpumc::analysis {

using cat::PairSet;
using prog::Event;
using prog::EventKind;
using prog::Opcode;
using prog::RmwKind;

const PairSet &
ConcreteView::baseRel(const std::string &name) const
{
    auto it = rels_.find(name);
    GPUMC_ASSERT(it != rels_.end(), "unknown base relation ", name);
    return it->second;
}

void
ConcreteContext::set(const std::string &name, PairSet value)
{
    PairSet &current = view_.rel(name);
    if (current == value)
        return;
    current = std::move(value);
    evaluator_.invalidate(name);
}

bool
condUsesMemory(const prog::Cond &cond)
{
    switch (cond.kind) {
      case prog::Cond::Kind::And:
      case prog::Cond::Kind::Or:
        return condUsesMemory(*cond.lhs) || condUsesMemory(*cond.rhs);
      case prog::Cond::Kind::Not:
        return condUsesMemory(*cond.lhs);
      case prog::Cond::Kind::Eq:
      case prog::Cond::Kind::Ne:
        return cond.tl.kind == prog::CondTerm::Kind::Mem ||
               cond.tr.kind == prog::CondTerm::Kind::Mem;
      case prog::Cond::Kind::True:
        return false;
    }
    return false;
}

std::string
enumerationUnsupportedReason(const prog::Program &program)
{
    if (!program.isStraightLine())
        return "control-flow instructions";
    for (const prog::Thread &t : program.threads) {
        for (const prog::Instruction &ins : t.instrs) {
            if (ins.op == Opcode::Rmw && ins.rmwKind == RmwKind::Cas)
                return "compare-and-swap";
        }
    }
    if (program.assertion && condUsesMemory(*program.assertion) &&
        program.arch == prog::Arch::Ptx)
        return "memory-valued condition under partial coherence";
    return "";
}

bool
quantifiedConditionHolds(prog::AssertKind kind, bool trueSomewhere,
                         bool falseSomewhere)
{
    switch (kind) {
      case prog::AssertKind::Exists:
        return trueSomewhere;
      case prog::AssertKind::NotExists:
        return !trueSomewhere;
      case prog::AssertKind::Forall:
        return !falseSomewhere;
    }
    return false;
}

namespace {

/** a + b without signed overflow: literals span all of int64_t. */
int64_t
wrappingAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

} // namespace

bool
ValueSimulation::simulate(const std::vector<int> &reads,
                          const std::vector<int> &rfChoice)
{
    reads_ = &reads;
    rfChoice_ = &rfChoice;
    values_.clear();
    barrierIds_.clear();
    finalRegs_.clear();
    for (int e = 0; e < up_->numInitEvents; ++e)
        values_[e] = up_->events[e].initValue;

    // Fix-point passes; each pass may resolve more reads.
    bool changed = true;
    int guardPasses = up_->numEvents() + 2;
    while (changed && guardPasses-- > 0) {
        changed = false;
        simulatePass(changed);
    }

    // Unresolved reads form value-dependency cycles; enumerate them
    // over the program's value universe.
    std::vector<int> unresolved;
    for (size_t i = 0; i < reads.size(); ++i) {
        if (!values_.count(reads[i]))
            unresolved.push_back(static_cast<int>(i));
    }
    if (unresolved.empty())
        return finishSimulation();
    return enumerateUnresolved(unresolved, 0);
}

bool
ValueSimulation::enumerateUnresolved(const std::vector<int> &unresolved,
                                     size_t index)
{
    if (index == unresolved.size())
        return finishSimulation();
    for (int64_t v : program_->valueUniverse()) {
        values_[(*reads_)[unresolved[index]]] = v;
        if (enumerateUnresolved(unresolved, index + 1))
            return true;
    }
    values_.erase((*reads_)[unresolved[index]]);
    return false;
}

bool
ValueSimulation::finishSimulation()
{
    bool changed = true;
    simulatePass(changed); // recompute with all reads bound
    for (size_t i = 0; i < reads_->size(); ++i) {
        int r = (*reads_)[i], w = (*rfChoice_)[i];
        if (!values_.count(r) || !values_.count(w) ||
            values_[r] != values_[w]) {
            return false;
        }
    }
    return true;
}

void
ValueSimulation::simulatePass(bool &changed)
{
    for (int t = 0; t < program_->numThreads(); ++t) {
        std::map<std::string, std::optional<int64_t>> env;
        auto evalOp =
            [&](const prog::Operand &op) -> std::optional<int64_t> {
            if (!op.isReg())
                return op.value;
            auto it = env.find(op.reg);
            if (it == env.end())
                return 0; // unassigned registers read 0
            return it->second;
        };
        auto setValue = [&](int event, std::optional<int64_t> v) {
            if (!v)
                return;
            auto it = values_.find(event);
            if (it == values_.end() || it->second != *v) {
                values_[event] = *v;
                changed = true;
            }
        };

        for (int idx : up_->threadNodes[t]) {
            const prog::UNode &node = up_->nodes[idx];
            if (node.special != prog::NodeSpecial::None || !node.instr)
                continue;
            const prog::Instruction &ins = *node.instr;
            switch (ins.op) {
              case Opcode::Load: {
                // The read's value comes from its rf source.
                auto pos = std::find(reads_->begin(), reads_->end(),
                                     node.readEvent);
                int w = (*rfChoice_)[pos - reads_->begin()];
                std::optional<int64_t> v;
                if (values_.count(node.readEvent)) {
                    v = values_[node.readEvent]; // enumerated cycle
                } else if (values_.count(w)) {
                    v = values_[w];
                    setValue(node.readEvent, v);
                }
                env[ins.dst] = v;
                break;
              }
              case Opcode::Store:
                setValue(node.writeEvent, evalOp(ins.src));
                break;
              case Opcode::Rmw: {
                auto pos = std::find(reads_->begin(), reads_->end(),
                                     node.readEvent);
                int w = (*rfChoice_)[pos - reads_->begin()];
                std::optional<int64_t> old;
                if (values_.count(node.readEvent))
                    old = values_[node.readEvent];
                else if (values_.count(w)) {
                    old = values_[w];
                    setValue(node.readEvent, old);
                }
                std::optional<int64_t> operand = evalOp(ins.src);
                if (ins.rmwKind == RmwKind::Add) {
                    if (old && operand)
                        setValue(node.writeEvent,
                                 wrappingAdd(*old, *operand));
                } else { // Exchange
                    setValue(node.writeEvent, operand);
                }
                env[ins.dst] = old;
                break;
              }
              case Opcode::Barrier: {
                std::optional<int64_t> id = evalOp(ins.barrierId);
                if (id)
                    barrierIds_[node.eventId] = *id;
                break;
              }
              case Opcode::Mov:
                env[ins.dst] = evalOp(ins.src);
                break;
              case Opcode::AddReg: {
                auto a = evalOp(ins.branchLhs), b = evalOp(ins.src);
                env[ins.dst] = std::nullopt;
                if (a && b)
                    env[ins.dst] = wrappingAdd(*a, *b);
                break;
              }
              default:
                break;
            }
        }
        for (const auto &[reg, v] : env) {
            if (v) {
                finalRegs_[{t, reg}] = *v;
            }
        }
    }
}

int64_t
ValueSimulation::evalTerm(const prog::CondTerm &term,
                          const PairSet &co) const
{
    switch (term.kind) {
      case prog::CondTerm::Kind::Const:
        return term.value;
      case prog::CondTerm::Kind::Reg: {
        auto it = finalRegs_.find({term.thread, term.name});
        return it == finalRegs_.end() ? 0 : it->second;
      }
      case prog::CondTerm::Kind::Mem: {
        int loc = program_->physLoc(term.name);
        // co-maximal executed write to loc.
        for (int e = 0; e < up_->numEvents(); ++e) {
            const Event &ev = up_->events[e];
            if (ev.kind != EventKind::Write || ev.physLoc != loc)
                continue;
            bool maximal = true;
            for (auto [a, b] : co.pairs()) {
                (void)b;
                if (a == e)
                    maximal = false;
            }
            if (maximal) {
                auto it = values_.find(e);
                return it == values_.end() ? 0 : it->second;
            }
        }
        return 0;
      }
    }
    GPUMC_PANIC("unhandled term");
}

std::vector<int>
everyEvent(const prog::UnrolledProgram &up)
{
    std::vector<int> events(up.numEvents());
    std::iota(events.begin(), events.end(), 0);
    return events;
}

namespace {

/**
 * The pairs of @p name's upper bound between two of @p events that
 * @p keep accepts, in the bound's order and renumbered to view ids.
 */
template <typename Keep>
PairSet
boundOverEvents(RelationAnalysis &ra, const std::string &name,
                const std::vector<int> &events, Keep keep)
{
    std::vector<int> viewId(ra.unrolled().numEvents(), -1);
    for (size_t i = 0; i < events.size(); ++i)
        viewId[events[i]] = static_cast<int>(i);
    PairSet out;
    for (auto [a, b] : ra.baseBounds(name).ub.pairs()) {
        if (viewId[a] >= 0 && viewId[b] >= 0 && keep(a, b))
            out.add(viewId[a], viewId[b]);
    }
    return out;
}

} // namespace

std::map<std::string, PairSet>
concreteStaticRels(RelationAnalysis &ra, const std::vector<int> &events)
{
    std::map<std::string, PairSet> rels;
    for (const std::string &name : cat::Vocabulary::gpu().rels) {
        bool chosen = std::find(kChosenRels.begin(), kChosenRels.end(),
                                name) != kChosenRels.end();
        rels[name] = chosen ? PairSet()
                            : boundOverEvents(ra, name, events,
                                              [](int, int) { return true; });
    }
    return rels;
}

std::map<std::string, PairSet>
concreteBarrierRels(RelationAnalysis &ra, const std::vector<int> &events,
                    const std::map<int, int64_t> &barrierIds)
{
    auto sameId = [&](int a, int b) {
        auto ia = barrierIds.find(a), ib = barrierIds.find(b);
        return ia != barrierIds.end() && ib != barrierIds.end() &&
               ia->second == ib->second;
    };
    std::map<std::string, PairSet> rels;
    for (const char *name : {"syncbar", "sync_barrier"})
        rels[name] = boundOverEvents(ra, name, events, sameId);
    return rels;
}

std::map<int, std::vector<int>>
concreteWritesPerLoc(const prog::UnrolledProgram &up)
{
    std::map<int, std::vector<int>> out;
    for (int e = up.numInitEvents; e < up.numEvents(); ++e) {
        const Event &ev = up.events[e];
        if (ev.kind == EventKind::Write)
            out[ev.physLoc].push_back(e);
    }
    return out;
}

PairSet
concreteInitCoEdges(const prog::UnrolledProgram &up)
{
    PairSet co;
    for (int i = 0; i < up.numInitEvents; ++i) {
        for (int e = up.numInitEvents; e < up.numEvents(); ++e) {
            const Event &ev = up.events[e];
            if (ev.kind == EventKind::Write &&
                ev.physLoc == up.events[i].physLoc) {
                co.add(i, e);
            }
        }
    }
    return co;
}

} // namespace gpumc::analysis
