#include "core/witness.hpp"

#include <sstream>

#include "analysis/concrete_execution.hpp"
#include "program/event.hpp"

namespace gpumc::core {

using prog::Event;
using prog::EventKind;

ExecutionWitness
extractWitness(analysis::RelationAnalysis &ra, encoder::ProgramEncoder &pe)
{
    const prog::UnrolledProgram &up = ra.unrolled();
    smt::Circuit &c = pe.circuit();
    ExecutionWitness w;

    std::map<int, int> localOf; // original event id -> witness index
    for (int e = 0; e < up.numEvents(); ++e) {
        if (!c.modelTrue(pe.execLit(e)))
            continue;
        const Event &ev = up.events[e];
        WitnessEvent we;
        we.originalId = e;
        we.thread = ev.thread;
        we.display = ev.isInit ? ev.display : ev.display;
        we.isRead = ev.kind == EventKind::Read;
        we.isWrite = ev.kind == EventKind::Write;
        we.physLoc = ev.physLoc;
        if (ev.isMemory())
            we.value = static_cast<int64_t>(pe.bv().modelValue(
                pe.valueOf(e)));
        if (ev.kind == EventKind::Barrier)
            we.barrierId = static_cast<int64_t>(
                pe.bv().modelValue(pe.barrierIdOf(e)));
        localOf[e] = static_cast<int>(w.events.size());
        w.events.push_back(std::move(we));
    }

    auto collectPairs = [&](const std::map<uint64_t, smt::Lit> &map,
                            std::vector<cat::EventPair> &out) {
        for (const auto &[key, lit] : map) {
            if (!c.modelTrue(lit))
                continue;
            int a = static_cast<int>(key >> 32);
            int b = static_cast<int>(key & 0xffffffff);
            auto ia = localOf.find(a), ib = localOf.find(b);
            if (ia != localOf.end() && ib != localOf.end())
                out.push_back({ia->second, ib->second});
        }
    };
    collectPairs(pe.rfMap(), w.rf);
    collectPairs(pe.coMap(), w.co);
    collectPairs(pe.syncFenceMap(), w.syncFence);

    // Final registers of each thread (only those named in conditions
    // would matter, but all are cheap to record).
    const prog::Program &program = *up.program;
    for (int t = 0; t < program.numThreads(); ++t) {
        std::set<std::string> regs;
        for (const prog::Instruction &ins : program.threads[t].instrs) {
            if (!ins.dst.empty())
                regs.insert(ins.dst);
        }
        for (const std::string &reg : regs) {
            int64_t value = static_cast<int64_t>(
                pe.bv().modelValue(pe.finalRegister(t, reg)));
            w.finalRegisters[program.threads[t].name + ":" + reg] = value;
        }
    }
    return w;
}

std::string
ExecutionWitness::toText() const
{
    std::ostringstream os;
    for (size_t i = 0; i < events.size(); ++i) {
        const WitnessEvent &e = events[i];
        os << "e" << i << " [" << (e.thread < 0 ? "init"
                                   : "P" + std::to_string(e.thread))
           << "] " << e.display;
        if (e.isRead || e.isWrite)
            os << " = " << e.value;
        os << "\n";
    }
    for (auto [a, b] : rf)
        os << "rf: e" << a << " -> e" << b << "\n";
    for (auto [a, b] : co)
        os << "co: e" << a << " -> e" << b << "\n";
    for (const auto &[reg, value] : finalRegisters)
        os << reg << " = " << value << "\n";
    return os.str();
}

std::string
ExecutionWitness::toDot(const std::string &title) const
{
    std::ostringstream os;
    os << "digraph execution {\n  label=\"" << title << "\";\n"
       << "  node [shape=box, fontname=\"monospace\"];\n";

    // Cluster events per thread.
    std::map<int, std::vector<int>> byThread;
    for (size_t i = 0; i < events.size(); ++i)
        byThread[events[i].thread].push_back(static_cast<int>(i));
    for (const auto &[thread, ids] : byThread) {
        os << "  subgraph cluster_t" << (thread + 1) << " {\n"
           << "    label=\""
           << (thread < 0 ? std::string("init")
                          : "P" + std::to_string(thread))
           << "\";\n";
        for (int i : ids) {
            os << "    e" << i << " [label=\"" << events[i].display;
            if (events[i].isRead || events[i].isWrite)
                os << " = " << events[i].value;
            os << "\"];\n";
        }
        // Chain po edges in id order within the thread.
        for (size_t k = 0; k + 1 < ids.size(); ++k) {
            if (thread >= 0) {
                os << "    e" << ids[k] << " -> e" << ids[k + 1]
                   << " [label=\"po\", color=black];\n";
            }
        }
        os << "  }\n";
    }
    for (auto [a, b] : rf)
        os << "  e" << a << " -> e" << b
           << " [label=\"rf\", color=forestgreen];\n";
    for (auto [a, b] : co)
        os << "  e" << a << " -> e" << b
           << " [label=\"co\", color=red, constraint=false];\n";
    for (auto [a, b] : flaggedPairs)
        os << "  e" << a << " -> e" << b
           << " [label=\"race\", color=purple, dir=both, "
              "style=dashed];\n";
    os << "}\n";
    return os.str();
}

bool
witnessConsistent(const ExecutionWitness &witness,
                  analysis::RelationAnalysis &ra, const cat::CatModel &model)
{
    std::vector<int> events;
    std::map<int, int64_t> barrierIds;
    for (const WitnessEvent &e : witness.events) {
        events.push_back(e.originalId);
        if (e.barrierId)
            barrierIds[e.originalId] = *e.barrierId;
    }
    std::map<std::string, cat::PairSet> rels =
        analysis::concreteStaticRels(ra, events);
    for (auto &[name, rel] :
         analysis::concreteBarrierRels(ra, events, barrierIds))
        rels[name] = std::move(rel);
    auto fromPairs = [](const std::vector<cat::EventPair> &pairs) {
        cat::PairSet out;
        for (auto [a, b] : pairs)
            out.add(a, b);
        return out;
    };
    rels["rf"] = fromPairs(witness.rf);
    rels["co"] = fromPairs(witness.co);
    rels["sync_fence"] = fromPairs(witness.syncFence);
    analysis::ConcreteView view(ra.unrolled(), std::move(events),
                                std::move(rels));
    return cat::RelationEvaluator(model, view).consistent();
}

} // namespace gpumc::core
