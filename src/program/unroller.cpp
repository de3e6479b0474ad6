#include "program/unroller.hpp"

#include <algorithm>
#include <map>

namespace gpumc::prog {

namespace {

/** Resolve the pc of every label in a thread. */
std::map<std::string, int>
labelPcs(const Thread &thread)
{
    std::map<std::string, int> out;
    for (size_t pc = 0; pc < thread.instrs.size(); ++pc) {
        if (thread.instrs[pc].op == Opcode::Label)
            out[thread.instrs[pc].label] = static_cast<int>(pc);
    }
    return out;
}

/** Display string of an instruction for execution graphs. */
std::string
displayOf(const Instruction &ins, bool isWritePart)
{
    switch (ins.op) {
      case Opcode::Load:
        return "ld " + ins.dst + "," + ins.location;
      case Opcode::Store:
        return "st " + ins.location + "," + ins.src.str();
      case Opcode::Rmw:
        return std::string(isWritePart ? "rmw.w " : "rmw.r ") +
               ins.location;
      case Opcode::Fence:
        return std::string("fence.") + memOrderName(ins.order);
      case Opcode::ProxyFence:
        return "fence.proxy";
      case Opcode::Barrier:
        return "cbar " + ins.barrierId.str();
      case Opcode::AvDevice:
        return "avdevice";
      case Opcode::VisDevice:
        return "visdevice";
      default:
        return "?";
    }
}

class ThreadUnroller {
  public:
    ThreadUnroller(UnrolledProgram &out, const Program &program,
                   int threadIdx, int bound)
        : out_(out), program_(program), thread_(program.threads[threadIdx]),
          threadIdx_(threadIdx), bound_(bound), labels_(labelPcs(thread_))
    {
    }

    void run()
    {
        detectSpinloops();
        buildNodes();
        createEvents();
        collectSpinKillReads();
    }

  private:
    struct Key {
        int pc, budget;
        bool operator<(const Key &o) const
        {
            return pc != o.pc ? pc < o.pc : budget < o.budget;
        }
    };

    int numInstrs() const
    {
        return static_cast<int>(thread_.instrs.size());
    }

    /**
     * A backward jump whose body [target, source] is entirely
     * side-effect-free forms a spinloop.
     */
    void detectSpinloops()
    {
        for (int pc = 0; pc < numInstrs(); ++pc) {
            const Instruction &ins = thread_.instrs[pc];
            if (ins.op != Opcode::Goto && !ins.isBranch())
                continue;
            int target = labels_.at(ins.label);
            if (target > pc)
                continue; // forward jump
            bool pure = true;
            for (int p = target; p <= pc; ++p)
                pure = pure && thread_.instrs[p].isSideEffectFree();
            if (!pure)
                continue;
            Spinloop loop;
            loop.id = static_cast<int>(out_.spinloops.size());
            loop.thread = threadIdx_;
            loop.headerPc = target;
            loop.backPc = pc;
            out_.spinloops.push_back(loop);
            spinBackPcs_[pc] = loop.id;
        }
    }

    /**
     * Instantiate nodes in topological order: (budget descending, pc
     * ascending). Along any execution the budget never increases and
     * within one budget the pc strictly increases, so this order is a
     * valid topological order of the instance graph.
     */
    void buildNodes()
    {
        std::map<Key, int> instanceIdx; // key -> node index in out_.nodes
        auto getNode = [&](int pc, int budget) {
            Key key{pc, budget};
            auto it = instanceIdx.find(key);
            if (it != instanceIdx.end())
                return it->second;
            int idx = newNode();
            out_.nodes[idx].pc = pc;
            out_.nodes[idx].budget = budget;
            out_.nodes[idx].instr = &thread_.instrs[pc];
            instanceIdx.emplace(key, idx);
            return idx;
        };

        exitNode_ = newNode();
        out_.nodes[exitNode_].special = NodeSpecial::Exit;

        // Seed the entry.
        if (numInstrs() == 0) {
            entryNode_ = exitNode_;
        } else {
            entryNode_ = getNode(0, bound_);
        }

        // Process instances in topological order. Because getNode can
        // discover instances lazily, iterate budget levels descending.
        for (int budget = bound_; budget >= 0; --budget) {
            for (int pc = 0; pc < numInstrs(); ++pc) {
                auto it = instanceIdx.find(Key{pc, budget});
                if (it == instanceIdx.end())
                    continue;
                expand(it->second, pc, budget, getNode);
            }
        }

        // Gather nodes of this thread in topological order:
        // exit/kill nodes go last.
        std::vector<int> order;
        for (int budget = bound_; budget >= 0; --budget) {
            for (int pc = 0; pc < numInstrs(); ++pc) {
                auto it = instanceIdx.find(Key{pc, budget});
                if (it != instanceIdx.end())
                    order.push_back(it->second);
            }
        }
        for (int k : killNodes_)
            order.push_back(k);
        order.push_back(exitNode_);
        out_.threadNodes[threadIdx_] = std::move(order);
        out_.threadEntry[threadIdx_] = entryNode_;
        out_.threadExit[threadIdx_] = exitNode_;
    }

    template <typename GetNode>
    void expand(int nodeIdx, int pc, int budget, GetNode &getNode)
    {
        const Instruction &ins = thread_.instrs[pc];
        auto jumpSucc = [&](EdgeKind kind) {
            int target = labels_.at(ins.label);
            if (target > pc) {
                link(nodeIdx, getNode(target, budget), kind);
            } else if (budget > 0) {
                link(nodeIdx, getNode(target, budget - 1), kind);
            } else {
                link(nodeIdx, killNode(pc), kind);
            }
        };
        auto fallSucc = [&](EdgeKind kind) {
            if (pc + 1 < numInstrs())
                link(nodeIdx, getNode(pc + 1, budget), kind);
            else
                link(nodeIdx, exitNode_, kind);
        };

        switch (ins.op) {
          case Opcode::Goto:
            jumpSucc(EdgeKind::Taken);
            return;
          case Opcode::BranchEq:
          case Opcode::BranchNe:
            jumpSucc(EdgeKind::Taken);
            fallSucc(EdgeKind::NotTaken);
            return;
          default:
            fallSucc(EdgeKind::Fall);
            return;
        }
    }

    int newNode()
    {
        int idx = static_cast<int>(out_.nodes.size());
        out_.nodes.emplace_back();
        out_.nodes[idx].index = idx;
        out_.nodes[idx].thread = threadIdx_;
        return idx;
    }

    /** One kill node per backward-jump pc (spin metadata differs). */
    int killNode(int backPc)
    {
        auto it = killByPc_.find(backPc);
        if (it != killByPc_.end())
            return it->second;
        int idx = newNode();
        out_.nodes[idx].special = NodeSpecial::Kill;
        auto spin = spinBackPcs_.find(backPc);
        if (spin != spinBackPcs_.end()) {
            out_.nodes[idx].spinKill = true;
            out_.nodes[idx].spinloopId = spin->second;
        }
        killByPc_.emplace(backPc, idx);
        killNodes_.push_back(idx);
        out_.killNodes.push_back(idx);
        return idx;
    }

    void link(int from, int to, EdgeKind kind)
    {
        out_.nodes[to].preds.push_back({from, kind});
    }

    void createEvents()
    {
        for (int idx : out_.threadNodes[threadIdx_]) {
            UNode &node = out_.nodes[idx];
            if (node.special != NodeSpecial::None || !node.instr ||
                !node.instr->producesEvent()) {
                continue;
            }
            const Instruction &ins = *node.instr;
            if (ins.op == Opcode::Rmw) {
                node.readEvent = makeEvent(node, ins, false);
                node.writeEvent = makeEvent(node, ins, true);
                out_.events[node.readEvent].rmwPartner = node.writeEvent;
                out_.events[node.writeEvent].rmwPartner = node.readEvent;
            } else if (ins.op == Opcode::Load) {
                node.readEvent = makeEvent(node, ins, false);
            } else if (ins.op == Opcode::Store) {
                node.writeEvent = makeEvent(node, ins, true);
            } else {
                node.eventId = makeEvent(node, ins, false);
            }
        }
    }

    int makeEvent(const UNode &node, const Instruction &ins,
                  bool isWritePart)
    {
        Event e;
        e.id = static_cast<int>(out_.events.size());
        e.thread = threadIdx_;
        e.uNode = node.index;
        e.instr = &ins;
        e.loc = ins.loc;
        e.display = thread_.name + ": " + displayOf(ins, isWritePart);
        if (ins.scope)
            e.scope = *ins.scope;
        computeEventTags(e, ins, program_.arch, isWritePart);
        if (ins.isMemoryAccess()) {
            e.physLoc = program_.physLoc(ins.location);
            e.virtLoc = program_.virtLoc(ins.location);
        }
        out_.events.push_back(std::move(e));
        return out_.events.back().id;
    }

    /**
     * For every spin Kill node, record the read events of the final
     * unrolled iteration (budget 0, pc within the loop body) so the
     * liveness encoder can require them to be co-maximal.
     */
    void collectSpinKillReads()
    {
        for (auto [backPc, killIdx] : killByPc_) {
            const UNode &kill = out_.nodes[killIdx];
            if (!kill.spinKill)
                continue;
            const Spinloop &loop = out_.spinloops[kill.spinloopId];
            SpinKillInfo info;
            info.thread = threadIdx_;
            info.killNode = killIdx;
            info.spinloopId = kill.spinloopId;
            for (int idx : out_.threadNodes[threadIdx_]) {
                const UNode &node = out_.nodes[idx];
                if (node.special != NodeSpecial::None || node.budget != 0)
                    continue;
                if (node.pc < loop.headerPc || node.pc > loop.backPc)
                    continue;
                if (node.readEvent >= 0)
                    info.lastIterationReads.push_back(node.readEvent);
            }
            out_.spinKills.push_back(std::move(info));
        }
    }

    UnrolledProgram &out_;
    const Program &program_;
    const Thread &thread_;
    int threadIdx_;
    int bound_;
    std::map<std::string, int> labels_;
    std::map<int, int> spinBackPcs_; // back-edge pc -> spinloop id
    std::map<int, int> killByPc_;
    std::vector<int> killNodes_;
    int entryNode_ = -1;
    int exitNode_ = -1;
};

} // namespace

UnrolledProgram
unroll(const Program &program, int bound)
{
    GPUMC_ASSERT(bound >= kMinBound, "unroll bound must be at least 1");
    UnrolledProgram out;
    out.program = &program;
    out.threadEntry.resize(program.numThreads());
    out.threadExit.resize(program.numThreads());
    out.threadNodes.resize(program.numThreads());

    // Init writes: one per *physical* location, carrying the root
    // variable's initial value and storage class.
    std::map<int, int> initByPhys;
    for (int v = 0; v < program.numVars(); ++v) {
        int phys = program.physLocOfVar(v);
        if (initByPhys.count(phys))
            continue;
        Event e;
        e.id = static_cast<int>(out.events.size());
        e.physLoc = phys;
        e.virtLoc = phys; // the root variable's own virtual address
        e.initValue = program.vars[phys].init;
        e.display = "init " + program.vars[phys].name + "=" +
                    std::to_string(e.initValue);
        computeInitTags(e, program.arch, program.vars[phys].storageClass);
        initByPhys.emplace(phys, e.id);
        out.events.push_back(std::move(e));
    }
    out.numInitEvents = static_cast<int>(out.events.size());

    for (int t = 0; t < program.numThreads(); ++t)
        ThreadUnroller(out, program, t, bound).run();

    return out;
}

} // namespace gpumc::prog
