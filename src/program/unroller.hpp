/**
 * @file
 * Bounded loop unrolling: turns each thread's instruction list into a
 * forward-only DAG of instruction instances (UNodes) plus the memory
 * events they generate. Backward jumps consume a per-thread budget;
 * exceeding the budget reaches a Kill node (the `assume` bounding
 * semantics of Section 6 — executions past the bound are excluded).
 *
 * Spinloops (side-effect-free loops, Section 6.4) are detected here so
 * the liveness encoder can treat their Kill nodes as "thread is stuck"
 * scenarios instead of excluded executions.
 */

#ifndef GPUMC_PROGRAM_UNROLLER_HPP
#define GPUMC_PROGRAM_UNROLLER_HPP

#include <vector>

#include "program/event.hpp"
#include "program/program.hpp"

namespace gpumc::prog {

enum class EdgeKind { Fall, Taken, NotTaken };

struct UEdge {
    int from = -1;
    EdgeKind kind = EdgeKind::Fall;
};

enum class NodeSpecial { None, Exit, Kill };

struct UNode {
    int index = -1;
    int thread = -1;
    int pc = -1;                 // -1 for Exit/Kill
    int budget = -1;
    const Instruction *instr = nullptr;
    std::vector<UEdge> preds;

    int readEvent = -1;          // Load / RMW read event id
    int writeEvent = -1;         // Store / RMW write event id
    int eventId = -1;            // Fence/Barrier/Aux event id

    NodeSpecial special = NodeSpecial::None;
    bool spinKill = false;       // Kill node reached via a spinloop
    int spinloopId = -1;
};

/** A detected side-effect-free loop. */
struct Spinloop {
    int id = -1;
    int thread = -1;
    int headerPc = -1;           // first pc of the loop body
    int backPc = -1;             // pc of the backward jump
};

/** Liveness metadata: one per spin Kill node. */
struct SpinKillInfo {
    int thread = -1;
    int killNode = -1;
    int spinloopId = -1;
    /** Read events of the last unrolled iteration before the kill. */
    std::vector<int> lastIterationReads;
};

struct UnrolledProgram {
    const Program *program = nullptr;

    /** All nodes; within a thread, indices are topologically ordered. */
    std::vector<UNode> nodes;
    std::vector<Event> events;       // init events first
    int numInitEvents = 0;

    std::vector<int> threadEntry;    // node index per thread
    std::vector<int> threadExit;     // Exit node per thread
    std::vector<std::vector<int>> threadNodes; // topo order per thread

    std::vector<Spinloop> spinloops;
    std::vector<SpinKillInfo> spinKills;

    /** All Kill nodes (spin and hard). */
    std::vector<int> killNodes;

    const Event &event(int id) const { return events[id]; }
    int numEvents() const { return static_cast<int>(events.size()); }
};

/** The unroll bounds a user may ask for: the `--bound` flag, the
 *  corpus `@config bound=` key and the serve `bound` field check them
 *  where they enter. */
inline constexpr int kMinBound = 1;
inline constexpr int kMaxBound = 64;

/**
 * Unroll @p program with the given loop @p bound (number of backward
 * jumps allowed per thread, at least kMinBound). The program must have
 * been validated.
 */
UnrolledProgram unroll(const Program &program, int bound);

} // namespace gpumc::prog

#endif // GPUMC_PROGRAM_UNROLLER_HPP
