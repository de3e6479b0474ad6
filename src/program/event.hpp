/**
 * @file
 * Memory events and their `.cat` tags. Events are produced by the
 * unroller from instructions; tags (Table 2 of the paper) drive the
 * base-set semantics of the consistency models.
 */

#ifndef GPUMC_PROGRAM_EVENT_HPP
#define GPUMC_PROGRAM_EVENT_HPP

#include <functional>
#include <set>
#include <string>

#include "program/instruction.hpp"
#include "program/program.hpp"

namespace gpumc::prog {

enum class EventKind { Read, Write, Fence, Barrier, Aux };

struct Event {
    int id = -1;
    int thread = -1;          // -1 for init writes
    bool isInit = false;
    EventKind kind = EventKind::Read;
    /** Transparent, so a lookup takes a literal or a name as it is. */
    std::set<std::string, std::less<>> tags;

    int physLoc = -1;         // physical location (memory events)
    int virtLoc = -1;         // virtual address (memory events)
    int64_t initValue = 0;    // value of an init write

    int rmwPartner = -1;      // paired event of an RMW, or -1
    int uNode = -1;           // producing unrolled node
    Scope scope = Scope::Sys; // resolved instruction scope
    const Instruction *instr = nullptr;

    SourceLoc loc;
    std::string display;      // short human-readable form for graphs

    bool isMemory() const
    {
        return kind == EventKind::Read || kind == EventKind::Write;
    }
};

/**
 * Does the event belong to the named base set? Handles the derived
 * aliases: `M` = W|R, `B` = `CBAR`, `I` = `IW`, `_` = everything.
 */
bool eventHasTag(const Event &e, const std::string &name);

/**
 * Compute the tag set of an event generated from @p ins under @p arch.
 * @p isWritePart selects the write half of an RMW.
 */
void computeEventTags(Event &e, const Instruction &ins, Arch arch,
                      bool isWritePart);

/** Tag an init write for @p arch (storage class from the variable). */
void computeInitTags(Event &e, Arch arch, StorageClass sc);

// --- scope hierarchy predicates ------------------------------------------

/** Is thread @p other inside the @p scope sphere centred at @p self? */
bool scopeIncludes(const ThreadPlacement &self, Scope scope,
                   const ThreadPlacement &other);

bool sameCta(const ThreadPlacement &a, const ThreadPlacement &b);
bool sameSg(const ThreadPlacement &a, const ThreadPlacement &b);
bool sameWg(const ThreadPlacement &a, const ThreadPlacement &b);
bool sameQf(const ThreadPlacement &a, const ThreadPlacement &b);

} // namespace gpumc::prog

#endif // GPUMC_PROGRAM_EVENT_HPP
