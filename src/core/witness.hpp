/**
 * @file
 * Execution witnesses: a concrete behaviour (executed events, rf, co,
 * sync_fence, values, barrier ids, final registers) extracted from a
 * SAT model. Witnesses can be rendered as DOT execution graphs (paper
 * Figs. 3/14 style) and replayed through the concrete evaluator.
 */

#ifndef GPUMC_CORE_WITNESS_HPP
#define GPUMC_CORE_WITNESS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "encoder/program_encoder.hpp"

namespace gpumc::core {

struct WitnessEvent {
    int originalId = -1; // event id in the unrolled program
    int thread = -1;     // -1 for init
    std::string display;
    bool isRead = false, isWrite = false;
    int physLoc = -1;
    int64_t value = 0;   // read or written value (memory events)
    std::optional<int64_t> barrierId; // runtime id (control barriers)
};

class ExecutionWitness {
  public:
    std::vector<WitnessEvent> events;          // executed events only
    std::vector<cat::EventPair> rf;            // witness-local indices
    std::vector<cat::EventPair> co;
    std::vector<cat::EventPair> syncFence;
    std::map<std::string, int64_t> finalRegisters; // "P0:r1" -> value
    std::vector<cat::EventPair> flaggedPairs;  // e.g. racy accesses

    /** Render as a GraphViz execution graph. */
    std::string toDot(const std::string &title) const;

    /** Compact one-line-per-event text form. */
    std::string toText() const;
};

/**
 * Extract the witness from a satisfiable encoding.
 */
ExecutionWitness extractWitness(analysis::RelationAnalysis &ra,
                                encoder::ProgramEncoder &pe);

/**
 * Replay @p witness through the concrete evaluator: does it satisfy
 * every consistency axiom of @p model? The static and barrier relations
 * come from @p ra's bounds over the witness's events, built as the
 * enumerative engines build them; rf, co and sync_fence come from the
 * witness. A SAT witness that fails is an encoder bug.
 */
bool witnessConsistent(const ExecutionWitness &witness,
                       analysis::RelationAnalysis &ra,
                       const cat::CatModel &model);

} // namespace gpumc::core

#endif // GPUMC_CORE_WITNESS_HPP
