/**
 * @file
 * The whole-program IR: shared variables, threads with their placement
 * in the GPU execution hierarchy, instructions, and the litmus
 * condition (Section 2.2 of the paper).
 */

#ifndef GPUMC_PROGRAM_PROGRAM_HPP
#define GPUMC_PROGRAM_PROGRAM_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "program/assertion.hpp"
#include "program/instruction.hpp"
#include "program/types.hpp"

namespace gpumc::prog {

/**
 * Where a thread lives in the GPU hierarchy. PTX threads use {cta,
 * gpu}; Vulkan threads use {sg, wg, qf}. Unused coordinates stay 0.
 */
struct ThreadPlacement {
    int cta = 0;
    int gpu = 0;
    int sg = 0;
    int wg = 0;
    int qf = 0;
    /** Thread participates in Vulkan system-synchronizes-with. */
    bool ssw = false;
};

struct Thread {
    std::string name; // "P0", "P1", ...
    ThreadPlacement placement;
    std::vector<Instruction> instrs;
};

/**
 * Structural 128-bit hash of a program's semantic IR (two independent
 * 64-bit passes). Programs with equal fingerprints unroll and encode
 * identically, so a fingerprint can key caches of verification
 * sessions. Cosmetic fields (the litmus name, `@` metadata, source
 * locations) do not contribute.
 */
struct ProgramFingerprint {
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const ProgramFingerprint &) const = default;
    bool operator<(const ProgramFingerprint &other) const
    {
        return hi != other.hi ? hi < other.hi : lo < other.lo;
    }

    /** 32 hex digits, for logs and reports. */
    std::string str() const;
};

/** Shared-variable declaration from the litmus prelude. */
struct VarDecl {
    std::string name;
    int64_t init = 0;
    /**
     * Name of the variable this one aliases (same physical location,
     * different virtual address); empty when the variable is its own
     * location. Used for the PTX proxy tests (paper Fig. 5).
     */
    std::string aliasOf;
    /** Vulkan storage class of the underlying memory object. */
    StorageClass storageClass = StorageClass::Sc0;
};

class Program {
  public:
    Arch arch = Arch::Ptx;
    std::string name;
    std::vector<VarDecl> vars;
    std::vector<Thread> threads;

    AssertKind assertKind = AssertKind::Exists;
    CondPtr assertion;          // nullptr means "true"
    CondPtr filter;             // optional behaviour filter

    /**
     * Free-form metadata from `@expect` / `@config` comment directives
     * (expected verdicts for the corpus harness, loop bounds, ...).
     */
    std::map<std::string, std::string> meta;

    /**
     * Check internal consistency (labels resolve, scopes match the
     * architecture, variables exist, condition references are valid)
     * and resolve locations. @throws FatalError on problems.
     */
    void validate();

    // --- location queries (valid after validate()) ----------------------
    int numVars() const { return static_cast<int>(vars.size()); }
    /** Index of a variable by name, or -1. */
    int varIndex(const std::string &name) const;
    /** Virtual address id of a variable (its own declaration index). */
    int virtLoc(const std::string &name) const;
    /** Physical location id (root of the alias chain). */
    int physLoc(const std::string &name) const;
    /** Physical location id for a declaration index. */
    int physLocOfVar(int varIdx) const { return physOf_[varIdx]; }

    int numThreads() const { return static_cast<int>(threads.size()); }

    /** Default instruction scope when none was written. */
    Scope defaultScope() const
    {
        return arch == Arch::Ptx ? Scope::Sys : Scope::Dv;
    }

    /** True if no thread uses control-flow instructions. */
    bool isStraightLine() const;

    /** All distinct constants appearing in the program: initial
     *  values, instruction and barrier-id operands, and the assertion
     *  and filter (plus 0/1). */
    std::vector<int64_t> valueUniverse() const;

    /**
     * A bit width sufficient to represent every value the program can
     * compute when each loop body runs at most @p bound times
     * (constants plus worst-case accumulation through fetch-adds and
     * register additions).
     */
    int suggestedValueBits(int bound) const;

    /** Structural hash over every semantic IR field (see
     *  ProgramFingerprint). */
    ProgramFingerprint fingerprint() const;

  private:
    void validateCond(const Cond &cond, const char *what) const;

    std::vector<int> physOf_; // varIdx -> physical location id
};

} // namespace gpumc::prog

#endif // GPUMC_PROGRAM_PROGRAM_HPP
