/**
 * @file
 * The benchmark's inputs, built from the repository's own front ends:
 * the shipped `.litmus` corpus with its `@expect` directives, the
 * Table 5 generated suites, the Table 7 lock and barrier kernels, and
 * the Fig. 15 scaled families.
 */

#ifndef GPUBENCH_INPUTS_HPP
#define GPUBENCH_INPUTS_HPP

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace gpubench {

/** One verification query with its reference verdict, if any. */
struct Query {
    const prog::Program *program = nullptr;
    const cat::CatModel *model = nullptr;
    /** Model name as the daemon resolves it (<cat-dir>/<name>.cat). */
    std::string modelName;
    core::Property property = core::Property::Safety;
    int bound = 2;
    std::optional<bool> expect;
    std::string label;
    /** Litmus text of the program (shipped file or emitted kernel). */
    const std::string *source = nullptr;
    /** Generated test: its reference comes from the explicit engine. */
    bool generated = false;
};

struct Inputs {
    /** Deques keep the addresses the queries point at stable. */
    std::deque<prog::Program> programs;
    std::deque<std::string> sources;
    std::vector<Query> queries;
};

/**
 * The shipped corpus under <root>/litmus: one query per `@expect`
 * directive and model (PTX files against PTX v6.0 and v7.5, Vulkan
 * files against Vulkan), as gpumc-corpus expands them. @p tiny keeps
 * one PTX and one Vulkan file.
 */
void addShippedFiles(Inputs &inputs, const Options &opts,
                     const Models &models);

/**
 * litmus::generatePatternSuite and generateProgressSuite for each
 * model: safety (plus DRF under Vulkan) for pattern tests, liveness
 * for progress tests. No reference verdicts yet (see
 * explicitReference).
 */
void addGeneratedSuites(Inputs &inputs, const Options &opts,
                        const Models &models);

/** Can the Alloy-style baseline handle this program at all? */
bool explicitSupports(const prog::Program &program);

/** One Table 7 row: a kernel and its known verdict. */
struct KernelRow {
    std::string name;
    prog::Program program;
    /** Check data-race freedom after safety, on the same session. */
    bool drf = false;
    /** Table 7's column: weakened variants are buggy. */
    bool buggy = false;
};

/**
 * The Table 7 rows the `locks` workload runs (see README.md): base
 * proofs at 2.2 (XF-barrier at 3.3) and every weakening at 2.2.
 * @p tiny keeps the XF-barrier rows at 2.2.
 */
std::vector<KernelRow> lockRows(bool tiny);

/** One Fig. 15 program. */
struct ScaledProgram {
    std::string name;
    /** Family name ("MP", "LB", ...); whether its weak outcome is
     *  reachable, and whether it races, does not depend on the size. */
    std::string family;
    prog::Program program;
    const cat::CatModel *model = nullptr;
    /** Small enough for the enumerative engines; larger sizes run
     *  under SMT only, as in Fig. 15 where the baseline times out. */
    bool enumerative = true;
};

/**
 * MP/SB on PTX v7.5 and LB/IRIW on Vulkan, plus the release/acquire MP
 * chain whose weak outcome is forbidden (the only family where the
 * engines must prove rather than find): 4 to 6 threads for all engines
 * (even counts only for IRIW), 8 to 24 threads for SMT only.
 * @p tiny keeps MP-4 and MP-relacq-4.
 */
std::vector<ScaledProgram> scaledPrograms(const Models &models, bool tiny);

} // namespace gpubench

#endif // GPUBENCH_INPUTS_HPP
