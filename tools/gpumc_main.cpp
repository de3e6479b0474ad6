/**
 * @file
 * gpumc command-line driver, mirroring the Dartagnan invocation of the
 * paper's artifact:
 *
 *   gpumc <test.litmus|test.spvasm> <model.cat>
 *         [--property=program_spec|cat_spec|liveness] [--all-properties]
 *         [--engine=smt|dpor|explicit] [--bound=N] [--timeout=MS]
 *         [--backend=z3|builtin] [--cube-depth=N] [--grid=X.Y]
 *         [--witness] [--dot=<out.dot>]
 *
 * --all-properties checks program_spec, liveness and cat_spec on one
 * shared session: under SMT the pipeline (unroll, analyses, structural
 * encoding) runs once and each property is an assumption-guarded
 * query on the same live solver; under DPOR and the explicit baseline
 * one exploration answers program_spec and cat_spec. Every engine
 * exits 0 when the checked properties hold, 1 when one fails, 3 when
 * one is unknown (out of budget, or outside the engine's fragment),
 * and 2 on a usage or input error.
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "cat/model.hpp"
#include "core/verifier.hpp"
#include "litmus/litmus_parser.hpp"
#include "spirv/spirv_parser.hpp"
#include "support/string_utils.hpp"
#include "support/trace.hpp"

namespace {

using namespace gpumc;

struct CliOptions {
    std::string inputPath;
    std::string modelPath;
    core::Property property = core::Property::Safety;
    bool allProperties = false;
    core::VerifierOptions verifier;
    bool printWitness = false;
    std::string dotPath;
    std::string tracePath;
    std::string metricsPath;
    std::optional<spirv::Grid> grid;
};

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: gpumc <test.litmus|test.spvasm> <model.cat> [options]\n"
        "  --property=program_spec|cat_spec|liveness  (default: "
        "program_spec)\n"
        "  --all-properties   check all three properties on one shared\n"
        "                     incremental session\n"
        "  --bound=N          loop unroll bound (default: 2)\n"
        "  --timeout=MS       solver or exploration budget per check\n"
        "                     (0 = unlimited)\n"
        "  --backend=z3|builtin  SMT backend (default: builtin)\n"
        "  --cube-depth=N     split builtin-solver queries into 2^N\n"
        "                     cubes solved in parallel (default: 0, "
        "off)\n"
        "  --clause-share=off|cube\n"
        "                     share learned clauses between the cube\n"
        "                     solvers (default: off)\n"
        "  --grid=X.Y         thread grid for SPIR-V kernels\n"
        "  --witness          print the witness execution\n"
        "  --dot=FILE         write the witness as a GraphViz graph\n"
        "  --trace=FILE       write a Chrome trace-event JSON of the\n"
        "                     pipeline (chrome://tracing, Perfetto)\n"
        "  --metrics=FILE     write flat metrics JSON (counters + span\n"
        "                     aggregates)\n"
        "  --engine=smt|dpor|explicit\n"
        "                     smt: bounded SMT encoding (default)\n"
        "                     dpor: stateless model checking with\n"
        "                     incremental graph construction\n"
        "                     explicit: enumerate-everything baseline\n"
        "                     dpor and explicit check straight-line\n"
        "                     programs; liveness is unknown under them\n"
        "exit: 0 holds, 1 fails, 2 usage or input error, 3 unknown\n";
    std::exit(2);
}

/** cliInt (support/string_utils) partially applied to this tool. */
int64_t
cliInt(const std::string &key, const std::string &value, int64_t min,
       int64_t max)
{
    return gpumc::cliInt("gpumc", "--" + key, value, min, max);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional.push_back(arg);
            continue;
        }
        auto eq = arg.find('=');
        std::string key = arg.substr(2, eq - 2);
        std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (core::parseVerifierFlag("gpumc", key, value, opts.verifier,
                                    usage))
            continue;
        if (key == "property") {
            if (value == "program_spec") {
                opts.property = core::Property::Safety;
            } else if (value == "cat_spec") {
                opts.property = core::Property::CatSpec;
            } else if (value == "liveness") {
                opts.property = core::Property::Liveness;
            } else {
                usage();
            }
        } else if (key == "all-properties") {
            opts.allProperties = true;
        } else if (key == "grid") {
            auto parts = split(value, '.');
            if (parts.size() != 2)
                usage();
            spirv::Grid grid;
            grid.threadsPerWorkgroup =
                static_cast<int>(cliInt(key, parts[0], 1, 4096));
            grid.workgroups =
                static_cast<int>(cliInt(key, parts[1], 1, 4096));
            opts.grid = grid;
        } else if (key == "witness") {
            opts.printWitness = true;
        } else if (key == "dot") {
            if (value.empty())
                usage();
            opts.dotPath = value;
        } else if (key == "trace") {
            if (value.empty())
                usage();
            opts.tracePath = value;
        } else if (key == "metrics") {
            if (value.empty())
                usage();
            opts.metricsPath = value;
        } else {
            usage();
        }
    }
    if (positional.size() != 2)
        usage();
    opts.inputPath = positional[0];
    opts.modelPath = positional[1];
    return opts;
}

int
runTool(const CliOptions &opts)
{
    prog::Program program;
    if (endsWith(opts.inputPath, ".litmus")) {
        program = litmus::parseLitmusFile(opts.inputPath);
    } else {
        program = spirv::loadSpirvFile(
            opts.inputPath, opts.grid ? &*opts.grid : nullptr);
    }
    cat::CatModel model = cat::CatModel::fromFile(opts.modelPath);

    std::cout << "test: " << program.name << " ("
              << prog::archName(program.arch) << ", "
              << program.numThreads() << " threads)\n"
              << "model: " << model.name() << "\n";

    core::Verifier verifier(program, model, opts.verifier);
    const bool smt = opts.verifier.engine == core::Engine::Smt;

    if (opts.allProperties) {
        std::vector<core::VerificationResult> results =
            verifier.checkAll();
        bool anyUnknown = false;
        bool allHold = true;
        double totalMs = 0;
        int64_t unrollUs = 0, analysisUs = 0, encodeUs = 0,
                solveUs = 0, built = 0, reused = 0, queries = 0,
                candidates = 0;
        for (const core::VerificationResult &result : results) {
            const char *name =
                result.property == core::Property::Safety
                    ? "program_spec"
                : result.property == core::Property::CatSpec
                    ? "cat_spec"
                    : "liveness";
            std::cout << name << ": ";
            if (result.unknown) {
                std::cout << "UNKNOWN (" << result.detail << ")\n";
                anyUnknown = true;
            } else {
                std::cout << result.detail
                          << (result.holds ? " [pass]" : " [fail]")
                          << "\n";
                allHold = allHold && result.holds;
            }
            totalMs += result.timeMs;
            unrollUs += result.stats.get("phaseUnrollUs");
            analysisUs += result.stats.get("phaseAnalysisUs");
            encodeUs += result.stats.get("phaseEncodeUs");
            solveUs += result.stats.get("phaseSolveUs");
            built += result.stats.get("sessionsBuilt");
            reused += result.stats.get("sessionsReused");
            queries = result.stats.get("queriesOnSharedSession");
            candidates += result.stats.get("candidatesExplored");
        }
        std::cout << "session: built " << built << ", reused "
                  << reused << ", shared-session queries " << queries
                  << "\n";
        if (smt) {
            std::cout << "phases: unroll " << unrollUs / 1000.0
                      << " ms, analysis " << analysisUs / 1000.0
                      << " ms, encode " << encodeUs / 1000.0
                      << " ms, solve " << solveUs / 1000.0 << " ms\n";
        } else {
            std::cout << "exploration: " << candidates << " candidates\n";
        }
        std::cout << "time: " << totalMs << " ms\n";
        if (anyUnknown)
            return 3;
        return allHold ? 0 : 1;
    }

    core::VerificationResult result = verifier.check(opts.property);

    if (result.unknown) {
        std::cout << "result: UNKNOWN (" << result.detail << ")\n";
        return 3;
    }
    const char *propertyName =
        opts.property == core::Property::Safety ? "program_spec"
        : opts.property == core::Property::CatSpec ? "cat_spec"
                                                   : "liveness";
    std::cout << "property: " << propertyName << "\n"
              << "result: " << result.detail
              << (opts.property == core::Property::Safety
                      ? std::string(" [") +
                            prog::assertKindName(
                                program.assertKind) +
                            " statement is " +
                            (result.holds ? "true" : "false") + "]"
                      : result.holds ? " [pass]" : " [fail]")
              << "\n";
    if (smt) {
        std::cout << "events: " << result.stats.get("events")
                  << ", smt vars: " << result.stats.get("smtVars")
                  << ", clauses: " << result.stats.get("smtClauses")
                  << "\n"
                  << "phases: unroll "
                  << result.stats.get("phaseUnrollUs") / 1000.0
                  << " ms, analysis "
                  << result.stats.get("phaseAnalysisUs") / 1000.0
                  << " ms, encode "
                  << result.stats.get("phaseEncodeUs") / 1000.0
                  << " ms, solve "
                  << result.stats.get("phaseSolveUs") / 1000.0
                  << " ms\n"
                  << "solver: " << result.stats.get("solver.conflicts")
                  << " conflicts, "
                  << result.stats.get("solver.decisions")
                  << " decisions, "
                  << result.stats.get("solver.propagations")
                  << " propagations\n";
    } else {
        std::cout << "exploration: "
                  << result.stats.get("candidatesExplored")
                  << " candidates\n";
    }
    std::cout << "time: " << result.timeMs << " ms\n";

    if (result.witness) {
        if (opts.printWitness)
            std::cout << "witness:\n" << result.witness->toText();
        if (!opts.dotPath.empty()) {
            std::ofstream dot(opts.dotPath);
            dot << result.witness->toDot(program.name);
            dot.close();
            if (!dot) {
                std::cerr << "gpumc: cannot write '" << opts.dotPath
                          << "'\n";
                return 2;
            }
            std::cout << "witness graph written to " << opts.dotPath
                      << "\n";
        }
    }
    return result.holds ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        CliOptions opts = parseArgs(argc, argv);
        trace::enableFromCli(opts.tracePath, opts.metricsPath);
        int code = runTool(opts);
        if (!trace::flushCliOutputs(opts.tracePath, opts.metricsPath,
                                    std::cerr) &&
            code == 0) {
            code = 2;
        }
        return code;
    } catch (const gpumc::FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
