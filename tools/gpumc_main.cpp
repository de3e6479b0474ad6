/**
 * @file
 * gpumc command-line driver, mirroring the Dartagnan invocation of the
 * paper's artifact: `gpumc <test.litmus|test.spvasm> <model.cat>
 * [options]`. Run it without arguments for the flag list.
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

#include <fstream>
#include <iostream>

#include "cat/model.hpp"
#include "core/verifier.hpp"
#include "litmus/litmus_parser.hpp"
#include "spirv/spirv_parser.hpp"
#include "support/cli.hpp"
#include "support/string_utils.hpp"

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
    std::optional<spirv::Grid> grid;
};

CliOptions
parseArgs(cli::Parser &cli, int argc, char **argv)
{
    CliOptions opts;
    std::string grid;
    cli.choice("property", "property to check (default: program_spec)",
               {{"program_spec", core::Property::Safety},
                {"cat_spec", core::Property::CatSpec},
                {"liveness", core::Property::Liveness}},
               opts.property);
    cli.flag("all-properties",
             "check all three properties on one shared\n"
             "incremental session",
             opts.allProperties);
    core::addVerifierFlags(cli, opts.verifier);
    cli.text("grid", "X.Y", "thread grid for SPIR-V kernels", grid);
    cli.flag("witness", "print the witness execution (smt only)",
             opts.printWitness);
    cli.text("dot", "FILE",
             "write the witness as a GraphViz graph (smt\nonly)",
             opts.dotPath);
    cli.traceOutputs();
    std::vector<std::string> positional = cli.parse(argc, argv);
    opts.inputPath = positional[0];
    opts.modelPath = positional[1];
    // Only the SMT engine builds a witness execution.
    if (opts.verifier.engine != core::Engine::Smt &&
        (opts.printWitness || !opts.dotPath.empty()))
        cli.fail("--witness and --dot only support --engine=smt");
    if (!grid.empty()) {
        std::vector<std::string> parts = split(grid, '.');
        if (parts.size() != 2)
            cli.fail("--grid expects X.Y");
        opts.grid = spirv::Grid{
            static_cast<int>(cliInt("gpumc", "--grid", parts[0], 1, 4096)),
            static_cast<int>(cliInt("gpumc", "--grid", parts[1], 1, 4096))};
    }
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
    cli::Parser cli("gpumc", {"<test.litmus|test.spvasm>", "<model.cat>"},
                    "exit: 0 holds, 1 fails, 2 usage or input error, "
                    "3 unknown\n");
    try {
        return cli.finish(runTool(parseArgs(cli, argc, argv)));
    } catch (const gpumc::FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
