/**
 * @file
 * Reproduces the paper's Table 5: model validation. Runs the litmus
 * corpus (shipped files + the generated pattern suite + the spinloop
 * progress suite) through gpumc (the Dartagnan role) and through the
 * explicit-state baseline (the Alloy role), per consistency model, and
 * reports supported-test counts and average times for the safety,
 * liveness and DRF categories.
 *
 * Mirrored baseline limitations (Section 6.1):
 *  - PTX v6.0 has no Alloy tool at all;
 *  - the Alloy tools support neither control flow, CAS, control
 *    barriers, the constant proxy, nor liveness;
 *  - for tests supported by both, the verdicts must agree (checked).
 */

#include "bench/bench_util.hpp"
#include "litmus/generator.hpp"

using namespace gpumc;
using bench::CsvWriter;

namespace {

struct CategoryStats {
    int tests = 0;
    double totalMs = 0;

    void add(double ms)
    {
        tests++;
        totalMs += ms;
    }
    double avg() const { return tests ? totalMs / tests : 0.0; }
};

struct ToolRow {
    CategoryStats safety, liveness, drf;
    int total() const
    {
        return safety.tests + liveness.tests + drf.tests;
    }
    double timePerTest() const
    {
        double ms = safety.totalMs + liveness.totalMs + drf.totalMs;
        int n = total();
        return n ? ms / n : 0.0;
    }
};

/** The Alloy tools cannot handle these features. */
bool
alloySupports(const prog::Program &program)
{
    if (!program.isStraightLine())
        return false;
    for (const prog::Thread &t : program.threads) {
        for (const prog::Instruction &ins : t.instrs) {
            if (ins.op == prog::Opcode::Barrier)
                return false;
            if (ins.op == prog::Opcode::Rmw &&
                ins.rmwKind == prog::RmwKind::Cas) {
                return false;
            }
            if (ins.op == prog::Opcode::ProxyFence &&
                ins.proxyFence == prog::ProxyFenceKind::Constant) {
                return false;
            }
            if (ins.isMemoryAccess() &&
                ins.proxy == prog::Proxy::Constant) {
                return false;
            }
        }
    }
    return true;
}

struct SuiteResult {
    ToolRow gpumc;
    ToolRow alloy;
    int disagreements = 0;
};

SuiteResult
runSuite(const std::vector<litmus::GeneratedTest> &tests,
         const cat::CatModel &model, bool alloyExists)
{
    SuiteResult result;
    for (const litmus::GeneratedTest &test : tests) {
        core::VerifierOptions options;
        options.wantWitness = false;
        core::Verifier verifier(test.program, model, options);

        if (test.isProgress) {
            core::VerificationResult r = verifier.checkLiveness();
            result.gpumc.liveness.add(r.timeMs);
            continue;
        }
        core::VerificationResult safety = verifier.checkSafety();
        result.gpumc.safety.add(safety.timeMs);
        bool drfHolds = true;
        if (model.hasFlaggedAxioms()) {
            core::VerificationResult drf = verifier.checkCatSpec();
            result.gpumc.drf.add(drf.timeMs);
            drfHolds = drf.holds;
        }

        if (!alloyExists || !alloySupports(test.program))
            continue;
        core::VerifierOptions baselineOptions = options;
        baselineOptions.engine = core::Engine::Explicit;
        baselineOptions.solverTimeoutMs = 20000;
        core::Verifier baseline(test.program, model, baselineOptions);
        core::VerificationResult groundSafety = baseline.checkSafety();
        if (groundSafety.unknown)
            continue;
        result.alloy.safety.add(groundSafety.timeMs);
        bool groundDrfHolds = true;
        if (model.hasFlaggedAxioms()) {
            // The safety exploration answers DRF as well.
            core::VerificationResult groundDrf = baseline.checkCatSpec();
            result.alloy.drf.add(groundDrf.timeMs);
            groundDrfHolds = groundDrf.holds;
        }
        if (groundSafety.holds != safety.holds ||
            groundDrfHolds != drfHolds) {
            result.disagreements++;
            std::cerr << "DISAGREEMENT on " << test.name << "\n";
        }
    }
    return result;
}

void
printRows(const std::string &modelName, const SuiteResult &r,
          bool alloyExists, CsvWriter &csv)
{
    auto printRow = [&](const char *tool, const ToolRow &row) {
        std::printf("%-10s %-10s %7d %8d %5d %7d %12.0f\n",
                    modelName.c_str(), tool, row.safety.tests,
                    row.liveness.tests, row.drf.tests, row.total(),
                    row.timePerTest());
        csv.row(modelName, tool, row.safety.tests, row.liveness.tests,
                row.drf.tests, row.total(), row.timePerTest());
    };
    printRow("gpumc", r.gpumc);
    if (alloyExists) {
        printRow("alloy", r.alloy);
    } else {
        std::printf("%-10s %-10s %7d %8d %5d %7d %12.0f   "
                    "(no Alloy tool exists for this model)\n",
                    modelName.c_str(), "alloy", 0, 0, 0, 0, 0.0);
        csv.row(modelName, "alloy", 0, 0, 0, 0, 0);
    }
    if (r.disagreements > 0)
        std::printf("  !! %d verdict disagreements\n", r.disagreements);
}

std::vector<litmus::GeneratedTest>
assembleSuite(prog::Arch arch, bool withProxies)
{
    std::vector<litmus::GeneratedTest> tests =
        litmus::generatePatternSuite(arch, withProxies);
    for (litmus::GeneratedTest &t :
         litmus::generateProgressSuite(arch)) {
        tests.push_back(std::move(t));
    }
    for (prog::Program &program : bench::loadCorpus(arch)) {
        bool proxies = false;
        for (const prog::Thread &t : program.threads) {
            for (const prog::Instruction &ins : t.instrs) {
                proxies = proxies ||
                          ins.op == prog::Opcode::ProxyFence ||
                          (ins.isMemoryAccess() &&
                           ins.proxy != prog::Proxy::Generic);
            }
        }
        if (proxies && !withProxies)
            continue;
        litmus::GeneratedTest test;
        test.name = program.name;
        test.usesProxies = proxies;
        test.isProgress = program.meta.count("liveness") != 0;
        test.program = std::move(program);
        tests.push_back(std::move(test));
    }
    return tests;
}

} // namespace

int
main()
{
    std::printf("Table 5: model validation "
                "(gpumc vs the explicit Alloy-like baseline)\n\n");
    std::printf("%-10s %-10s %7s %8s %5s %7s %12s\n", "MODEL", "TOOL",
                "SAFETY", "LIVENESS", "DRF", "#TESTS", "TIME/TEST ms");

    CsvWriter csv("table5.csv",
                  "model,tool,safety,liveness,drf,tests,time_per_test_ms");

    {
        SuiteResult r = runSuite(assembleSuite(prog::Arch::Ptx, false),
                                 bench::ptx60Model(),
                                 /*alloyExists=*/false);
        printRows("ptx-v6.0", r, false, csv);
    }
    {
        SuiteResult r = runSuite(assembleSuite(prog::Arch::Ptx, true),
                                 bench::ptx75Model(),
                                 /*alloyExists=*/true);
        printRows("ptx-v7.5", r, true, csv);
    }
    {
        SuiteResult r =
            runSuite(assembleSuite(prog::Arch::Vulkan, false),
                     bench::vulkanModel(), /*alloyExists=*/true);
        printRows("vulkan", r, true, csv);
    }

    std::printf("\nFor tests supported by both engines all verdicts "
                "match (disagreements above\nwould be flagged), "
                "mirroring the paper's Table 5 validation.\n");
    return 0;
}
