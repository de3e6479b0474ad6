/**
 * @file
 * Reproduces the paper's Fig. 15: scalability of gpumc (Dartagnan
 * role) vs the explicit-state baseline (Alloy role) on growing
 * MP / SB / LB / IRIW litmus tests. The baseline blows up
 * exponentially and times out early; gpumc grows polynomially.
 *
 * Output: one CSV per pattern (MP.csv, SB.csv, LB.csv, IRIW.csv) with
 * the series threads,gpumc_ms,alloy_ms (-1 = timeout), plus a console
 * table.
 */

#include "bench/bench_util.hpp"
#include "litmus/generator.hpp"

using namespace gpumc;

namespace {

constexpr int64_t kBaselineTimeoutMs = 15000;

void
sweep(litmus::ScaledPattern pattern, prog::Arch arch,
      const cat::CatModel &model, const std::vector<int> &threadCounts)
{
    const char *name = litmus::scaledPatternName(pattern);
    bench::CsvWriter csv(std::string(name) + ".csv",
                         "threads,gpumc_ms,alloy_ms");
    std::printf("\n%s (%s)\n", name, prog::archName(arch));
    std::printf("%8s %12s %12s\n", "threads", "gpumc ms", "alloy ms");

    bool baselineAlive = true;
    for (int threads : threadCounts) {
        prog::Program program =
            litmus::generateScaled(pattern, arch, threads);

        core::VerifierOptions options;
        options.wantWitness = false;
        core::Verifier verifier(program, model, options);
        double gpumcMs = verifier.checkSafety().timeMs;

        double alloyMs = -1;
        if (baselineAlive) {
            options.engine = core::Engine::Explicit;
            options.solverTimeoutMs = kBaselineTimeoutMs;
            core::VerificationResult result =
                core::Verifier(program, model, options).checkSafety();
            if (!result.unknown) {
                alloyMs = result.timeMs;
            } else {
                baselineAlive = false; // it only gets worse
            }
        }

        if (alloyMs >= 0) {
            std::printf("%8d %12.1f %12.1f\n", threads, gpumcMs,
                        alloyMs);
        } else {
            std::printf("%8d %12.1f %12s\n", threads, gpumcMs,
                        "timeout");
        }
        csv.row(threads, gpumcMs, alloyMs);
    }
}

} // namespace

int
main()
{
    std::printf("Fig. 15: scalability sweep (baseline timeout %llds)\n",
                static_cast<long long>(kBaselineTimeoutMs / 1000));

    std::vector<int> counts = {2, 4, 6, 8, 10, 12, 16, 20, 24};
    std::vector<int> iriwCounts = {4, 6, 8, 10, 12, 16, 20, 24};

    sweep(litmus::ScaledPattern::MP, prog::Arch::Ptx,
          bench::ptx75Model(), counts);
    sweep(litmus::ScaledPattern::SB, prog::Arch::Ptx,
          bench::ptx75Model(), counts);
    sweep(litmus::ScaledPattern::LB, prog::Arch::Vulkan,
          bench::vulkanModel(), counts);
    sweep(litmus::ScaledPattern::IRIW, prog::Arch::Vulkan,
          bench::vulkanModel(), iriwCounts);

    std::printf("\nThe baseline's running time grows exponentially "
                "with the thread count while\ngpumc's grows "
                "polynomially — the Fig. 15 shape.\n");
    return 0;
}
