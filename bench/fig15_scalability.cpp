/**
 * @file
 * Reproduces the paper's Fig. 15: scalability of gpumc (Dartagnan
 * role) vs the explicit-state baseline (Alloy role) on growing
 * MP / SB / LB / IRIW litmus tests. The baseline blows up
 * exponentially and times out early; gpumc grows polynomially.
 *
 * Output: one CSV per pattern (MP.csv, SB.csv, LB.csv, IRIW.csv) with
 * the series threads,gpumc_ms,alloy_ms (-1 = timeout), plus a console
 * table. Each time is the median of three runs; the baseline times out
 * at a point when at least two of its three runs exceed the budget.
 */

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench/bench_util.hpp"
#include "litmus/generator.hpp"

using namespace gpumc;

namespace {

constexpr int64_t kBaselineTimeoutMs = 15000;
constexpr int kRuns = 3;

/**
 * Median safety-check time over kRuns runs. A run cut by its budget
 * counts as infinitely slow, so the median is infinite (and the
 * remaining runs are skipped) once most runs were cut.
 */
double
medianMs(const prog::Program &program, const cat::CatModel &model,
         const core::VerifierOptions &options)
{
    constexpr double kCut = std::numeric_limits<double>::infinity();
    std::vector<double> ms;
    for (int run = 0; run < kRuns; ++run) {
        core::VerificationResult result =
            core::Verifier(program, model, options).checkSafety();
        ms.push_back(result.unknown ? kCut : result.timeMs);
        if (std::count(ms.begin(), ms.end(), kCut) > kRuns / 2)
            return kCut;
    }
    std::sort(ms.begin(), ms.end());
    return ms[kRuns / 2];
}

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
        double gpumcMs = medianMs(program, model, options);

        double alloyMs = -1;
        if (baselineAlive) {
            options.engine = core::Engine::Explicit;
            options.solverTimeoutMs = kBaselineTimeoutMs;
            double ms = medianMs(program, model, options);
            if (!std::isinf(ms)) {
                alloyMs = ms;
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
    std::printf("Fig. 15: scalability sweep (median of %d runs, baseline "
                "timeout %llds)\n",
                kRuns, static_cast<long long>(kBaselineTimeoutMs / 1000));

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
