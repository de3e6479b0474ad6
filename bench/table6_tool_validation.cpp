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
 * --session-bench runs a different comparison on the same corpus:
 * every kernel is checked for all three properties (program spec,
 * liveness, DRF) twice — once with a fresh pipeline per query and once
 * on shared incremental sessions — verifying that the verdicts are
 * identical and recording the phase-time savings in
 * BENCH_session_reuse.json.
 *
 * --serve-bench drives the corpus through an in-process gpumc-serve
 * Engine twice: a cold pass that populates the fingerprint result
 * cache and a warm pass that re-sends the identical request lines.
 * Every warm response must be a cache hit with a verdict byte-equal to
 * its cold twin, and the warm pass must be >= 10x faster; results land
 * in BENCH_serve.json.
 *
 * --engine-bench races the three verification engines — the SMT
 * verifier (builtin backend), the DPOR stateless model checker
 * (src/dpor) and the explicit-state enumerator (src/explicit) — on a
 * corpus mixing PTX straight-line multi-writer stress tests (where the
 * candidate space explodes combinatorially) with Vulkan kernels from
 * the table corpus (including a control-flow kernel both enumerative
 * engines must decline). Verdicts of every engine that completes must
 * agree, DPOR must never evaluate more candidates than the explicit
 * baseline, and the point of the exercise lands in
 * BENCH_engines.json: the largest stress tests exhaust the explicit
 * enumerator's budget while DPOR still finishes.
 *
 * --smoke trims the corpus to two kernels so a bench entry can run in
 * seconds inside the test suite (for --engine-bench it shrinks the
 * stress sizes and budgets instead). Any other argument is rejected
 * with exit code 2.
 */

#include <deque>

#include "bench/bench_util.hpp"
#include "core/batch_verifier.hpp"
#include "dpor/dpor_checker.hpp"
#include "gpuverify/static_drf.hpp"
#include "kernels/sync_kernels.hpp"
#include "litmus/litmus_emitter.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"
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

/** Phase/solver totals of one fresh-vs-shared bench pass. */
struct SessionBenchPass {
    double wallMs = 0;
    double unrollMs = 0;
    double analysisMs = 0;
    double encodeMs = 0;
    double solveMs = 0;
    int64_t sessionsBuilt = 0;
    int64_t sessionsReused = 0;
};

/**
 * Fresh-vs-shared session comparison: all three properties per kernel,
 * once with shareSession=false (one pipeline per query) and once with
 * shareSession=true (one pipeline per kernel). Writes
 * BENCH_session_reuse.json; fails if any verdict differs between the
 * two modes.
 */
int
runSessionBench(const std::vector<Kernel> &corpus, unsigned jobs)
{
    core::VerifierOptions options;
    options.wantWitness = false;
    const core::Property props[] = {core::Property::Safety,
                                    core::Property::Liveness,
                                    core::Property::CatSpec};
    const char *propNames[] = {"safety", "liveness", "catspec"};

    auto buildBatch = [&](bool share) {
        std::vector<core::BatchJob> batch;
        for (const Kernel &kernel : corpus) {
            if (kernel.usesFloat)
                continue;
            for (size_t p = 0; p < 3; ++p) {
                core::BatchJob job;
                job.program = &kernel.program;
                job.model = &bench::vulkanModel();
                job.property = props[p];
                job.options = options;
                job.shareSession = share;
                job.label = kernel.name + " " + propNames[p];
                batch.push_back(std::move(job));
            }
        }
        return batch;
    };

    core::BatchVerifier engine(jobs);
    auto runPass = [&](bool share, std::vector<core::BatchEntry> &out) {
        std::vector<core::BatchJob> batch = buildBatch(share);
        Stopwatch wall;
        out = engine.run(batch);
        SessionBenchPass pass;
        pass.wallMs = wall.elapsedMs();
        for (const core::BatchEntry &entry : out) {
            if (entry.failed) {
                std::fprintf(stderr, "gpumc failed on %s: %s\n",
                             entry.label.c_str(), entry.error.c_str());
                std::exit(1);
            }
            const StatsRegistry &stats = entry.result.stats;
            pass.unrollMs += stats.get("phaseUnrollUs") / 1000.0;
            pass.analysisMs += stats.get("phaseAnalysisUs") / 1000.0;
            pass.encodeMs += stats.get("phaseEncodeUs") / 1000.0;
            pass.solveMs += stats.get("phaseSolveUs") / 1000.0;
            pass.sessionsBuilt += stats.get("sessionsBuilt");
            pass.sessionsReused += stats.get("sessionsReused");
        }
        return pass;
    };

    std::vector<core::BatchEntry> freshEntries, sharedEntries;
    SessionBenchPass fresh = runPass(false, freshEntries);
    SessionBenchPass shared = runPass(true, sharedEntries);

    bool identical = freshEntries.size() == sharedEntries.size();
    std::string firstMismatch;
    for (size_t i = 0; identical && i < freshEntries.size(); ++i) {
        const core::VerificationResult &a = freshEntries[i].result;
        const core::VerificationResult &b = sharedEntries[i].result;
        if (a.holds != b.holds || a.unknown != b.unknown ||
            a.detail != b.detail) {
            identical = false;
            firstMismatch = freshEntries[i].label;
        }
    }

    const double freshPipeline =
        fresh.unrollMs + fresh.analysisMs + fresh.encodeMs;
    const double sharedPipeline =
        shared.unrollMs + shared.analysisMs + shared.encodeMs;
    std::printf("Session-reuse bench: %zu queries over %zu kernels "
                "(3 properties each)\n\n",
                freshEntries.size(), freshEntries.size() / 3);
    std::printf("%-8s %10s %10s %10s %10s %10s %8s %8s\n", "MODE",
                "unroll ms", "analys ms", "encode ms", "solve ms",
                "wall ms", "built", "reused");
    std::printf("%-8s %10.1f %10.1f %10.1f %10.1f %10.1f %8lld %8lld\n",
                "fresh", fresh.unrollMs, fresh.analysisMs, fresh.encodeMs,
                fresh.solveMs, fresh.wallMs,
                static_cast<long long>(fresh.sessionsBuilt),
                static_cast<long long>(fresh.sessionsReused));
    std::printf("%-8s %10.1f %10.1f %10.1f %10.1f %10.1f %8lld %8lld\n",
                "shared", shared.unrollMs, shared.analysisMs,
                shared.encodeMs, shared.solveMs, shared.wallMs,
                static_cast<long long>(shared.sessionsBuilt),
                static_cast<long long>(shared.sessionsReused));
    std::printf("\npipeline (unroll+analysis+encode): %.1f ms fresh vs "
                "%.1f ms shared (%.0f%% saved)\n",
                freshPipeline, sharedPipeline,
                freshPipeline > 0
                    ? 100.0 * (1.0 - sharedPipeline / freshPipeline)
                    : 0.0);
    std::printf("verdicts: %s\n",
                identical ? "identical between modes"
                          : ("MISMATCH at " + firstMismatch).c_str());

    std::string mismatchJson =
        identical ? "null" : jsonString(firstMismatch);

    std::ofstream json("BENCH_session_reuse.json");
    auto passJson = [&](const char *name, const SessionBenchPass &pass) {
        json << "  " << jsonString(name) << ": {\"wallMs\": " << pass.wallMs
             << ", \"unrollMs\": " << pass.unrollMs
             << ", \"analysisMs\": " << pass.analysisMs
             << ", \"encodeMs\": " << pass.encodeMs
             << ", \"solveMs\": " << pass.solveMs
             << ", \"pipelineMs\": "
             << pass.unrollMs + pass.analysisMs + pass.encodeMs
             << ", \"sessionsBuilt\": " << pass.sessionsBuilt
             << ", \"sessionsReused\": " << pass.sessionsReused << "}";
    };
    json << "{\n  \"queries\": " << freshEntries.size()
         << ",\n  \"kernels\": " << freshEntries.size() / 3
         << ",\n  \"jobs\": " << engine.jobs() << ",\n";
    passJson("fresh", fresh);
    json << ",\n";
    passJson("shared", shared);
    json << ",\n  \"pipelineSavedFraction\": "
         << (freshPipeline > 0 ? 1.0 - sharedPipeline / freshPipeline
                               : 0.0)
         << ",\n  \"encodeSavedFraction\": "
         << (fresh.encodeMs > 0 ? 1.0 - shared.encodeMs / fresh.encodeMs
                                : 0.0)
         << ",\n  \"verdictsIdentical\": "
         << (identical ? "true" : "false")
         << ",\n  \"firstMismatch\": " << mismatchJson << "\n}\n";
    json.close();
    std::printf("(writing BENCH_session_reuse.json)\n");

    return identical ? 0 : 1;
}

/** One pass (cold or warm) of the serve bench request list. */
struct ServeBenchPass {
    double wallMs = 0;
    size_t cacheHits = 0;
    /** holds/unknown/detail per query, serialized for comparison. */
    std::vector<std::string> verdicts;
};

/**
 * Warm-cache serving comparison: every (kernel, property) query is
 * sent to an in-process serve::Engine as the wire-format JSON request,
 * twice. The cold pass builds sessions and solves; the warm pass —
 * byte-identical request lines — must answer every query from the
 * fingerprint result cache with the same verdict, >= 10x faster in
 * aggregate. Writes BENCH_serve.json; fails on any verdict mismatch,
 * any warm miss, or a speedup below 10x.
 */
int
runServeBench(const std::vector<Kernel> &corpus, unsigned jobs)
{
    const char *propNames[] = {"program_spec", "liveness", "cat_spec"};

    serve::EngineOptions engineOptions;
#ifdef GPUMC_CAT_DIR
    engineOptions.catDir = GPUMC_CAT_DIR;
#endif
    engineOptions.jobs = jobs;
    serve::Engine engine(engineOptions);

    std::vector<std::string> labels;
    std::vector<std::string> lines;
    for (const Kernel &kernel : corpus) {
        if (kernel.usesFloat)
            continue;
        std::string source = litmus::emitLitmus(kernel.program);
        for (const char *prop : propNames) {
            labels.push_back(kernel.name + " " + prop);
            lines.push_back("{\"id\":" + std::to_string(lines.size()) +
                            ",\"litmus\":" + jsonString(source) +
                            ",\"model\":\"vulkan\",\"property\":\"" +
                            prop + "\",\"backend\":\"builtin\"}");
        }
    }

    bool responsesOk = true;
    std::string firstBadResponse;
    auto runPass = [&]() {
        ServeBenchPass pass;
        Stopwatch wall;
        for (size_t i = 0; i < lines.size(); ++i) {
            // handleSync waits for each response, so by the time a
            // request repeats, its first verdict is in the cache.
            std::string response = engine.handleSync(lines[i]);
            std::string error;
            JsonValue doc = parseJson(response, error);
            const JsonValue *status =
                error.empty() ? doc.find("status") : nullptr;
            if (!status || !status->isString() ||
                status->text != "ok") {
                if (responsesOk) {
                    responsesOk = false;
                    firstBadResponse = labels[i] + ": " + response;
                }
                pass.verdicts.push_back("bad-response");
                continue;
            }
            const JsonValue *holds = doc.find("holds");
            const JsonValue *unknown = doc.find("unknown");
            const JsonValue *detail = doc.find("detail");
            std::string verdict;
            verdict += holds && holds->boolean ? "holds(" : "fails(";
            if (unknown && unknown->boolean)
                verdict = "unknown(";
            verdict += detail && detail->isString() ? detail->text : "";
            verdict += ")";
            pass.verdicts.push_back(verdict);
            const JsonValue *cache = doc.find("cache");
            if (cache && cache->isString() && cache->text == "hit")
                pass.cacheHits++;
        }
        pass.wallMs = wall.elapsedMs();
        return pass;
    };

    ServeBenchPass cold = runPass();
    ServeBenchPass warm = runPass();

    bool identical = responsesOk;
    std::string firstMismatch = firstBadResponse;
    for (size_t i = 0; identical && i < labels.size(); ++i) {
        if (cold.verdicts[i] != warm.verdicts[i]) {
            identical = false;
            firstMismatch = labels[i];
        }
    }
    bool allWarmHits = warm.cacheHits == labels.size();
    double speedup =
        warm.wallMs > 0 ? cold.wallMs / warm.wallMs : 0.0;
    bool fastEnough = speedup >= 10.0;

    // The engine's own counters cross-check the per-response flags.
    std::string metricsLine =
        engine.handleSync("{\"op\":\"metrics\"}");
    std::string metricsError;
    JsonValue metrics = parseJson(metricsLine, metricsError);
    int64_t cacheHits = 0, cacheMisses = 0;
    if (metricsError.empty()) {
        if (const JsonValue *rc = metrics.find("result_cache")) {
            if (const JsonValue *v = rc->find("hits"))
                cacheHits = v->asInt();
            if (const JsonValue *v = rc->find("misses"))
                cacheMisses = v->asInt();
        }
    }

    std::printf("Serve bench: %zu queries over %zu kernels "
                "(3 properties each)\n\n",
                labels.size(), labels.size() / 3);
    std::printf("%-6s %12s %12s\n", "PASS", "wall ms", "cache hits");
    std::printf("%-6s %12.1f %9zu/%zu\n", "cold", cold.wallMs,
                cold.cacheHits, labels.size());
    std::printf("%-6s %12.1f %9zu/%zu\n", "warm", warm.wallMs,
                warm.cacheHits, labels.size());
    std::printf("\nwarm-cache speedup: %.1fx (threshold 10x)\n",
                speedup);
    std::printf("result cache: %lld hits, %lld misses\n",
                static_cast<long long>(cacheHits),
                static_cast<long long>(cacheMisses));
    std::printf("verdicts: %s\n",
                identical ? "identical between passes"
                          : ("MISMATCH at " + firstMismatch).c_str());
    if (!allWarmHits)
        std::printf("FAIL: %zu warm queries missed the cache\n",
                    labels.size() - warm.cacheHits);
    if (!fastEnough)
        std::printf("FAIL: warm pass not >= 10x faster than cold\n");

    std::ofstream json("BENCH_serve.json");
    json << "{\n  \"queries\": " << labels.size()
         << ",\n  \"kernels\": " << labels.size() / 3
         << ",\n  \"coldMs\": " << cold.wallMs
         << ",\n  \"warmMs\": " << warm.wallMs
         << ",\n  \"speedup\": " << speedup
         << ",\n  \"warmCacheHits\": " << warm.cacheHits
         << ",\n  \"resultCacheHits\": " << cacheHits
         << ",\n  \"resultCacheMisses\": " << cacheMisses
         << ",\n  \"verdictsIdentical\": "
         << (identical ? "true" : "false")
         << ",\n  \"firstMismatch\": "
         << (identical ? "null" : jsonString(firstMismatch)) << "\n}\n";
    json.close();
    std::printf("(writing BENCH_serve.json)\n");

    return identical && allWarmHits && fastEnough ? 0 : 1;
}

/** One engine's view of one engine-bench case. */
struct EngineRunRecord {
    bool supported = true;
    std::string unsupportedReason;
    bool timedOut = false;
    bool conditionHolds = false;
    bool raceFound = false;
    uint64_t candidates = 0;
    double ms = 0;
};

struct EngineBenchCase {
    std::string name;
    const prog::Program *program = nullptr;
    const cat::CatModel *model = nullptr;
};

/** PTX stress test: `writers` threads each storing to x and y, one
 *  reader of both — the candidate space (rf choices x canonical
 *  partial coherence per location) explodes combinatorially. */
prog::Program
makeMultiWriter(int writers, bool forallTrue)
{
    std::string header, rowX, rowY;
    for (int t = 0; t <= writers; ++t) {
        const std::string sep = t ? " | " : "";
        const std::string v = std::to_string(t + 1);
        header += sep + "P" + std::to_string(t) + "@cta 0,gpu 0";
        if (t < writers) {
            rowX += sep + "st.weak x, " + v;
            rowY += sep + "st.weak y, " + v;
        } else {
            rowX += sep + "ld.weak r0, x";
            rowY += sep + "ld.weak r1, y";
        }
    }
    const std::string reader = "P" + std::to_string(writers);
    std::string condition =
        forallTrue ? "forall (true)"
                   : "exists (" + reader + ":r0 == 1 /\\ " + reader +
                         ":r1 == 2)";
    return litmus::parseLitmus("PTX\n" + header + " ;\n" + rowX +
                               " ;\n" + rowY + " ;\n" + condition + "\n");
}

/**
 * Three-way engine comparison: SMT (builtin backend) vs the DPOR
 * stateless model checker vs the explicit-state enumerator, on PTX
 * multi-writer stress tests plus Vulkan kernels from the table corpus.
 * Writes BENCH_engines.json; fails if any completed engine disagrees
 * with the SMT verdict or if DPOR ever evaluates more candidates than
 * the explicit baseline on a case both complete.
 */
int
runEngineBench(const std::vector<Kernel> &corpus, bool smoke)
{
    // The enumerative budgets are deliberately sized so the largest
    // stress test exhausts the explicit enumerator (its full candidate
    // space is in the millions) while DPOR's pruning and early
    // stopping keep it comfortably inside the same budget.
    const uint64_t maxCandidates = smoke ? 20000 : 300000;
    const double enumTimeoutMs = smoke ? 5000 : 15000;

    std::vector<EngineBenchCase> cases;
    std::deque<prog::Program> owned; // stable addresses for the cases
    auto addPtx = [&](int writers, bool forallTrue) {
        EngineBenchCase c;
        c.name = "ptx-mw" + std::to_string(writers) +
                 (forallTrue ? "-forall" : "-exists");
        owned.push_back(makeMultiWriter(writers, forallTrue));
        c.program = &owned.back();
        c.model = &bench::ptx75Model();
        cases.push_back(std::move(c));
    };
    addPtx(2, false);
    if (!smoke)
        addPtx(3, false);
    addPtx(smoke ? 2 : 3, true);
    addPtx(4, false); // the explicit-budget breaker
    for (const Kernel &kernel : corpus) {
        // One straight-line racy kernel (all engines complete) and one
        // control-flow kernel (the enumerative engines must decline).
        if (startsWith(kernel.name, "missing-barrier-2") ||
            startsWith(kernel.name, "flag-handshake-2")) {
            EngineBenchCase c;
            c.name = kernel.name;
            c.program = &kernel.program;
            c.model = &bench::vulkanModel();
            cases.push_back(std::move(c));
        }
    }

    struct CaseResult {
        EngineRunRecord smt, dpor, explicitRun;
        bool flagged = false;
    };
    std::vector<CaseResult> results;
    bool agree = true, candidateOrderOk = true;
    std::string firstProblem;
    size_t dporBeatsExplicitTimeout = 0;

    for (const EngineBenchCase &c : cases) {
        CaseResult r;
        r.flagged = c.model->hasFlaggedAxioms();

        {
            Stopwatch clock;
            core::VerifierOptions vo;
            vo.wantWitness = false;
            core::Verifier verifier(*c.program, *c.model, vo);
            core::VerificationResult safety =
                verifier.check(core::Property::Safety);
            r.smt.conditionHolds = safety.holds;
            r.smt.timedOut = safety.unknown;
            if (r.flagged) {
                core::VerificationResult drf =
                    verifier.check(core::Property::CatSpec);
                r.smt.raceFound = !drf.holds;
                r.smt.timedOut = r.smt.timedOut || drf.unknown;
            }
            r.smt.ms = clock.elapsedMs();
        }
        {
            dpor::DporOptions dopts;
            dopts.maxCandidates = maxCandidates;
            dopts.timeoutMs = enumTimeoutMs;
            dpor::DporChecker checker(*c.program, *c.model, dopts);
            dpor::DporResult res = checker.run();
            r.dpor = {res.supported,       res.unsupportedReason,
                      res.timedOut,        res.conditionHolds,
                      res.raceFound,       res.candidatesExplored,
                      res.timeMs};
        }
        {
            expl::ExplicitOptions eo;
            eo.maxCandidates = maxCandidates;
            eo.timeoutMs = enumTimeoutMs;
            expl::ExplicitChecker checker(*c.program, *c.model, eo);
            expl::ExplicitResult res = checker.run();
            r.explicitRun = {res.supported,       res.unsupportedReason,
                             res.timedOut,        res.conditionHolds,
                             res.raceFound,       res.candidatesExplored,
                             res.timeMs};
        }

        auto checkAgainstSmt = [&](const EngineRunRecord &run,
                                   const char *who) {
            if (!run.supported || run.timedOut || r.smt.timedOut)
                return;
            if (run.conditionHolds != r.smt.conditionHolds ||
                (r.flagged && run.raceFound != r.smt.raceFound)) {
                if (agree) {
                    agree = false;
                    firstProblem = c.name + ": " + who +
                                   " disagrees with smt";
                }
            }
        };
        checkAgainstSmt(r.dpor, "dpor");
        checkAgainstSmt(r.explicitRun, "explicit");
        if (r.dpor.supported && !r.dpor.timedOut &&
            r.explicitRun.supported && !r.explicitRun.timedOut &&
            r.dpor.candidates > r.explicitRun.candidates &&
            candidateOrderOk) {
            candidateOrderOk = false;
            firstProblem =
                c.name + ": dpor explored more candidates than explicit";
        }
        if (r.dpor.supported && !r.dpor.timedOut &&
            r.explicitRun.supported && r.explicitRun.timedOut) {
            dporBeatsExplicitTimeout++;
        }
        results.push_back(std::move(r));
    }

    std::printf("Engine bench: %zu cases, enumerative budget %llu "
                "candidates / %.0f ms\n\n",
                cases.size(),
                static_cast<unsigned long long>(maxCandidates),
                enumTimeoutMs);
    std::printf("%-24s %-18s %-28s %-28s\n", "CASE", "smt", "dpor",
                "explicit");
    auto cell = [](const EngineRunRecord &run, bool withCandidates) {
        if (!run.supported)
            return std::string("unsupported");
        if (run.timedOut)
            return "TIMEOUT(" + std::to_string(run.candidates) + ")";
        std::string s = run.conditionHolds ? "holds" : "fails";
        if (withCandidates)
            s += "/" + std::to_string(run.candidates);
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.1fms", run.ms);
        return s + buf;
    };
    for (size_t i = 0; i < cases.size(); ++i) {
        const CaseResult &r = results[i];
        std::printf("%-24s %-18s %-28s %-28s\n", cases[i].name.c_str(),
                    cell(r.smt, false).c_str(),
                    cell(r.dpor, true).c_str(),
                    cell(r.explicitRun, true).c_str());
    }
    std::printf("\ncases where dpor completed but explicit exhausted "
                "its budget: %zu\n",
                dporBeatsExplicitTimeout);
    std::printf("verdicts: %s\n",
                agree && candidateOrderOk
                    ? "every completed engine agrees with smt"
                    : ("PROBLEM: " + firstProblem).c_str());

    std::ofstream json("BENCH_engines.json");
    auto runJson = [&](const char *name, const EngineRunRecord &run) {
        json << "\"" << name << "\": {\"supported\": "
             << (run.supported ? "true" : "false");
        if (!run.supported) {
            json << ", \"reason\": " << jsonString(run.unsupportedReason)
                 << "}";
            return;
        }
        json << ", \"timedOut\": " << (run.timedOut ? "true" : "false")
             << ", \"holds\": " << (run.conditionHolds ? "true" : "false")
             << ", \"raceFound\": " << (run.raceFound ? "true" : "false")
             << ", \"candidates\": " << run.candidates
             << ", \"ms\": " << run.ms << "}";
    };
    json << "{\n  \"cases\": [\n";
    for (size_t i = 0; i < cases.size(); ++i) {
        const CaseResult &r = results[i];
        json << "    {\"name\": " << jsonString(cases[i].name) << ", ";
        runJson("smt", r.smt);
        json << ", ";
        runJson("dpor", r.dpor);
        json << ", ";
        runJson("explicit", r.explicitRun);
        json << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"maxCandidates\": " << maxCandidates
         << ",\n  \"timeoutMs\": " << enumTimeoutMs
         << ",\n  \"dporCompletedWhereExplicitTimedOut\": "
         << dporBeatsExplicitTimeout
         << ",\n  \"verdictsAgree\": " << (agree ? "true" : "false")
         << ",\n  \"dporNeverExploresMore\": "
         << (candidateOrderOk ? "true" : "false")
         << ",\n  \"firstProblem\": "
         << (agree && candidateOrderOk ? "null"
                                       : jsonString(firstProblem))
         << "\n}\n";
    json.close();
    std::printf("(writing BENCH_engines.json)\n");

    return agree && candidateOrderOk ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // hardware concurrency
    bool sessionBench = false;
    bool serveBench = false;
    bool engineBench = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (startsWith(arg, "--jobs=")) {
            std::optional<int64_t> n = parseInt(arg.substr(7));
            if (!n || *n < 1) {
                std::fprintf(stderr, "invalid --jobs value\n");
                return 2;
            }
            jobs = static_cast<unsigned>(*n);
        } else if (arg == "--session-bench") {
            sessionBench = true;
        } else if (arg == "--serve-bench") {
            serveBench = true;
        } else if (arg == "--engine-bench") {
            engineBench = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else {
            std::fprintf(stderr,
                         "table6_tool_validation: unknown argument "
                         "'%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    std::vector<Kernel> corpus = generateKernelCorpus();
    // The engine bench scales itself down under --smoke (smaller
    // stress sizes and budgets) and picks its own kernels, so it runs
    // on the untrimmed corpus.
    if (engineBench)
        return runEngineBench(corpus, smoke);
    if (smoke) {
        // --smoke: keep only the first two gpumc-supported kernels so
        // a bench entry finishes in seconds inside the test suite.
        std::vector<Kernel> trimmed;
        for (Kernel &kernel : corpus) {
            if (kernel.usesFloat)
                continue;
            trimmed.push_back(std::move(kernel));
            if (trimmed.size() == 2)
                break;
        }
        corpus = std::move(trimmed);
    }

    if (sessionBench)
        return runSessionBench(corpus, jobs);
    if (serveBench)
        return runServeBench(corpus, jobs);

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
    std::printf("\nBoth disagreement categories match Section 7.3 of "
                "the paper.\n");
    return 0;
}
