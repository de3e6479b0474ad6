#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>

#include "core/batch_verifier.hpp"
#include "fuzz/shrinker.hpp"
#include "litmus/litmus_emitter.hpp"
#include "litmus/litmus_parser.hpp"
#include "support/diagnostics.hpp"
#include "support/thread_budget.hpp"

namespace gpumc::fuzz {

namespace {

std::string
hexSeed(uint64_t seed)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(seed));
    return buf;
}

std::string
caseTag(size_t index)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%04zu", index);
    return buf;
}

/** Reproduce-by-hand command for a repro file header. */
std::string
reproCommand(const std::string &file, const std::string &model,
             const char *backend, int bound)
{
    return "gpumc " + file + " " + model + ".cat --backend=" + backend +
           " --bound=" + std::to_string(bound);
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &options)
{
    GPUMC_ASSERT(options.model, "runCampaign without a model");
    const cat::CatModel &model = *options.model;
    const OracleOptions &oracle = options.oracle;
    const int runs = std::max(0, options.runs);

    CampaignResult result;
    std::string &log = result.log;
    log += "campaign model=" + options.modelName +
           " arch=" + prog::archName(options.config.arch) +
           " seed=" + std::to_string(options.seed) +
           " runs=" + std::to_string(runs) +
           " bound=" + std::to_string(oracle.bound);
    if (oracle.z3Bound > 0 && oracle.z3Bound != oracle.bound) {
        log += " z3-bound=" + std::to_string(oracle.effectiveZ3Bound()) +
               " (injected)";
    }
    log += "\n";

    // Phase 1: generate. Sequential so the stream depends only on the
    // seed; deques keep pointers stable for the batch jobs.
    std::deque<prog::Program> programs;
    result.cases.resize(static_cast<size_t>(runs));
    for (int i = 0; i < runs; ++i) {
        result.cases[static_cast<size_t>(i)].caseSeed =
            mixSeed(options.seed, static_cast<uint64_t>(i));
        programs.push_back(randomProgram(
            options.seed, static_cast<uint64_t>(i), options.config));
    }

    // Phase 2: emit + reparse for the round-trip oracle (cheap, no
    // solver involved — sequential keeps it deterministic trivially).
    std::deque<prog::Program> reparsed;
    std::vector<std::string> reparseErrors(static_cast<size_t>(runs));
    std::vector<char> reparseOk(static_cast<size_t>(runs), 0);
    if (oracle.roundTrip) {
        for (int i = 0; i < runs; ++i) {
            const size_t n = static_cast<size_t>(i);
            try {
                reparsed.push_back(litmus::parseLitmus(
                    litmus::emitLitmus(programs[n])));
                reparseOk[n] = 1;
            } catch (const std::exception &error) {
                reparsed.emplace_back();
                reparseErrors[n] = error.what();
            }
        }
    }

    // Phase 3: every engine run of every case as one flat batch
    // through BatchVerifier — this is the campaign fan-out.
    std::vector<OracleSlots> slots(static_cast<size_t>(runs));
    std::vector<core::BatchJob> batch;
    for (int i = 0; i < runs; ++i) {
        const size_t n = static_cast<size_t>(i);
        slots[n] = addOracleJobs(programs[n],
                                 reparseOk[n] ? &reparsed[n] : nullptr,
                                 model, oracle, "case " + caseTag(n),
                                 batch);
    }
    core::BatchVerifier engine(options.jobs);
    const std::vector<core::BatchEntry> entries = engine.run(batch);

    // Phase 4: the session-reuse differential, self-contained per
    // case (shared checkAll() vs fresh sessions on both backends), so
    // it fans out directly instead of going through the batch.
    std::vector<OracleOutcome> reuseOutcomes(static_cast<size_t>(runs));
    if (oracle.sessionReuse) {
        parallelFor(runs, options.jobs, [&](int64_t i) {
            const size_t n = static_cast<size_t>(i);
            reuseOutcomes[n] =
                sessionReuseOracle(programs[n], model, oracle);
        });
    }

    // Phase 5: the clause-sharing differential, likewise
    // self-contained per case (cube-sharing checkAll() vs the
    // sharing-off baseline on the builtin backend); the cube workers
    // draw on the same thread budget as these workers, so --jobs stays
    // a global cap. Sharing makes search timing-dependent, which is
    // exactly what the oracle must show never reaches the verdicts.
    std::vector<OracleOutcome> sharingOutcomes(
        static_cast<size_t>(runs));
    if (oracle.clauseSharing) {
        parallelFor(runs, options.jobs, [&](int64_t i) {
            const size_t n = static_cast<size_t>(i);
            sharingOutcomes[n] =
                clauseSharingOracle(programs[n], model, oracle);
        });
    }

    // Phase 6: compare, sequentially in input order.
    std::vector<size_t> disagreeing;
    for (int i = 0; i < runs; ++i) {
        const size_t n = static_cast<size_t>(i);
        OracleReport report = compareOracles(
            oracleInputs(programs[n], model, slots[n], entries,
                         reparseErrors[n]),
            oracle);
        if (oracle.sessionReuse)
            report.outcomes.push_back(reuseOutcomes[n]);
        if (oracle.clauseSharing)
            report.outcomes.push_back(sharingOutcomes[n]);
        for (const OracleOutcome &o : report.outcomes) {
            result.oracleChecks++;
            switch (o.verdict) {
              case OracleVerdict::Agree:
                result.agreements++;
                break;
              case OracleVerdict::Skipped:
                result.skips++;
                if (o.detail.find("error:") != std::string::npos)
                    result.errors++;
                break;
              case OracleVerdict::Disagree:
                result.disagreements++;
                break;
            }
        }
        if (report.anyDisagreement())
            disagreeing.push_back(n);

        log += "case " + caseTag(n) + " seed=" +
               hexSeed(result.cases[n].caseSeed) + " " +
               report.summary() + "\n";
        result.cases[n].report = std::move(report);
    }

    log += "summary: cases=" + std::to_string(runs) +
           " checks=" + std::to_string(result.oracleChecks) +
           " agree=" + std::to_string(result.agreements) +
           " skip=" + std::to_string(result.skips) +
           " disagree=" + std::to_string(result.disagreements) +
           " errors=" + std::to_string(result.errors) + "\n";

    // Phase 7: shrink the first few disagreeing cases and write repros.
    if (options.shrink) {
        int budget = options.maxShrinks;
        for (size_t n : disagreeing) {
            if (budget-- <= 0)
                break;
            const OracleReport &report = result.cases[n].report;
            const OracleOutcome *bad = nullptr;
            for (const OracleOutcome &o : report.outcomes) {
                if (o.verdict == OracleVerdict::Disagree) {
                    bad = &o;
                    break;
                }
            }
            GPUMC_ASSERT(bad, "disagreeing case without disagreement");

            const OracleKind kind = bad->kind;
            const OracleOptions focus = oracle.only(kind);
            auto stillFails = [&](const prog::Program &candidate) {
                OracleReport r = runOracles(candidate, model, focus);
                const OracleOutcome *o = r.find(kind);
                return o && o->verdict == OracleVerdict::Disagree;
            };

            ShrinkRecord record;
            record.caseIndex = n;
            record.oracle = kind;
            ShrinkOptions so;
            so.maxAttempts = options.shrinkAttempts;
            ShrinkOutcome shrunk =
                shrinkProgram(programs[n], stillFails, so);
            record.initialSize = shrunk.initialSize;
            record.finalSize = shrunk.finalSize;
            log += "shrink case " + caseTag(n) +
                   " oracle=" + oracleName(kind) + " size " +
                   std::to_string(record.initialSize) + " -> " +
                   std::to_string(record.finalSize) + " (" +
                   std::to_string(shrunk.attempts) + " attempts)\n";

            shrunk.program.name = "repro-" + caseTag(n);
            std::string text;
            text += "// gpumc-fuzz repro: oracle " +
                    std::string(oracleName(kind)) + " disagreed\n";
            text += "// " + bad->detail + "\n";
            text += "// campaign seed " + std::to_string(options.seed) +
                    ", case " + caseTag(n) + ", case seed 0x" +
                    hexSeed(result.cases[n].caseSeed) + "\n";
            const std::string fileName =
                shrunk.program.name + "-" + oracleName(kind) + ".litmus";
            if (kind == OracleKind::Z3VsBuiltin) {
                text += "// reproduce: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound) +
                        "\n";
                text += "//       vs: " +
                        reproCommand(fileName, options.modelName, "z3",
                                     oracle.effectiveZ3Bound()) +
                        "\n";
            } else if (kind == OracleKind::BoundMono) {
                text += "// reproduce: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound) +
                        "\n";
                text += "//       vs: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound + 1) +
                        "\n";
            } else if (kind == OracleKind::Dpor ||
                       kind == OracleKind::SmtVsExplicit) {
                text += "// reproduce: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound) +
                        "\n";
                text += "//       vs: gpumc " + fileName + " " +
                        options.modelName + ".cat --engine=" +
                        (kind == OracleKind::Dpor ? "dpor" : "explicit") +
                        "\n";
            } else if (kind == OracleKind::ClauseSharing) {
                text += "// reproduce: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound) +
                        " --all-properties --clause-share=off\n";
                text += "//       vs: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound) +
                        " --all-properties --clause-share=cube "
                        "--cube-depth=2\n";
            } else {
                text += "// reproduce: " +
                        reproCommand(fileName, options.modelName,
                                     "builtin", oracle.bound) +
                        "\n";
            }
            text += litmus::emitLitmus(shrunk.program);

            // Confirm: the repro text, reparsed from scratch, still
            // reproduces the disagreement.
            try {
                prog::Program again = litmus::parseLitmus(text);
                record.confirmed = stillFails(again);
            } catch (const std::exception &) {
                record.confirmed = false;
            }

            if (!options.outDir.empty()) {
                std::filesystem::create_directories(options.outDir);
                const std::string path =
                    (std::filesystem::path(options.outDir) / fileName)
                        .string();
                std::ofstream out(path);
                out << text;
                out.close();
                record.reproPath = path;
                log += std::string("repro ") +
                       (record.confirmed ? "confirmed" : "UNCONFIRMED") +
                       ": " + path + "\n";
            } else {
                log += std::string("repro ") +
                       (record.confirmed ? "confirmed" : "UNCONFIRMED") +
                       " (not written: no --out-dir)\n";
            }
            result.shrinks.push_back(std::move(record));
        }
    }

    return result;
}

} // namespace gpumc::fuzz
