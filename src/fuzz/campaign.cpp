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

/** The gpumc command line that runs @p side on a repro file. */
std::string
gpumcCommand(const std::string &file, const std::string &model,
             const OracleSide &side)
{
    const core::VerifierOptions &vo = side.options;
    std::string out = "gpumc " + file + " " + model + ".cat";
    if (vo.engine != core::Engine::Smt) {
        out += vo.engine == core::Engine::Dpor ? " --engine=dpor"
                                               : " --engine=explicit";
    } else {
        out += vo.backend == smt::BackendKind::Z3 ? " --backend=z3"
                                                  : " --backend=builtin";
        out += " --bound=" + std::to_string(vo.bound);
        if (vo.cubeDepth > 0)
            out += " --cube-depth=" + std::to_string(vo.cubeDepth);
        if (vo.clauseShare == smt::ClauseShareMode::Cube)
            out += " --clause-share=cube";
    }
    if (side.properties.size() > 1 && !side.fresh)
        out += " --all-properties";
    return out;
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

    // Phase 1: generate, and emit and reparse for the round-trip
    // oracle. Sequential so the stream depends only on the seed; deques
    // keep pointers stable for the batch jobs.
    std::deque<prog::Program> programs, reparsed;
    std::vector<std::string> reparseErrors(static_cast<size_t>(runs));
    result.cases.resize(static_cast<size_t>(runs));
    for (int i = 0; i < runs; ++i) {
        const size_t n = static_cast<size_t>(i);
        result.cases[n].caseSeed =
            mixSeed(options.seed, static_cast<uint64_t>(i));
        programs.push_back(randomProgram(
            options.seed, static_cast<uint64_t>(i), options.config));
        reparseErrors[n] = reparse(programs[n], reparsed.emplace_back());
    }

    // Phase 2: every run of every case's oracles, fanned out as one
    // BatchVerifier batch (plus session-reuse's fresh Verifiers).
    const std::vector<Oracle> oracles = makeOracles(oracle, model);
    std::vector<std::vector<Oracle>> caseOracles(static_cast<size_t>(runs),
                                                 oracles);
    OracleJobs jobs;
    for (int i = 0; i < runs; ++i) {
        const size_t n = static_cast<size_t>(i);
        addOracleJobs(programs[n],
                      reparseErrors[n].empty() ? &reparsed[n] : nullptr,
                      model, caseOracles[n], "case " + caseTag(n), jobs);
    }
    const std::vector<core::BatchEntry> entries = jobs.run(options.jobs);

    // Phase 3: compare, sequentially in input order.
    std::vector<size_t> disagreeing;
    for (int i = 0; i < runs; ++i) {
        const size_t n = static_cast<size_t>(i);
        OracleReport report = compareOracles(programs[n], caseOracles[n],
                                             entries, reparseErrors[n]);
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

    // Phase 4: shrink the first few disagreeing cases and write repros.
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
            auto stillFails = [&](const prog::Program &candidate) {
                OracleReport r = runOracles(candidate, model, oracle, kind);
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
            for (const Oracle &o : oracles) {
                if (o.kind != kind)
                    continue;
                for (const auto &[reference, variant] : o.pairs) {
                    const std::string ref = gpumcCommand(
                        fileName, options.modelName, reference);
                    const std::string var = gpumcCommand(
                        fileName, options.modelName, variant);
                    text += "// reproduce: " + ref + "\n";
                    if (var != ref)
                        text += "//       vs: " + var + "\n";
                }
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
