/**
 * @file
 * gpumc-corpus: batch-run every litmus test under a directory against
 * the shipped models, check `@expect` directives, and summarize — the
 * CLI counterpart of the corpus regression suite. Run it without
 * arguments for the flag list. A test's `@config bound=N` key
 * overrides --bound for that file.
 *
 * With --server the tool becomes a thin client of a running
 * gpumc-serve daemon: every query is sent as a line-delimited JSON
 * verify request and the verdict comes from the server (typically its
 * warm fingerprint cache), with identical reporting and exit codes.
 * Per-query pipeline stats are not available in this mode.
 *
 * Queries (one per file x model x property expectation) are fanned out
 * across worker threads by core::BatchVerifier, under every engine;
 * queries of one file against one model share a live session (the
 * SMT pipeline, or the DPOR/explicit exploration, runs once per file x
 * model), and results are reported in deterministic input order
 * regardless of --jobs. Verdicts:
 *   ok      verifier result matches the @expect directive
 *   FAIL    verifier result contradicts the directive
 *   UNKN    no verdict, not a FAIL: the budget ran out, or the engine
 *           cannot answer the query (liveness, or a program outside
 *           the DPOR/explicit fragment)
 *   ERROR   the file could not be parsed / verified
 */

#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cat/model.hpp"
#include "core/batch_verifier.hpp"
#include "litmus/litmus_parser.hpp"
#include "program/unroller.hpp"
#include "serve/protocol.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"

using namespace gpumc;
namespace fs = std::filesystem;

namespace {

struct CliOptions {
    std::string dir;
    core::VerifierOptions verifier;
    unsigned jobs = 0; // 0 = hardware concurrency
    bool jsonToStdout = false;
    std::string jsonPath;
    std::string server; // HOST:PORT or unix:PATH; empty = run locally
};

/** One expectation check, pointing at its BatchJob/BatchEntry index. */
struct Query {
    std::string kind;     // "safety" | "live" | "drf"
    std::string modelTag; // "v60" | "v75" | "vulkan"
    bool expectedHolds = false;
    std::string expectedText; // the raw @expect value, for reports
};

/** Per-file report: either an error, or a slice of the query list. */
struct FileReport {
    std::string file;
    std::string error;       // non-empty: parsing/metadata failed
    size_t firstQuery = 0;   // index into the flat query/job vectors
    size_t numQueries = 0;
    int runsWithoutExpectations = 0;
};

CliOptions
parseArgs(cli::Parser &cli, int argc, char **argv)
{
    CliOptions opts;
    core::addVerifierFlags(cli, opts.verifier);
    cli.jobs(opts.jobs);
    cli.text("json", "FILE",
             "machine-readable report to stdout (sole output)\n"
             "or FILE",
             opts.jsonPath, &opts.jsonToStdout);
    cli.text("server", "HOST:PORT|unix:PATH",
             "send every query to a running gpumc-serve\n"
             "daemon instead of verifying locally",
             opts.server);
    cli.traceOutputs();
    opts.dir = cli.parse(argc, argv)[0];
    if (opts.verifier.engine != core::Engine::Smt && !opts.server.empty())
        cli.fail("--server only supports --engine=smt");
    // The wire request carries no cube options, so the daemon would
    // silently verify without them.
    if ((cli.given("cube-depth") || cli.given("clause-share")) &&
        !opts.server.empty())
        cli.fail("--server does not support --cube-depth or --clause-share");
    opts.verifier.wantWitness = false;
    return opts;
}

std::string
metaOr(const prog::Program &p, const std::string &key,
       const std::string &fallback)
{
    auto it = p.meta.find(key);
    return it == p.meta.end() ? fallback : it->second;
}

/**
 * Expand one parsed program into expectation queries against @p model,
 * mirroring the corpus regression suite: `safety-<tag>` overrides
 * `safety`; `drf` only applies to models with flagged axioms.
 */
void
collectQueries(const prog::Program &program, const cat::CatModel &model,
               const std::string &modelTag,
               const core::VerifierOptions &options,
               std::vector<Query> &queries,
               std::vector<core::BatchJob> &batch, FileReport &report)
{
    auto add = [&](const std::string &kind, core::Property property,
                   bool expectedHolds, const std::string &expectedText) {
        queries.push_back({kind, modelTag, expectedHolds, expectedText});
        core::BatchJob job;
        job.program = &program;
        job.model = &model;
        job.property = property;
        job.options = options;
        job.label = report.file + " [" + modelTag + "] " + kind;
        batch.push_back(std::move(job));
        report.numQueries++;
    };

    std::string safety = metaOr(program, "safety-" + modelTag,
                                metaOr(program, "safety", ""));
    if (!safety.empty())
        add("safety", core::Property::Safety, safety == "holds", safety);
    std::string liveness = metaOr(program, "liveness", "");
    if (!liveness.empty())
        add("live", core::Property::Liveness, liveness == "live",
            liveness);
    std::string drf = metaOr(program, "drf", "");
    if (!drf.empty() && model.hasFlaggedAxioms())
        add("drf", core::Property::CatSpec, drf == "racefree", drf);
    if (safety.empty() && liveness.empty() && drf.empty())
        report.runsWithoutExpectations++;
}

struct Totals {
    int checks = 0;
    int passed = 0;
    int failed = 0;
    int unknown = 0;
    int errors = 0;
    int runsWithoutExpectations = 0;
    double queryMs = 0; // summed per-query time (cpu-ish)
    int64_t sessionsBuilt = 0;
    int64_t sessionsReused = 0;
};

/**
 * Blocking line-oriented client of one gpumc-serve daemon: write a
 * request line, read the matching response line (the protocol answers
 * strictly one line per request on a sequential connection).
 */
class ServeClient {
  public:
    /** @param addr "HOST:PORT" or "unix:PATH". @throws FatalError. */
    explicit ServeClient(const std::string &addr)
    {
        if (startsWith(addr, "unix:")) {
            std::string path = addr.substr(5);
            fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
            struct sockaddr_un sa;
            std::memset(&sa, 0, sizeof sa);
            sa.sun_family = AF_UNIX;
            if (path.size() >= sizeof sa.sun_path)
                fatal("unix socket path too long: ", path);
            std::strncpy(sa.sun_path, path.c_str(),
                         sizeof sa.sun_path - 1);
            if (fd_ < 0 ||
                connect(fd_, reinterpret_cast<struct sockaddr *>(&sa),
                        sizeof sa) != 0) {
                fatal("cannot connect to gpumc-serve at ", path);
            }
            return;
        }
        auto colon = addr.rfind(':');
        if (colon == std::string::npos)
            fatal("--server expects HOST:PORT or unix:PATH, got ", addr);
        std::string host = addr.substr(0, colon);
        std::optional<int64_t> port = parseInt(addr.substr(colon + 1));
        if (!port || *port < 1 || *port > 65535)
            fatal("bad --server port in ", addr);
        fd_ = socket(AF_INET, SOCK_STREAM, 0);
        struct sockaddr_in sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sin_family = AF_INET;
        sa.sin_port = htons(static_cast<uint16_t>(*port));
        if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1)
            fatal("bad --server host in ", addr);
        if (fd_ < 0 ||
            connect(fd_, reinterpret_cast<struct sockaddr *>(&sa),
                    sizeof sa) != 0) {
            fatal("cannot connect to gpumc-serve at ", addr);
        }
    }

    ~ServeClient()
    {
        if (fd_ >= 0)
            close(fd_);
    }

    std::string roundTrip(const std::string &request)
    {
        std::string line = request + "\n";
        const char *data = line.data();
        size_t size = line.size();
        while (size > 0) {
            ssize_t n = write(fd_, data, size);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                fatal("gpumc-serve connection write failed");
            }
            data += n;
            size -= static_cast<size_t>(n);
        }
        for (;;) {
            auto newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string response = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return response;
            }
            char chunk[65536];
            ssize_t n = read(fd_, chunk, sizeof chunk);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                fatal("gpumc-serve connection read failed");
            }
            if (n == 0)
                fatal("gpumc-serve closed the connection mid-request");
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/**
 * Remote phase 2: one verify request per query, filling the same
 * entries vector the local BatchVerifier would. Sequential on one
 * connection — the daemon's cache and sessions provide the speed.
 */
void
runAgainstServer(const CliOptions &opts,
                 const std::vector<FileReport> &reports,
                 const std::vector<core::BatchJob> &batch,
                 std::vector<core::BatchEntry> &entries)
{
    ServeClient client(opts.server);
    for (const FileReport &report : reports) {
        if (!report.error.empty())
            continue;
        std::ifstream in(report.file);
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string source = buf.str();
        for (size_t q = 0; q < report.numQueries; ++q) {
            size_t i = report.firstQuery + q;
            const core::BatchJob &job = batch[i];
            core::BatchEntry &entry = entries[i];
            entry.label = job.label;
            // Model tag -> shipped model name (the daemon resolves it
            // under its --cat-dir).
            std::string modelName =
                job.model->name() == "PTX v6.0"   ? "ptx-v6.0"
                : job.model->name() == "PTX v7.5" ? "ptx-v7.5"
                                                  : "vulkan";
            std::ostringstream req;
            req << "{\"id\":" << i << ",\"op\":\"verify\",\"litmus\":"
                << jsonString(source)
                << ",\"model\":" << jsonString(modelName)
                << ",\"property\":\""
                << serve::propertyWireName(job.property)
                << "\",\"bound\":" << job.options.bound
                << ",\"backend\":\""
                << smt::backendKindName(job.options.backend)
                << "\",\"timeout_ms\":" << job.options.solverTimeoutMs
                << "}";
            std::string responseLine = client.roundTrip(req.str());
            std::string parseError;
            JsonValue response = parseJson(responseLine, parseError);
            if (!parseError.empty()) {
                entry.failed = true;
                entry.error = "bad server response: " + parseError;
                entry.result.unknown = true;
                entry.result.detail = entry.error;
                continue;
            }
            const JsonValue *status = response.find("status");
            if (!status || !status->isString() ||
                status->text != "ok") {
                const JsonValue *message = response.find("message");
                entry.failed = true;
                entry.error =
                    status && status->text == "overloaded"
                        ? "server overloaded"
                        : (message && message->isString()
                               ? message->text
                               : "server error");
                entry.result.unknown = true;
                entry.result.detail = entry.error;
                continue;
            }
            const JsonValue *holds = response.find("holds");
            const JsonValue *unknown = response.find("unknown");
            const JsonValue *detail = response.find("detail");
            const JsonValue *timeMs = response.find("time_ms");
            entry.result.property = job.property;
            entry.result.holds = holds && holds->boolean;
            entry.result.unknown = unknown && unknown->boolean;
            if (detail && detail->isString())
                entry.result.detail = detail->text;
            if (timeMs && timeMs->isNumber())
                entry.result.timeMs = timeMs->number;
        }
    }
}

const char *
verdictOf(const Query &query, const core::BatchEntry &entry)
{
    if (entry.failed)
        return "error";
    if (entry.result.unknown)
        return "unknown";
    return entry.result.holds == query.expectedHolds ? "pass" : "fail";
}

void
writeJson(std::ostream &os, const CliOptions &opts,
          const std::vector<FileReport> &reports,
          const std::vector<Query> &queries,
          const std::vector<core::BatchEntry> &entries,
          const Totals &totals, unsigned jobs, double wallMs)
{
    os << "{\n";
    os << "  \"corpus\": \"" << jsonEscape(opts.dir) << "\",\n";
    os << "  \"backend\": \""
       << smt::backendKindName(opts.verifier.backend) << "\",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"queries\": [\n";
    bool firstQuery = true;
    for (const FileReport &report : reports) {
        if (!report.error.empty())
            continue;
        for (size_t q = 0; q < report.numQueries; ++q) {
            size_t i = report.firstQuery + q;
            const Query &query = queries[i];
            const core::BatchEntry &entry = entries[i];
            os << (firstQuery ? "" : ",\n");
            firstQuery = false;
            os << "    {\"file\": \"" << jsonEscape(report.file)
               << "\", \"kind\": \"" << query.kind
               << "\", \"model\": \"" << query.modelTag
               << "\", \"expected\": \""
               << jsonEscape(query.expectedText)
               << "\", \"verdict\": \"" << verdictOf(query, entry)
               << "\"";
            if (entry.failed) {
                os << ", \"error\": \"" << jsonEscape(entry.error)
                   << "\"}";
                continue;
            }
            os << ", \"holds\": "
               << (entry.result.holds ? "true" : "false")
               << ", \"unknown\": "
               << (entry.result.unknown ? "true" : "false")
               << ", \"timeMs\": " << entry.result.timeMs
               << ", \"stats\": {";
            bool firstStat = true;
            for (const auto &[key, value] : entry.result.stats.all()) {
                os << (firstStat ? "" : ", ") << "\""
                   << jsonEscape(key) << "\": " << value;
                firstStat = false;
            }
            os << "}}";
        }
    }
    os << "\n  ],\n";
    os << "  \"errors\": [\n";
    bool firstError = true;
    for (const FileReport &report : reports) {
        if (report.error.empty())
            continue;
        os << (firstError ? "" : ",\n");
        firstError = false;
        os << "    {\"file\": \"" << jsonEscape(report.file)
           << "\", \"message\": \"" << jsonEscape(report.error)
           << "\"}";
    }
    os << "\n  ],\n";
    os << "  \"summary\": {\"checks\": " << totals.checks
       << ", \"passed\": " << totals.passed
       << ", \"failed\": " << totals.failed
       << ", \"unknown\": " << totals.unknown
       << ", \"errors\": " << totals.errors
       << ", \"runsWithoutExpectations\": "
       << totals.runsWithoutExpectations
       << ", \"files\": " << reports.size()
       << ", \"sessionsBuilt\": " << totals.sessionsBuilt
       << ", \"sessionsReused\": " << totals.sessionsReused
       << ", \"wallMs\": " << wallMs
       << ", \"queryMs\": " << totals.queryMs << "}\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Parser cli("gpumc-corpus", {"<directory>"});
    CliOptions opts = parseArgs(cli, argc, argv);

    cat::CatModel ptx60 = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/ptx-v6.0.cat");
    cat::CatModel ptx75 = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/ptx-v7.5.cat");
    cat::CatModel vulkan = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/vulkan.cat");

    std::vector<std::string> files;
    std::error_code listError;
    for (const auto &entry :
         fs::recursive_directory_iterator(opts.dir, listError)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".litmus") {
            files.push_back(entry.path().string());
        }
    }
    if (listError) {
        std::cerr << "gpumc-corpus: cannot read '" << opts.dir
                  << "': " << listError.message() << "\n";
        return 2;
    }
    std::sort(files.begin(), files.end());

    // Phase 1 (sequential): parse everything and build the flat query
    // list. Programs live in a deque so BatchJob pointers stay stable.
    std::deque<prog::Program> programs;
    std::vector<FileReport> reports;
    std::vector<Query> queries;
    std::vector<core::BatchJob> batch;
    for (const std::string &file : files) {
        FileReport report;
        report.file = file;
        report.firstQuery = batch.size();
        try {
            prog::Program program = litmus::parseLitmusFile(file);
            core::VerifierOptions options = opts.verifier;
            auto bound = program.meta.find("bound");
            if (bound != program.meta.end()) {
                std::optional<int64_t> value = parseInt(bound->second);
                if (!value || *value < prog::kMinBound ||
                    *value > prog::kMaxBound) {
                    fatal("invalid `bound` meta value '", bound->second,
                          "' (expected integer in [", prog::kMinBound,
                          ", ", prog::kMaxBound, "])");
                }
                options.bound = static_cast<int>(*value);
            }
            programs.push_back(std::move(program));
            const prog::Program &p = programs.back();
            if (p.arch == prog::Arch::Ptx) {
                collectQueries(p, ptx60, "v60", options, queries, batch,
                               report);
                collectQueries(p, ptx75, "v75", options, queries, batch,
                               report);
            } else {
                collectQueries(p, vulkan, "vulkan", options, queries,
                               batch, report);
            }
        } catch (const FatalError &error) {
            report.error = error.what();
        } catch (const std::exception &error) {
            report.error = error.what();
        }
        reports.push_back(std::move(report));
    }

    // Phase 2: fan the queries out — across local workers, or across
    // the wire to a gpumc-serve daemon (thin-client mode).
    core::BatchVerifier engine(opts.jobs);
    Stopwatch wall;
    std::vector<core::BatchEntry> entries;
    if (opts.server.empty()) {
        entries = engine.run(batch);
    } else {
        entries.resize(batch.size());
        runAgainstServer(opts, reports, batch, entries);
    }
    double wallMs = wall.elapsedMs();

    // Phase 3 (sequential): deterministic input-order reporting.
    Totals totals;
    bool humanOutput = !opts.jsonToStdout;
    for (const FileReport &report : reports) {
        if (!report.error.empty()) {
            totals.checks++;
            totals.errors++;
            if (humanOutput) {
                std::printf("ERROR  %-30s %s\n", report.file.c_str(),
                            report.error.c_str());
            }
            continue;
        }
        totals.runsWithoutExpectations +=
            report.runsWithoutExpectations;
        for (size_t q = 0; q < report.numQueries; ++q) {
            size_t i = report.firstQuery + q;
            const Query &query = queries[i];
            const core::BatchEntry &entry = entries[i];
            totals.checks++;
            totals.queryMs += entry.result.timeMs;
            totals.sessionsBuilt +=
                entry.result.stats.get("sessionsBuilt");
            totals.sessionsReused +=
                entry.result.stats.get("sessionsReused");
            const char *tag;
            if (entry.failed) {
                totals.errors++;
                tag = "ERROR";
            } else if (entry.result.unknown) {
                totals.unknown++;
                tag = "UNKN";
            } else if (entry.result.holds == query.expectedHolds) {
                totals.passed++;
                tag = "ok";
            } else {
                totals.failed++;
                tag = "FAIL";
            }
            if (humanOutput) {
                std::printf("%-6s %-9s %-10s %8.1fms  %s\n", tag,
                            query.kind.c_str(), query.modelTag.c_str(),
                            entry.result.timeMs, report.file.c_str());
                if (entry.failed) {
                    std::printf("       ^ %s\n", entry.error.c_str());
                }
            }
        }
    }

    if (humanOutput) {
        std::printf("\n%d/%d expectation checks passed across %zu "
                    "files (%d runs without expectations",
                    totals.passed, totals.checks, files.size(),
                    totals.runsWithoutExpectations);
        if (totals.unknown > 0)
            std::printf(", %d unknown", totals.unknown);
        if (totals.errors > 0)
            std::printf(", %d errors", totals.errors);
        std::printf(")\n%.0f ms wall, %.0f ms summed over queries, "
                    "%u worker%s; sessions built %lld, reused %lld\n",
                    wallMs, totals.queryMs, engine.jobs(),
                    engine.jobs() == 1 ? "" : "s",
                    static_cast<long long>(totals.sessionsBuilt),
                    static_cast<long long>(totals.sessionsReused));
    }
    int code = totals.failed == 0 && totals.errors == 0 ? 0 : 1;
    if (opts.jsonToStdout) {
        writeJson(std::cout, opts, reports, queries, entries, totals,
                  engine.jobs(), wallMs);
    } else if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath);
        if (!out) {
            std::cerr << "gpumc-corpus: cannot write '" << opts.jsonPath
                      << "'\n";
            code = 2;
        } else {
            writeJson(out, opts, reports, queries, entries, totals,
                      engine.jobs(), wallMs);
            std::printf("json report written to %s\n",
                        opts.jsonPath.c_str());
        }
    }
    return cli.finish(code);
}
