/**
 * @file
 * gpumc-serve: a long-lived verification daemon. Clients send litmus
 * verification jobs as line-delimited JSON (see docs/SERVING.md) over
 * stdin/stdout, a TCP socket or a unix-domain socket; the daemon
 * answers from a fingerprint-keyed result cache, a warm pool of live
 * incremental sessions, or a fresh solve — with bounded-queue
 * admission control in between.
 *
 *   gpumc-serve [--stdio | --listen=HOST:PORT | --unix=PATH]
 *               [--jobs=N] [--queue=N] [--result-cache=N]
 *               [--session-cache=N] [--max-timeout=MS] [--cat-dir=DIR]
 *               [--cache-file=PATH] [--trace=FILE] [--metrics=FILE]
 */

#include <cstdint>
#include <iostream>

#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "support/string_utils.hpp"
#include "support/thread_budget.hpp"
#include "support/trace.hpp"

namespace {

using namespace gpumc;

struct CliOptions {
    serve::EngineOptions engine;
    serve::ServerOptions server;
    std::string tracePath;
    std::string metricsPath;
    unsigned jobs = 0;
};

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: gpumc-serve [options]\n"
        "  --stdio            serve stdin/stdout (default)\n"
        "  --listen=HOST:PORT serve a TCP socket (port 0 = ephemeral;\n"
        "                     the chosen port is printed on startup)\n"
        "  --unix=PATH        serve a unix-domain socket\n"
        "  --jobs=N           verification worker threads (default:\n"
        "                     cores)\n"
        "  --queue=N          admission queue bound; requests beyond\n"
        "                     it are answered 'overloaded' (default: "
        "64)\n"
        "  --result-cache=N   verdict cache capacity (default: 1024)\n"
        "  --session-cache=N  live session pool capacity (default: "
        "32)\n"
        "  --max-timeout=MS   cap every request's budget (default: "
        "none)\n"
        "  --cat-dir=DIR      directory for 'model' name resolution\n"
        "                     (default: the build's cat/ directory)\n"
        "  --cache-file=PATH  persist the verdict cache: loaded on\n"
        "                     startup (silently cold on a missing or\n"
        "                     incompatible file), written on shutdown\n"
        "  --trace=FILE       Chrome trace JSON on exit\n"
        "  --metrics=FILE     metrics JSON on exit (the same data is\n"
        "                     available live via the 'metrics' op)\n";
    std::exit(2);
}

int64_t
cliInt(const std::string &key, const std::string &value, int64_t min,
       int64_t max)
{
    return gpumc::cliInt("gpumc-serve", "--" + key, value, min, max);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
#ifdef GPUMC_CAT_DIR
    opts.engine.catDir = GPUMC_CAT_DIR;
#endif
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--"))
            usage();
        auto eq = arg.find('=');
        std::string key = arg.substr(2, eq - 2);
        std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "stdio") {
            opts.server.stdio = true;
        } else if (key == "listen") {
            auto colon = value.rfind(':');
            if (colon == std::string::npos)
                usage();
            opts.server.host = value.substr(0, colon);
            opts.server.port = static_cast<int>(
                cliInt(key, value.substr(colon + 1), 0, 65535));
        } else if (key == "unix") {
            if (value.empty())
                usage();
            opts.server.unixPath = value;
        } else if (key == "jobs") {
            opts.jobs =
                static_cast<unsigned>(cliInt(key, value, 1, 1024));
        } else if (key == "queue") {
            opts.engine.maxQueued =
                static_cast<size_t>(cliInt(key, value, 1, 1 << 20));
        } else if (key == "result-cache") {
            opts.engine.resultCacheCapacity =
                static_cast<size_t>(cliInt(key, value, 0, 1 << 24));
        } else if (key == "session-cache") {
            opts.engine.sessionCacheCapacity =
                static_cast<size_t>(cliInt(key, value, 0, 1 << 16));
        } else if (key == "max-timeout") {
            opts.engine.maxTimeoutMs = cliInt(key, value, 0, INT64_MAX);
        } else if (key == "cat-dir") {
            opts.engine.catDir = value;
        } else if (key == "cache-file") {
            if (value.empty())
                usage();
            opts.engine.cacheFile = value;
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
    if (opts.server.stdio &&
        (opts.server.port >= 0 || !opts.server.unixPath.empty()))
        usage();
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        CliOptions opts = parseArgs(argc, argv);
        trace::enableFromCli(opts.tracePath, opts.metricsPath);
        // One shared budget, like gpumc-corpus: the serve workers
        // lease their threads from it.
        ThreadBudget::instance().setTotal(opts.jobs);
        opts.engine.jobs = opts.jobs;

        serve::Engine engine(opts.engine);
        serve::Server server(engine, opts.server);
        int code = server.run();
        if (!trace::flushCliOutputs(opts.tracePath, opts.metricsPath,
                                    std::cerr) &&
            code == 0) {
            code = 2;
        }
        return code;
    } catch (const gpumc::FatalError &error) {
        std::cerr << "gpumc-serve: error: " << error.what() << "\n";
        return 2;
    }
}
