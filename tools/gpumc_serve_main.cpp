/**
 * @file
 * gpumc-serve: a long-lived verification daemon. Clients send litmus
 * verification jobs as line-delimited JSON (see docs/SERVING.md) over
 * stdin/stdout, a TCP socket or a unix-domain socket; the daemon
 * answers from a fingerprint-keyed result cache, a warm pool of live
 * incremental sessions, or a fresh solve — with bounded-queue
 * admission control in between. An unknown argument prints the flag
 * list.
 */

#include <cstdint>
#include <iostream>

#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"

namespace {

using namespace gpumc;

struct CliOptions {
    serve::EngineOptions engine;
    serve::ServerOptions server;
};

CliOptions
parseArgs(cli::Parser &cli, int argc, char **argv)
{
    CliOptions opts;
#ifdef GPUMC_CAT_DIR
    opts.engine.catDir = GPUMC_CAT_DIR;
#endif
    std::string listen;
    cli.flag("stdio", "serve stdin/stdout (default)", opts.server.stdio);
    cli.text("listen", "HOST:PORT",
             "serve a TCP socket (port 0 = ephemeral; the\n"
             "chosen port is printed on startup)",
             listen);
    cli.text("unix", "PATH", "serve a unix-domain socket",
             opts.server.unixPath);
    cli.jobs(opts.engine.jobs);
    cli.integer("queue", "N",
                "admission queue bound; requests beyond it are\n"
                "answered 'overloaded' (default: 64)",
                opts.engine.maxQueued, 1, 1 << 20);
    cli.integer("result-cache", "N",
                "verdict cache capacity (default: 1024)",
                opts.engine.resultCacheCapacity, 0, 1 << 24);
    cli.integer("session-cache", "N",
                "live session pool capacity (default: 32)",
                opts.engine.sessionCacheCapacity, 0, 1 << 16);
    cli.integer("max-timeout", "MS",
                "cap every request's budget (default: none)",
                opts.engine.maxTimeoutMs, 0, INT64_MAX);
    cli.text("cat-dir", "DIR",
             "directory for 'model' name resolution\n"
             "(default: the build's cat/ directory)",
             opts.engine.catDir);
    cli.text("cache-file", "PATH",
             "persist the verdict cache: loaded on startup\n"
             "(silently cold on a missing or incompatible\n"
             "file), written on shutdown",
             opts.engine.cacheFile);
    cli.traceOutputs();
    cli.parse(argc, argv);
    if (!listen.empty()) {
        auto colon = listen.rfind(':');
        if (colon == std::string::npos)
            cli.fail("--listen expects HOST:PORT");
        opts.server.host = listen.substr(0, colon);
        opts.server.port = static_cast<int>(cliInt(
            "gpumc-serve", "--listen", listen.substr(colon + 1), 0, 65535));
    }
    if (opts.server.stdio &&
        (opts.server.port >= 0 || !opts.server.unixPath.empty()))
        cli.fail("--stdio excludes --listen and --unix");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Parser cli("gpumc-serve", {});
    try {
        CliOptions opts = parseArgs(cli, argc, argv);
        serve::Engine engine(opts.engine);
        serve::Server server(engine, opts.server);
        return cli.finish(server.run());
    } catch (const gpumc::FatalError &error) {
        std::cerr << "gpumc-serve: error: " << error.what() << "\n";
        return 2;
    }
}
