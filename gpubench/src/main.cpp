/**
 * @file
 * gpubench: the gpumc benchmark's workload runner. Normally started by
 * run.py, which builds it first:
 *
 *   gpubench --workload litmus|locks|serve|enum --seed N --seconds S
 *            --trace 0|1 --root DIR --serve-bin PATH --out-dir DIR
 *            [--tiny] [--commit SHA] [--source-digest HEX]
 *
 * The last stdout line is the result object; earlier lines carry the
 * run's metadata and the verdict-gate summary. A traced run also
 * writes <out-dir>/trace-<workload>-seed<N>.json. Exit status: 0 when
 * every verdict is correct, 1 on a wrong or failed verdict or a
 * reconciliation mismatch (the result line still says why), 2 on a
 * usage or I/O error
 * (no result line).
 */

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

using namespace gpubench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "gpubench: " << why << "\n"
              << "usage: gpubench --workload litmus|locks|serve|enum "
                 "--seed N --seconds S --trace 0|1 --root DIR "
                 "--serve-bin PATH --out-dir DIR [--tiny] "
                 "[--commit SHA] [--source-digest HEX]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    // Half the CPUs are left to the system, run.py and the serve
    // client: on a busier machine every stray wake-up, ours or another
    // tenant's, preempts a worker and shows up in the latency tail.
    unsigned hw = std::thread::hardware_concurrency();
    opts.jobs = hw > 1 ? hw / 2 : 1;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key == "--tiny") {
            opts.tiny = true;
            continue;
        }
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("bad argument '" + key + "'");
        args[key.substr(2)] = argv[++i];
    }
    auto need = [&](const char *key) {
        auto it = args.find(key);
        if (it == args.end())
            usage(std::string("missing --") + key);
        return it->second;
    };
    try {
        opts.workload = need("workload");
        opts.seed = std::stoull(need("seed"));
        opts.seconds = std::stod(need("seconds"));
        opts.trace = std::stoi(need("trace")) != 0;
    } catch (const std::exception &) {
        usage("bad numeric argument");
    }
    opts.root = need("root");
    opts.serveBin = need("serve-bin");
    opts.outDir = need("out-dir");
    if (args.count("commit"))
        opts.commit = args["commit"];
    if (args.count("source-digest"))
        opts.sourceDigest = args["source-digest"];
    if (opts.seconds <= 0)
        usage("--seconds must be positive");
    return opts;
}

std::string
metaJson(const Options &opts)
{
    char host[256] = {0};
    gethostname(host, sizeof host - 1);
    std::string out = "{\"workload\": " + jsonString(opts.workload);
    out += ", \"seed\": " + std::to_string(opts.seed);
    out += ", \"seconds\": " + num(opts.seconds);
    out += ", \"trace\": " + std::string(opts.trace ? "true" : "false");
    out += ", \"tiny\": " + std::string(opts.tiny ? "true" : "false");
    out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"jobs\": " + std::to_string(opts.jobs);
    out += ", \"commit\": " + jsonString(opts.commit);
    out += ", \"source_digest\": " + jsonString(opts.sourceDigest);
    out += ", \"build_type\": " + jsonString(GPUBENCH_BUILD_TYPE);
    out += ", \"compiler\": " + jsonString(GPUBENCH_COMPILER);
    out += ", \"host\": " + jsonString(host);
    out += "}";
    return out;
}

void
writeTraceFile(const Options &opts, const Traced &traced,
               const Report &report)
{
    std::string path = opts.outDir + "/trace-" + opts.workload + "-seed" +
                       std::to_string(opts.seed) + ".json";
    std::ofstream out(path);
    out << "{\"meta\": " << metaJson(opts) << ",\n\"layers\": {";
    bool first = true;
    for (const auto &[name, vu] : traced.layers.all()) {
        out << (first ? "\n " : ",\n ") << jsonString(name)
            << ": {\"value\": " << num(vu.first)
            << ", \"unit\": " << jsonString(vu.second) << "}";
        first = false;
    }
    out << "\n},\n\"self_us\": {";
    first = true;
    for (const auto &[name, us] : traced.spans.selfUsByName()) {
        out << (first ? "\n " : ",\n ") << jsonString(name) << ": "
            << num(us);
        first = false;
    }
    out << "\n},\n\"mismatches\": [";
    first = true;
    for (const std::string &m : report.mismatches()) {
        out << (first ? "\n " : ",\n ") << jsonString(m);
        first = false;
    }
    out << "],\n\"spans\": ";
    traced.spans.writeJson(out);
    out << "\n}\n";
    if (!out)
        fatal("cannot write ", path);
    std::cerr << "gpubench: traced output in " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    using Runner = void (*)(const Options &, Report &, Traced *);
    const std::map<std::string, Runner> runners = {
        {"litmus", runLitmus},
        {"locks", runLocks},
        {"serve", runServe},
        {"enum", runEnum},
    };
    auto runner = runners.find(opts.workload);
    if (runner == runners.end())
        usage("unknown workload '" + opts.workload + "'");

    std::cout << "# meta " << metaJson(opts) << std::endl;
    Report report;
    std::unique_ptr<Traced> traced;
    if (opts.trace)
        traced = std::make_unique<Traced>();
    try {
        runner->second(opts, report, traced.get());
        if (traced) {
            spanLayers(traced->spans, traced->layers);
            traced->layers.finish();
            for (const auto &[name, vu] : traced->layers.all())
                report.metric(name, vu.first, vu.second);
            writeTraceFile(opts, *traced, report);
        }
    } catch (const std::exception &error) {
        std::cerr << "gpubench: error: " << error.what() << "\n";
        return 2;
    }

    std::cout << "# gate {\"checked\": " << report.checked
              << ", \"unchecked\": " << report.unchecked
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed
              << ", \"mismatches\": " << report.mismatches().size() << "}"
              << std::endl;
    for (const std::string &m : report.mismatches())
        std::cerr << "gpubench: MISMATCH " << m << "\n";
    if (report.failed > 0) {
        std::cerr << "gpubench: FAILED " << report.failed
                  << " verdicts were unknown, unsupported or timed out\n";
    }
    std::cout << report.json() << std::endl;
    return report.correct() ? 0 : 1;
}
