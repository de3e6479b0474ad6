#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "support/thread_budget.hpp"
#include "support/trace.hpp"

namespace gpumc::cli {

namespace {

/** Column where the help text of every flag starts. */
constexpr size_t kHelpColumn = 24;

} // namespace

Parser::Parser(std::string tool, std::vector<std::string> positionals,
               std::string footer)
    : tool_(std::move(tool)), positionals_(std::move(positionals)),
      footer_(std::move(footer))
{
}

void
Parser::flag(std::string name, std::string help, bool &target)
{
    flags_.push_back({std::move(name), "", std::move(help),
                      [&target] { target = true; }, {}});
}

void
Parser::text(std::string name, std::string meta, std::string help,
             std::string &target, bool *bare)
{
    std::string flag = "--" + name;
    std::function<void()> onBare;
    if (bare)
        onBare = [bare] { *bare = true; };
    flags_.push_back({std::move(name), std::move(meta), std::move(help),
                      std::move(onBare),
                      [this, flag, &target](const std::string &value) {
                          if (value.empty())
                              fail(flag + " needs a non-empty value");
                          target = value;
                      }});
}

void
Parser::jobs(unsigned &target)
{
    flags_.push_back({"jobs", "N",
                      "total thread budget of workers and cube solvers\n"
                      "(default: hardware concurrency)",
                      {}, [this, &target](const std::string &value) {
                          target = static_cast<unsigned>(
                              cliInt(tool_, "--jobs", value, 1, 1024));
                          ThreadBudget::instance().setTotal(target);
                      }});
}

void
Parser::traceOutputs()
{
    text("trace", "FILE",
         "write a Chrome trace-event JSON on exit\n"
         "(chrome://tracing, Perfetto)",
         tracePath_);
    text("metrics", "FILE",
         "write flat metrics JSON on exit (counters and span\n"
         "aggregates)",
         metricsPath_);
}

std::vector<std::string>
Parser::parse(int argc, char **argv)
{
    std::vector<std::string> positionals;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positionals.push_back(arg);
            continue;
        }
        size_t eq = arg.find('=');
        std::string name = arg.substr(2, eq - 2);
        auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const Flag &f) { return f.name == name; });
        if (it == flags_.end())
            fail("unknown argument '" + arg + "'");
        given_.insert(name);
        if (eq == std::string::npos && it->bare)
            it->bare();
        else if (!it->set)
            fail("--" + name + " takes no value");
        else
            it->set(eq == std::string::npos ? "" : arg.substr(eq + 1));
    }
    if (positionals.size() > positionals_.size())
        fail("unknown argument '" + positionals[positionals_.size()] + "'");
    if (positionals.size() < positionals_.size())
        usage();
    if (!tracePath_.empty() || !metricsPath_.empty())
        trace::Tracer::instance().enable();
    return positionals;
}

bool
Parser::given(std::string_view name) const
{
    return given_.find(name) != given_.end();
}

int
Parser::finish(int code) const
{
    const trace::Tracer &tracer = trace::Tracer::instance();
    bool ok = true;
    std::string error;
    if (!tracePath_.empty() &&
        !tracer.writeChromeTraceFile(tracePath_, error)) {
        std::cerr << "trace: " << error << "\n";
        ok = false;
    }
    if (!metricsPath_.empty() &&
        !tracer.writeMetricsFile(metricsPath_, error)) {
        std::cerr << "metrics: " << error << "\n";
        ok = false;
    }
    return ok || code != 0 ? code : 2;
}

void
Parser::fail(const std::string &message) const
{
    std::cerr << tool_ << ": " << message << "\n";
    usage();
}

void
Parser::usage() const
{
    std::cerr << "usage: " << tool_;
    for (const std::string &positional : positionals_)
        std::cerr << " " << positional;
    std::cerr << " [options]\n";
    for (const Flag &flag : flags_) {
        std::string left = "  --" + flag.name;
        if (!flag.meta.empty())
            left += (flag.bare ? "[=" : "=") + flag.meta +
                    (flag.bare ? "]" : "");
        std::cerr << left;
        size_t column = left.size();
        for (const std::string &line : split(flag.help, '\n')) {
            if (column >= kHelpColumn) {
                std::cerr << "\n";
                column = 0;
            }
            std::cerr << std::string(kHelpColumn - column, ' ') << line;
            column = kHelpColumn + line.size();
        }
        std::cerr << "\n";
    }
    std::cerr << footer_;
    std::exit(2);
}

} // namespace gpumc::cli
