/**
 * @file
 * The command-line front end every gpumc program shares. A program
 * declares its flags on a cli::Parser and parses argv once; the usage
 * text is generated from the same declarations, so no flag can be
 * parsed without being documented.
 *
 * Flags are `--name` or `--name=value`, in four shapes:
 *  - a switch, which takes no value (`--witness`);
 *  - a non-empty string or path (`--dot=FILE`);
 *  - an integer in a range, checked by cliInt (`--bound=N`);
 *  - a choice from a fixed list (`--engine=smt|dpor|explicit`).
 *
 * Any argument without the `--` prefix is a positional. Misuse exits
 * with status 2: an unknown flag or a surplus positional is named and
 * followed by the usage; a bad integer prints cliInt's message.
 *
 * Two shared flags are declared here once for every program: `--jobs`
 * (the ThreadBudget) and `--trace`/`--metrics` (the process tracer).
 */

#ifndef GPUMC_SUPPORT_CLI_HPP
#define GPUMC_SUPPORT_CLI_HPP

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/string_utils.hpp"

namespace gpumc::cli {

/**
 * A program's flags. Each declaration keeps a reference to its target,
 * which parse() writes; the targets must outlive that call.
 */
class Parser {
  public:
    /**
     * @param tool         program name: the usage line and the prefix
     *                     of every message
     * @param positionals  the positional arguments as the usage line
     *                     shows them; parse() requires exactly these
     * @param footer       printed after the flag list (may be empty)
     */
    Parser(std::string tool, std::vector<std::string> positionals,
           std::string footer = "");

    Parser(const Parser &) = delete;
    Parser &operator=(const Parser &) = delete;

    /** A switch: `--name` sets @p target; `--name=...` is an error. */
    void flag(std::string name, std::string help, bool &target);

    /**
     * A non-empty string: `--name=META`. With @p bare, `--name` alone
     * is accepted too and sets *@p bare (`--json[=FILE]`).
     */
    void text(std::string name, std::string meta, std::string help,
              std::string &target, bool *bare = nullptr);

    /** An integer in [@p min, @p max]: `--name=META`. */
    template <typename T>
    void integer(std::string name, std::string meta, std::string help,
                 T &target, int64_t min, int64_t max)
    {
        std::string flag = "--" + name;
        flags_.push_back(
            {std::move(name), std::move(meta), std::move(help), {},
             [this, flag, &target, min, max](const std::string &value) {
                 target = static_cast<T>(
                     cliInt(tool_, flag, value, min, max));
             }});
    }

    /** One of @p choices by its name: `--name=a|b|c`. */
    template <typename T>
    void choice(std::string name, std::string help,
                std::vector<std::pair<std::string, T>> choices, T &target)
    {
        std::string meta;
        for (const auto &entry : choices)
            meta += (meta.empty() ? "" : "|") + entry.first;
        std::string flag = "--" + name;
        flags_.push_back(
            {std::move(name), std::move(meta), std::move(help), {},
             [this, flag, choices = std::move(choices),
              &target](const std::string &value) {
                 for (const auto &[key, option] : choices) {
                     if (key == value) {
                         target = option;
                         return;
                     }
                 }
                 fail("invalid value '" + value + "' for " + flag);
             }});
    }

    /** `--jobs=N` in [1, 1024]: the total ThreadBudget, into @p target
     *  as well (0, its default, means hardware concurrency). */
    void jobs(unsigned &target);

    /** `--trace=FILE` and `--metrics=FILE`: either arms the process
     *  tracer; finish() writes the files. */
    void traceOutputs();

    /** Parse @p argv against the declarations; returns the positionals. */
    std::vector<std::string> parse(int argc, char **argv);

    /** Whether the flag @p name appeared on the command line. */
    bool given(std::string_view name) const;

    /** Write the files traceOutputs() asked for. Returns @p code, or 2
     *  in place of 0 when a write failed. */
    int finish(int code) const;

    /** Print "<tool>: @p message", then the usage, and exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** Print the usage to stderr and exit 2. */
    [[noreturn]] void usage() const;

  private:
    struct Flag {
        std::string name;
        /** Value placeholder in the usage; empty for a switch. */
        std::string meta;
        std::string help;
        /** The flag given without a value; empty if that needs one. */
        std::function<void()> bare;
        /** The flag given as `--name=value` (or without a value when
         *  `bare` is empty; the shape then rejects the empty value). */
        std::function<void(const std::string &)> set;
    };

    std::string tool_;
    std::vector<std::string> positionals_;
    std::string footer_;
    std::vector<Flag> flags_;
    std::set<std::string, std::less<>> given_;
    std::string tracePath_;
    std::string metricsPath_;
};

} // namespace gpumc::cli

#endif // GPUMC_SUPPORT_CLI_HPP
