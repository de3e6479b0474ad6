/**
 * @file
 * Unit tests for the support library: string helpers, stopwatch/stats,
 * diagnostics, thread pool / parallel-for, the command-line parser and
 * the flat hash map of the encoder's memo tables.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>

#include "encoder/relation_encoder.hpp"
#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/flat_map.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/thread_budget.hpp"

namespace gpumc {
namespace {

TEST(StringUtils, Split)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtils, SplitWhitespace)
{
    EXPECT_EQ(splitWhitespace("  a \t b\nc  "),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n"), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtils, Affixes)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("test.litmus", ".litmus"));
    EXPECT_FALSE(endsWith("litmus", ".litmus"));
}

TEST(StringUtils, JoinAndLower)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(toLower("PTX v7.5"), "ptx v7.5");
}

TEST(StringUtils, IsInteger)
{
    EXPECT_TRUE(isInteger("42"));
    EXPECT_TRUE(isInteger("-7"));
    EXPECT_FALSE(isInteger(""));
    EXPECT_FALSE(isInteger("-"));
    EXPECT_FALSE(isInteger("1x"));
    EXPECT_FALSE(isInteger("x1"));
}

TEST(Diagnostics, FatalErrorCarriesLocation)
{
    try {
        fatalAt(SourceLoc{3, 7}, "bad ", 42);
        FAIL() << "expected a throw";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("3:7"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("bad 42"),
                  std::string::npos);
        EXPECT_EQ(error.loc().line, 3);
    }
}

TEST(Diagnostics, SourceLocStr)
{
    EXPECT_EQ(SourceLoc{}.str(), "<unknown>");
    EXPECT_EQ((SourceLoc{12, 1}).str(), "12:1");
    EXPECT_FALSE(SourceLoc{}.known());
}

TEST(Stats, RegistryAccumulates)
{
    StatsRegistry stats;
    stats.add("x", 2);
    stats.add("x", 3);
    stats.set("y", 10);
    EXPECT_EQ(stats.get("x"), 5);
    EXPECT_EQ(stats.get("y"), 10);
    EXPECT_EQ(stats.get("missing"), 0);
    EXPECT_EQ(stats.all().size(), 2u);
}

TEST(StringUtils, ParseInt)
{
    EXPECT_EQ(parseInt("0"), 0);
    EXPECT_EQ(parseInt("42"), 42);
    EXPECT_EQ(parseInt("-17"), -17);
    EXPECT_EQ(parseInt("9223372036854775807"), INT64_MAX);
    EXPECT_FALSE(parseInt(""));
    EXPECT_FALSE(parseInt("-"));
    EXPECT_FALSE(parseInt("12x"));
    EXPECT_FALSE(parseInt("x12"));
    EXPECT_FALSE(parseInt("1 2"));
    EXPECT_FALSE(parseInt("4.5"));
    EXPECT_FALSE(parseInt("99999999999999999999")); // overflow
}

TEST(ThreadPool, DefaultConcurrencyIsPositive)
{
    EXPECT_GE(defaultConcurrency(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 7u}) {
        std::vector<std::atomic<int>> hits(257);
        parallelFor(257, threads,
                    [&](int64_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, EmptyAndSingleton)
{
    int calls = 0;
    parallelFor(0, 4, [&](int64_t) { calls++; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&](int64_t i) {
        EXPECT_EQ(i, 0);
        calls++;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(64, 4, [&](int64_t i) {
            ran.fetch_add(1);
            if (i == 5)
                fatal("boom at ", i);
        });
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_STREQ(error.what(), "boom at 5");
    }
    // Some indices may be skipped after the failure, none run twice.
    EXPECT_LE(ran.load(), 64);
    EXPECT_GE(ran.load(), 1);
}

TEST(ParallelFor, SequentialFallbackIsInOrder)
{
    std::vector<int64_t> order;
    parallelFor(5, 1, [&](int64_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(Deadline, UnlimitedByDefault)
{
    Deadline deadline;
    EXPECT_FALSE(deadline.limited());
    EXPECT_FALSE(deadline.expired());
    EXPECT_EQ(deadline.remainingMs(), 0);

    // Non-positive budgets mean "no deadline", matching the
    // setTimeLimitMs(<=0) disable convention of smt::Backend.
    EXPECT_FALSE(Deadline::in(0).limited());
    EXPECT_FALSE(Deadline::in(-25).limited());
}

TEST(Deadline, CountsDownAndExpires)
{
    Deadline deadline = Deadline::in(60000);
    EXPECT_TRUE(deadline.limited());
    EXPECT_FALSE(deadline.expired());
    int64_t remaining = deadline.remainingMs();
    EXPECT_GT(remaining, 0);
    EXPECT_LE(remaining, 60000);

    // A 1 ms deadline is over after a 1 ms sleep; remainingMs clamps
    // at zero instead of going negative.
    Deadline tiny = Deadline::in(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(tiny.expired());
    EXPECT_EQ(tiny.remainingMs(), 0);
}

TEST(Deadline, HugeBudgetSaturatesInsteadOfWrapping)
{
    // INT64_MAX ms is past the steady clock's range in nanoseconds:
    // the deadline must stay limited and far in the future.
    for (int64_t ms : {INT64_MAX, int64_t{9000000000000}}) {
        Deadline deadline = Deadline::in(ms);
        EXPECT_TRUE(deadline.limited()) << ms;
        EXPECT_FALSE(deadline.expired()) << ms;
        EXPECT_GT(deadline.remainingMs(), int64_t{1} << 40) << ms;
    }
}

/** One flag of each shape, with their defaults. */
struct CliFlags {
    bool on = false;
    std::string path;
    bool pathBare = false;
    int64_t n = 7;
    int pick = 0;

    void declare(cli::Parser &cli)
    {
        cli.flag("on", "a switch", on);
        cli.text("path", "FILE", "a path", path, &pathBare);
        cli.integer("n", "N", "an integer", n, 1, 64);
        cli.choice("pick", "a choice", {{"a", 1}, {"b", 2}}, pick);
    }
};

/** Parse @p args, which omit the program name, on @p cli. */
std::vector<std::string>
parseCli(cli::Parser &cli, std::vector<std::string> args)
{
    args.insert(args.begin(), "tool");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesTheFourShapes)
{
    cli::Parser cli("tool", {"<in>"});
    CliFlags flags;
    flags.declare(cli);
    EXPECT_EQ(parseCli(cli, {"--on", "in.litmus", "--path=out.json",
                             "--n=64", "--pick=b"}),
              std::vector<std::string>{"in.litmus"});
    EXPECT_TRUE(flags.on);
    EXPECT_EQ(flags.path, "out.json");
    EXPECT_FALSE(flags.pathBare);
    EXPECT_EQ(flags.n, 64);
    EXPECT_EQ(flags.pick, 2);
    EXPECT_TRUE(cli.given("pick"));
}

TEST(Cli, KeepsDefaultsAndTakesTheBareForm)
{
    cli::Parser cli("tool", {"<in>"});
    CliFlags flags;
    flags.declare(cli);
    parseCli(cli, {"in.litmus", "--path"});
    EXPECT_TRUE(flags.pathBare);
    EXPECT_EQ(flags.path, "");
    EXPECT_FALSE(flags.on);
    EXPECT_EQ(flags.n, 7);
    EXPECT_EQ(flags.pick, 0);
    EXPECT_TRUE(cli.given("path"));
    EXPECT_FALSE(cli.given("n"));
}

/** Parse @p args on a fresh parser with CliFlags declared. */
void
parseFresh(std::vector<std::string> args)
{
    cli::Parser cli("tool", {"<in>"});
    CliFlags flags;
    flags.declare(cli);
    parseCli(cli, std::move(args));
}

TEST(CliDeathTest, MisuseExitsTwo)
{
    using ::testing::ExitedWithCode;
    EXPECT_EXIT(parseFresh({"in", "--on=no"}), ExitedWithCode(2),
                "tool: --on takes no value");
    EXPECT_EXIT(parseFresh({"in", "--path="}), ExitedWithCode(2),
                "tool: --path needs a non-empty value");
    EXPECT_EXIT(parseFresh({"in", "--n=0"}), ExitedWithCode(2),
                "tool: invalid value '0' for --n "
                "\\(expected integer in \\[1, 64\\]\\)");
    EXPECT_EXIT(parseFresh({"in", "--pick=c"}), ExitedWithCode(2),
                "tool: invalid value 'c' for --pick");
    EXPECT_EXIT(parseFresh({"in", "--frobnicate"}), ExitedWithCode(2),
                "tool: unknown argument '--frobnicate'");
    EXPECT_EXIT(parseFresh({"in", "extra"}), ExitedWithCode(2),
                "tool: unknown argument 'extra'");
    // The usage lists every declared flag in its shape.
    EXPECT_EXIT(parseFresh({}), ExitedWithCode(2),
                "usage: tool <in> \\[options\\]\n"
                "  --on .*\n  --path\\[=FILE\\] .*\n  --n=N .*\n"
                "  --pick=a\\|b ");
}

TEST(Stats, StopwatchAdvances)
{
    Stopwatch watch;
    volatile int sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink += i;
    EXPECT_GE(watch.elapsedMs(), 0.0);
    watch.restart();
    EXPECT_LT(watch.elapsedMs(), 1000.0);
}

/**
 * Encoder memo keys at the ends of the asserted id ranges: none is the
 * empty key, and all are distinct.
 */
std::vector<uint64_t>
keysAtIdLimits()
{
    using encoder::RelationEncoder;
    const int node[] = {0, 1, RelationEncoder::kMaxNodes - 1};
    const int event[] = {0, 1, RelationEncoder::kMaxEvents - 1};
    std::vector<uint64_t> keys;
    for (int n : node) {
        for (int a : event) {
            for (int b : event)
                keys.push_back(RelationEncoder::pairKey(n, a, b));
        }
    }
    return keys;
}

TEST(FlatMap, KeysAtTheIdLimitsAreDistinctAndStorable)
{
    std::vector<uint64_t> keys = keysAtIdLimits();
    std::vector<uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    FlatMap<int32_t> map;
    for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_NE(keys[i], FlatMap<int32_t>::kEmptyKey);
        EXPECT_EQ(keys[i] >> 63, 0u);
        map.emplace(keys[i], static_cast<int32_t>(i));
    }
    ASSERT_EQ(map.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(map.find(keys[i]), nullptr);
        EXPECT_EQ(*map.find(keys[i]), static_cast<int32_t>(i));
    }
}

TEST(FlatMap, MatchesUnorderedMapThroughGrowths)
{
    // Keys from a narrow range (so some repeat), from the encoder's
    // packing over small ids, and at the id limits; every emplace keeps
    // the first value, like std::unordered_map::emplace.
    std::mt19937_64 rng(20261020);
    std::vector<uint64_t> limits = keysAtIdLimits();
    auto randomKey = [&]() -> uint64_t {
        switch (rng() % 4) {
          case 0:
            return rng() % 5000;
          case 1:
            return encoder::RelationEncoder::pairKey(
                static_cast<int>(rng() % 300), static_cast<int>(rng() % 64),
                static_cast<int>(rng() % 64));
          case 2:
            return limits[rng() % limits.size()];
          default:
            return rng() >> 1;
        }
    };
    FlatMap<int32_t> flat;
    std::unordered_map<uint64_t, int32_t> reference;
    for (int32_t step = 0; step < 40000; ++step) {
        uint64_t key = randomKey();
        auto [it, inserted] = reference.emplace(key, step);
        const int32_t &stored = flat.emplace(key, step);
        ASSERT_EQ(stored, it->second) << "step " << step;
        ASSERT_EQ(flat.size(), reference.size()) << "step " << step;
        // A lookup of a key that is probably absent, and of one that is
        // present.
        uint64_t probe = randomKey();
        auto want = reference.find(probe);
        const int32_t *got = flat.find(probe);
        if (want == reference.end()) {
            ASSERT_EQ(got, nullptr) << "step " << step;
        } else {
            ASSERT_NE(got, nullptr) << "step " << step;
            ASSERT_EQ(*got, want->second) << "step " << step;
        }
        ASSERT_NE(flat.find(key), nullptr);
        ASSERT_EQ(*flat.find(key), it->second);
    }
    // Several growths happened (16 slots at first, half full at most).
    EXPECT_GT(reference.size(), 8000u);
    for (const auto &[key, value] : reference) {
        ASSERT_NE(flat.find(key), nullptr);
        EXPECT_EQ(*flat.find(key), value);
    }
    EXPECT_EQ(FlatMap<int32_t>().find(0), nullptr);
}

} // namespace
} // namespace gpumc
