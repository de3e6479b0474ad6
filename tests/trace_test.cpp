/**
 * @file
 * Observability-layer tests (`ctest -L obs`): the Chrome trace JSON
 * and metrics JSON emitted by `trace::Tracer` must be strictly valid,
 * spans must nest properly per thread lane, the exported counters must
 * reconcile with `VerificationResult::stats`, and the corpus tool's
 * `--json` report must survive control characters injected through
 * file names and error messages.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "core/batch_verifier.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"
#include "tests/strict_json.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

namespace fs = std::filesystem;

/**
 * Arms the process-wide tracer for one test and guarantees it is
 * disabled and drained again afterwards, so obs tests cannot leak
 * events into each other (or into unrelated suites in this binary).
 */
class TracerGuard {
  public:
    TracerGuard()
    {
        trace::Tracer::instance().reset();
        trace::Tracer::instance().enable();
    }
    ~TracerGuard()
    {
        trace::Tracer::instance().disable();
        trace::Tracer::instance().reset();
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
chromeTraceText()
{
    std::ostringstream os;
    trace::Tracer::instance().writeChromeTrace(os);
    return os.str();
}

std::string
metricsText()
{
    std::ostringstream os;
    trace::Tracer::instance().writeMetrics(os);
    return os.str();
}

prog::Program
mpWeakProgram()
{
    return litmus::parseLitmusFile(
        litmusPath("ptx/basic/mp-weak.litmus"));
}

struct FlatSpan {
    std::string name;
    int64_t tid = 0;
    int64_t ts = 0;
    int64_t dur = 0;
};

/** All "ph":"X" complete events of a strictly-parsed Chrome trace. */
std::vector<FlatSpan>
completeSpans(const JsonValue &traceDoc)
{
    std::vector<FlatSpan> spans;
    for (const JsonValue &event : traceDoc.at("traceEvents").array) {
        if (event.at("ph").str != "X")
            continue;
        FlatSpan span;
        span.name = event.at("name").str;
        span.tid = static_cast<int64_t>(event.at("tid").number);
        span.ts = static_cast<int64_t>(event.at("ts").number);
        span.dur = static_cast<int64_t>(event.at("dur").number);
        spans.push_back(std::move(span));
    }
    return spans;
}

/**
 * Chrome's model requires spans on one thread lane to nest: sorted by
 * (ts ascending, dur descending), every span must lie entirely inside
 * the open span below it on the stack, or start after it ended.
 */
void
expectWellNested(std::vector<FlatSpan> spans)
{
    std::map<int64_t, std::vector<FlatSpan>> byTid;
    for (FlatSpan &span : spans)
        byTid[span.tid].push_back(std::move(span));
    for (auto &[tid, lane] : byTid) {
        std::stable_sort(lane.begin(), lane.end(),
                         [](const FlatSpan &a, const FlatSpan &b) {
                             if (a.ts != b.ts)
                                 return a.ts < b.ts;
                             return a.dur > b.dur;
                         });
        std::vector<FlatSpan> stack;
        for (const FlatSpan &span : lane) {
            while (!stack.empty() &&
                   stack.back().ts + stack.back().dur <= span.ts) {
                stack.pop_back();
            }
            if (!stack.empty()) {
                const FlatSpan &parent = stack.back();
                EXPECT_GE(span.ts, parent.ts)
                    << span.name << " starts before enclosing "
                    << parent.name << " on lane " << tid;
                EXPECT_LE(span.ts + span.dur, parent.ts + parent.dur)
                    << span.name << " overflows enclosing "
                    << parent.name << " on lane " << tid;
            }
            stack.push_back(span);
        }
    }
}

std::map<std::string, int>
spanNameCounts(const std::vector<FlatSpan> &spans)
{
    std::map<std::string, int> counts;
    for (const FlatSpan &span : spans)
        counts[span.name]++;
    return counts;
}

TEST(JsonEscape, RoundTripsControlCharacters)
{
    const std::string original =
        "quote\" slash\\ nl\n tab\t cr\r bell\x07 nul\x01 done";
    JsonValue parsed =
        parseStrictJson("\"" + jsonEscape(original) + "\"");
    ASSERT_TRUE(parsed.isString());
    EXPECT_EQ(parsed.str, original);
}

TEST(StrictJson, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseStrictJson("{\"a\": 1,}"), std::runtime_error);
    EXPECT_THROW(parseStrictJson("[1, 2] trailing"),
                 std::runtime_error);
    EXPECT_THROW(parseStrictJson("\"raw\ncontrol\""),
                 std::runtime_error);
    EXPECT_THROW(parseStrictJson("{\"a\": 01}"), std::runtime_error);
    EXPECT_THROW(parseStrictJson("{\"a\": \"\\x\"}"),
                 std::runtime_error);
    EXPECT_THROW(parseStrictJson("{\"a\": 1, \"a\": 2}"),
                 std::runtime_error);
}

TEST(Trace, CheckAllEmitsStrictlyValidWellNestedSpans)
{
    TracerGuard guard;
    prog::Program program = mpWeakProgram();
    core::Verifier verifier(program, ptx60Model());
    std::vector<core::VerificationResult> results = verifier.checkAll();
    ASSERT_EQ(results.size(), 3u);

    JsonValue doc = parseStrictJson(chromeTraceText());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
    std::vector<FlatSpan> spans = completeSpans(doc);
    expectWellNested(spans);

    std::map<std::string, int> counts = spanNameCounts(spans);
    // One shared session: the pipeline phases ran exactly once...
    EXPECT_EQ(counts["session-build"], 1);
    EXPECT_EQ(counts["phase:unroll"], 1);
    EXPECT_EQ(counts["phase:exec-analysis"], 1);
    EXPECT_EQ(counts["phase:relation-analysis"], 1);
    EXPECT_EQ(counts["phase:structure-encode"], 1);
    // ...while each of the three properties got its own check and
    // encode interval, and every solver query its own solve interval
    // (PTX has no flagged axioms, so cat_spec holds without a query).
    EXPECT_EQ(counts["check"], 3);
    EXPECT_EQ(counts["encode"], 3);
    EXPECT_EQ(counts["solve"],
              static_cast<int>(results.back().stats.get(
                  "queriesOnSharedSession")));
    EXPECT_GE(counts["solve"], 2);
}

TEST(Trace, MetricsReconcileWithVerificationResultStats)
{
    TracerGuard guard;
    prog::Program program = mpWeakProgram();
    core::Verifier verifier(program, ptx60Model());
    std::vector<core::VerificationResult> results = verifier.checkAll();
    ASSERT_EQ(results.size(), 3u);

    // The tracer's counter registry must agree with the per-result
    // stats: gauges carry the maximum, everything else the sum, except
    // queriesOnSharedSession, a running total per session: the tracer
    // counts the queries issued (the third check, cat_spec on PTX,
    // holds without one).
    trace::Tracer &tracer = trace::Tracer::instance();
    std::map<std::string, int64_t> sums;
    std::map<std::string, int64_t> maxes;
    for (const core::VerificationResult &result : results) {
        for (const auto &[key, value] : result.stats.all()) {
            sums[key] += value;
            maxes[key] = std::max(maxes[key], value);
        }
    }
    for (const auto &[key, sum] : sums) {
        bool gauge = key == "events" || key == "smtVars" ||
                     key == "smtClauses" || key == "smtAcyclicEdges";
        if (key == "queriesOnSharedSession")
            continue;
        EXPECT_EQ(tracer.counter(key), gauge ? maxes[key] : sum)
            << "counter " << key;
    }
    EXPECT_EQ(results.back().stats.get("queriesOnSharedSession"), 2);
    EXPECT_EQ(tracer.counter("queriesOnSharedSession"), 2);

    // The span aggregates of the metrics export must reconcile with
    // the phase times the results report. Build-phase spans come from
    // the same stopwatches (floored vs rounded microseconds: <= 2 off);
    // the solve spans wrap the solve calls with only bookkeeping
    // between the two clocks.
    JsonValue metrics = parseStrictJson(metricsText());
    const JsonValue &spanAggs = metrics.at("spans");
    auto total = [&](const char *name) {
        return static_cast<int64_t>(
            spanAggs.at(name).at("totalUs").number);
    };
    EXPECT_NEAR(total("phase:unroll"),
                results[0].stats.get("phaseUnrollUs"), 2.0);
    EXPECT_NEAR(total("phase:exec-analysis"),
                results[0].stats.get("phaseExecAnalysisUs"), 2.0);
    EXPECT_NEAR(total("phase:relation-analysis"),
                results[0].stats.get("phaseRelAnalysisUs"), 2.0);
    EXPECT_NEAR(total("solve"), sums["phaseSolveUs"], 10000.0);

    // Every counter in the registry appears in the metrics JSON.
    const JsonValue &counterObj = metrics.at("counters");
    for (const auto &[key, value] : tracer.counters()) {
        ASSERT_TRUE(counterObj.has(key)) << "metrics miss " << key;
        EXPECT_EQ(static_cast<int64_t>(counterObj.at(key).number),
                  value);
    }
}

TEST(Trace, PerRelationCountersCoverBaseRelations)
{
    TracerGuard guard;
    // corw-cycle's coherence axiom survives the relation analysis with
    // a non-empty upper bound, so the encoder does real per-relation
    // work (mp-weak is decided statically and would attribute nothing).
    prog::Program program = litmus::parseLitmusFile(
        litmusPath("ptx/basic/corw-cycle.litmus"));
    core::Verifier verifier(program, ptx60Model());
    verifier.checkSafety();

    std::map<std::string, int64_t> counters =
        trace::Tracer::instance().counters();
    // The communication relations of every .cat model must be
    // attributed, with both bound sizes from the relation analysis.
    for (const char *rel : {"po", "rf", "co"}) {
        std::string prefix = std::string("rel.") + rel;
        EXPECT_TRUE(counters.count(prefix + ".ubPairs")) << prefix;
        EXPECT_TRUE(counters.count(prefix + ".lbPairs")) << prefix;
        EXPECT_GT(counters[prefix + ".ubPairs"], 0) << prefix;
    }
    // Bound counters always come in lb/ub pairs, and at least one
    // relation accumulated encoding sizes.
    bool sawEncodingSize = false;
    for (const auto &[key, value] : counters) {
        if (key.rfind("rel.", 0) != 0)
            continue;
        auto suffixIs = [&](const char *suffix) {
            std::string s(suffix);
            return key.size() > s.size() &&
                   key.compare(key.size() - s.size(), s.size(), s) == 0;
        };
        if (suffixIs(".ubPairs")) {
            std::string base = key.substr(0, key.size() - 8);
            EXPECT_TRUE(counters.count(base + ".lbPairs")) << key;
        }
        if (suffixIs(".vars") || suffixIs(".clauses"))
            sawEncodingSize = sawEncodingSize || value > 0;
    }
    EXPECT_TRUE(sawEncodingSize);
}

TEST(Trace, BatchVerifierWorkersGetNamedLanesAndJobSpans)
{
    TracerGuard guard;
    prog::Program program = mpWeakProgram();
    std::vector<core::BatchJob> batch;
    for (core::Property property :
         {core::Property::Safety, core::Property::Liveness,
          core::Property::CatSpec, core::Property::Safety}) {
        core::BatchJob job;
        job.program = &program;
        job.model = &ptx60Model();
        job.property = property;
        job.label = "mp-weak";
        batch.push_back(std::move(job));
    }
    core::BatchVerifier engine(2);
    std::vector<core::BatchEntry> entries = engine.run(batch);
    ASSERT_EQ(entries.size(), batch.size());
    for (const core::BatchEntry &entry : entries)
        EXPECT_FALSE(entry.failed) << entry.error;

    JsonValue doc = parseStrictJson(chromeTraceText());
    std::vector<FlatSpan> spans = completeSpans(doc);
    expectWellNested(spans);
    EXPECT_EQ(spanNameCounts(spans)["batch-job"],
              static_cast<int>(batch.size()));

    int workerLanes = 0;
    for (const JsonValue &event : doc.at("traceEvents").array) {
        if (event.at("ph").str == "M" &&
            event.at("name").str == "thread_name" &&
            event.at("args").at("name").str == "batch-worker") {
            workerLanes++;
        }
    }
    EXPECT_GE(workerLanes, 1);
    EXPECT_LE(workerLanes, 2);
}

TEST(Trace, DisabledTracerCollectsNothing)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.disable();
    tracer.reset();

    prog::Program program = mpWeakProgram();
    core::Verifier verifier(program, ptx60Model());
    verifier.checkSafety();

    EXPECT_TRUE(tracer.counters().empty());
    JsonValue doc = parseStrictJson(chromeTraceText());
    EXPECT_TRUE(doc.at("traceEvents").array.empty());
    JsonValue metrics = parseStrictJson(metricsText());
    EXPECT_TRUE(metrics.at("counters").object.empty());
    EXPECT_TRUE(metrics.at("spans").object.empty());
}

/**
 * End-to-end round trip of the corpus tool's machine-readable outputs:
 * a corpus containing a file whose *name* embeds a newline and whose
 * parse error lands in the report must still produce strictly valid
 * JSON, as must the --trace/--metrics files of the same run.
 */
TEST(Trace, CorpusJsonSurvivesControlCharacters)
{
    fs::path dir =
        fs::temp_directory_path() / "gpumc_obs_corpus_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // One healthy test, plus one unparsable file with a newline in its
    // file name (legal on POSIX) so control characters flow through
    // the "file" fields and the error message.
    fs::copy_file(litmusPath("ptx/basic/mp-weak.litmus"),
                  dir / "valid.litmus");
    {
        std::ofstream bad(dir / "bad\nname.litmus");
        bad << "this is not a litmus test\n";
    }

    fs::path jsonPath = dir / "report.json";
    fs::path tracePath = dir / "trace.json";
    fs::path metricsPath = dir / "metrics.json";
    std::string cmd = std::string("\"") + GPUMC_TOOL_DIR +
                      "/gpumc-corpus\" \"" + dir.string() +
                      "\" --jobs=2 --json=\"" + jsonPath.string() +
                      "\" --trace=\"" + tracePath.string() +
                      "\" --metrics=\"" + metricsPath.string() +
                      "\" > /dev/null 2>&1";
    int status = std::system(cmd.c_str());
    // The broken file is an ERROR verdict, so the tool exits 1 — but
    // it must exit cleanly, not crash.
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);

    JsonValue report = parseStrictJson(readFile(jsonPath.string()));
    ASSERT_TRUE(report.at("errors").isArray());
    ASSERT_EQ(report.at("errors").array.size(), 1u);
    const JsonValue &error = report.at("errors").array[0];
    EXPECT_NE(error.at("file").str.find('\n'), std::string::npos)
        << "newline in the file name must round-trip";
    EXPECT_FALSE(error.at("message").str.empty());
    EXPECT_FALSE(report.at("queries").array.empty());
    EXPECT_EQ(static_cast<int>(
                  report.at("summary").at("errors").number),
              1);

    // The tracing side-channels of the same run parse strictly too.
    JsonValue traceDoc =
        parseStrictJson(readFile(tracePath.string()));
    EXPECT_FALSE(traceDoc.at("traceEvents").array.empty());
    expectWellNested(completeSpans(traceDoc));
    JsonValue metrics =
        parseStrictJson(readFile(metricsPath.string()));
    EXPECT_FALSE(metrics.at("counters").object.empty());

    fs::remove_all(dir);
}

} // namespace
} // namespace gpumc::test
