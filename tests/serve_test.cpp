/**
 * @file
 * The gpumc-serve building blocks below the transport: the wire
 * protocol parser, the fingerprint result cache, the live-session
 * pool, and the Engine end to end (in process, no sockets) — including
 * the session-key regression that motivated content fingerprints: a
 * model reloaded at a recycled address must never alias another
 * model's sessions or cached verdicts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>

#include "core/session_key.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/session_pool.hpp"
#include "support/json.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

/** A distinct, structurally plausible session key per seed. */
core::SessionKey
keyOf(uint64_t seed)
{
    return core::SessionKey{seed,  seed + 1, seed + 2, seed + 3,
                            0,     0,        2,        8,
                            true,  false,    false,    false,
                            0,     0,        0};
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ResultCache, HitMissAndLruEviction)
{
    serve::ResultCache cache(2);
    serve::ResultKey a{keyOf(10), 0};
    serve::ResultKey b{keyOf(20), 0};
    serve::ResultKey c{keyOf(30), 0};

    EXPECT_FALSE(cache.lookup(a).has_value());

    serve::CachedResult value;
    value.holds = true;
    value.detail = "condition reachable";
    cache.insert(a, value);
    cache.insert(b, value);

    std::optional<serve::CachedResult> hit = cache.lookup(a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->holds);
    EXPECT_EQ(hit->detail, "condition reachable");

    // a was just refreshed, so inserting c evicts b (the LRU entry).
    cache.insert(c, value);
    EXPECT_TRUE(cache.lookup(a).has_value());
    EXPECT_FALSE(cache.lookup(b).has_value());
    EXPECT_TRUE(cache.lookup(c).has_value());

    serve::ResultCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.hits, 3);
    EXPECT_EQ(counters.misses, 2); // the initial miss + evicted b
    EXPECT_EQ(counters.evictions, 1);
    EXPECT_EQ(counters.size, 2);
}

TEST(ResultCache, SameKeyDifferentPropertyIsDistinct)
{
    serve::ResultCache cache(8);
    serve::CachedResult value;
    value.detail = "safety";
    cache.insert({keyOf(1), 0}, value);
    EXPECT_TRUE(cache.lookup({keyOf(1), 0}).has_value());
    EXPECT_FALSE(cache.lookup({keyOf(1), 1}).has_value());
}

TEST(ResultCache, ZeroCapacityDisables)
{
    serve::ResultCache cache(0);
    cache.insert({keyOf(1), 0}, {});
    EXPECT_FALSE(cache.lookup({keyOf(1), 0}).has_value());
}

TEST(ResultCache, SaveAndLoadRoundTripPreservesLruOrder)
{
    const std::string path =
        ::testing::TempDir() + "gpumc_result_cache_roundtrip.jsonl";
    std::remove(path.c_str());

    serve::ResultCache cache(3);
    // Fingerprints above 2^53 prove the decimal-string encoding: as
    // JSON numbers (doubles) they would come back corrupted.
    serve::ResultKey a{keyOf((uint64_t{1} << 62) + 7), 0};
    serve::ResultKey b{keyOf(20), 1};
    serve::ResultKey c{keyOf(30), 2};
    serve::CachedResult value;
    value.holds = true;
    value.detail = "condition \"quoted\" reachable";
    value.solveMs = 12.5;
    cache.insert(a, value);
    value.holds = false;
    value.detail = "liveness";
    cache.insert(b, value);
    value.detail = "catspec";
    cache.insert(c, value);
    cache.lookup(a); // refresh: LRU order is now b, c, a
    ASSERT_TRUE(cache.saveToFile(path));

    serve::ResultCache reloaded(3);
    ASSERT_TRUE(reloaded.loadFromFile(path));
    EXPECT_EQ(reloaded.counters().size, 3);
    // Loading resets traffic counters: metrics describe this process.
    EXPECT_EQ(reloaded.counters().hits, 0);
    EXPECT_EQ(reloaded.counters().misses, 0);

    std::optional<serve::CachedResult> hit = reloaded.lookup(a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->holds);
    EXPECT_EQ(hit->detail, "condition \"quoted\" reachable");
    EXPECT_DOUBLE_EQ(hit->solveMs, 12.5);
    ASSERT_TRUE(reloaded.lookup(c).has_value());
    EXPECT_EQ(reloaded.lookup(b)->detail, "liveness");

    // The reload restored the LRU *order*, not just the entries: after
    // the same refresh pattern (a, c, b touched above), inserting a
    // fourth entry evicts a — the least recently used.
    reloaded.insert({keyOf(40), 0}, serve::CachedResult{});
    EXPECT_FALSE(reloaded.lookup(a).has_value());
    EXPECT_TRUE(reloaded.lookup(b).has_value());
    EXPECT_TRUE(reloaded.lookup(c).has_value());
    std::remove(path.c_str());
}

TEST(ResultCache, LoadFallsBackColdOnBadFiles)
{
    const std::string path =
        ::testing::TempDir() + "gpumc_result_cache_bad.jsonl";

    // Missing file: cold start, no error escalation.
    std::remove(path.c_str());
    serve::ResultCache cache(4);
    EXPECT_FALSE(cache.loadFromFile(path));
    EXPECT_EQ(cache.counters().size, 0);

    // Garbage content.
    {
        std::ofstream out(path);
        out << "this is not a cache file\n";
    }
    EXPECT_FALSE(cache.loadFromFile(path));
    EXPECT_EQ(cache.counters().size, 0);

    // Valid header, wrong key arity (a future gpumc's file): cold.
    {
        std::ofstream out(path);
        out << "{\"gpumc_result_cache\":2,\"key_fields\":99}\n";
    }
    EXPECT_FALSE(cache.loadFromFile(path));
    EXPECT_EQ(cache.counters().size, 0);

    // A corrupt entry after valid ones: the whole load starts cold —
    // no partially-trusted cache.
    cache.insert({keyOf(1), 0}, serve::CachedResult{});
    ASSERT_TRUE(cache.saveToFile(path));
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"key\":[\"broken\"]}\n";
    }
    serve::ResultCache partial(4);
    EXPECT_FALSE(partial.loadFromFile(path));
    EXPECT_EQ(partial.counters().size, 0);
    std::remove(path.c_str());
}

TEST(ResultCache, SaveIsAtomicAndLeavesNoTempFile)
{
    const std::string path =
        ::testing::TempDir() + "gpumc_result_cache_atomic.jsonl";
    const std::string tmpPath = path + ".tmp";
    std::remove(path.c_str());
    std::remove(tmpPath.c_str());

    serve::ResultCache cache(4);
    serve::CachedResult value;
    value.holds = true;
    cache.insert({keyOf(1), 0}, value);
    ASSERT_TRUE(cache.saveToFile(path));
    // The temp file was renamed into place, not left behind.
    EXPECT_FALSE(std::ifstream(tmpPath).good());
    EXPECT_TRUE(std::ifstream(path).good());

    // A second save over an existing file replaces it wholesale; the
    // reloaded cache sees exactly the latest contents.
    cache.insert({keyOf(2), 1}, value);
    ASSERT_TRUE(cache.saveToFile(path));
    EXPECT_FALSE(std::ifstream(tmpPath).good());
    serve::ResultCache reloaded(4);
    ASSERT_TRUE(reloaded.loadFromFile(path));
    EXPECT_EQ(reloaded.counters().size, 2);
    std::remove(path.c_str());
}

TEST(ResultCache, CorruptLoadIsCountedMissingFileIsNot)
{
    const std::string path =
        ::testing::TempDir() + "gpumc_result_cache_loadfail.jsonl";

    // Missing file: silent cold start, no failure counted.
    std::remove(path.c_str());
    serve::ResultCache cache(4);
    EXPECT_FALSE(cache.loadFromFile(path));
    EXPECT_EQ(cache.counters().loadFailed, 0);

    // Corrupt file: counted (and warned about on stderr), so a
    // wiped-out persisted cache shows up in the metrics endpoint
    // instead of masquerading as a cold start.
    {
        std::ofstream out(path);
        out << "definitely not json\n";
    }
    EXPECT_FALSE(cache.loadFromFile(path));
    EXPECT_EQ(cache.counters().loadFailed, 1);

    // A later successful load keeps the failure count: it describes
    // this process's history, not the last attempt.
    serve::ResultCache donor(4);
    donor.insert({keyOf(1), 0}, serve::CachedResult{});
    ASSERT_TRUE(donor.saveToFile(path));
    EXPECT_TRUE(cache.loadFromFile(path));
    EXPECT_EQ(cache.counters().loadFailed, 1);
    EXPECT_EQ(cache.counters().size, 1);
    std::remove(path.c_str());
}

TEST(SessionPool, CheckoutRemovesAndCheckinEvictsLru)
{
    serve::SessionPool pool(2);
    EXPECT_EQ(pool.checkout(keyOf(1)), nullptr);

    EXPECT_EQ(pool.checkin(keyOf(1), std::make_unique<serve::LiveSession>()),
              nullptr);
    EXPECT_EQ(pool.checkin(keyOf(2), std::make_unique<serve::LiveSession>()),
              nullptr);

    // checkout removes: a second checkout of the same key misses
    // (concurrent requests never share one live solver).
    std::unique_ptr<serve::LiveSession> session = pool.checkout(keyOf(1));
    EXPECT_NE(session, nullptr);
    EXPECT_EQ(pool.checkout(keyOf(1)), nullptr);
    EXPECT_EQ(pool.checkin(keyOf(1), std::move(session)), nullptr);

    // Key 1 is most recent; key 3 evicts key 2.
    EXPECT_NE(pool.checkin(keyOf(3), std::make_unique<serve::LiveSession>()),
              nullptr);
    EXPECT_NE(pool.checkout(keyOf(1)), nullptr);
    EXPECT_EQ(pool.checkout(keyOf(2)), nullptr);
    EXPECT_NE(pool.checkout(keyOf(3)), nullptr);

    serve::SessionPool::Counters counters = pool.counters();
    EXPECT_EQ(counters.evictions, 1);
}

/** A session whose program sets @p destroyed when it is freed. */
std::unique_ptr<serve::LiveSession>
trackedSession(bool &destroyed)
{
    auto session = std::make_unique<serve::LiveSession>();
    session->program = std::shared_ptr<const prog::Program>(
        new prog::Program(), [&destroyed](const prog::Program *program) {
            destroyed = true;
            delete program;
        });
    return session;
}

TEST(SessionPool, CheckinHandsBackDisplacedSessionsUndestroyed)
{
    // The pool destroys nothing under its lock: a checkin gives the
    // session it displaces back to the caller, alive.
    // The flags outlive the pools, which free what they still hold.
    bool firstGone = false;
    bool secondGone = false;
    bool thirdGone = false;
    bool keptGone = false;
    serve::SessionPool pool(1);
    std::unique_ptr<serve::LiveSession> first = trackedSession(firstGone);
    const prog::Program *firstProgram = first->program.get();
    EXPECT_EQ(pool.checkin(keyOf(1), std::move(first)), nullptr);

    // Evicted: key 2 pushes key 1 out of a pool of one.
    std::unique_ptr<serve::LiveSession> evicted =
        pool.checkin(keyOf(2), trackedSession(secondGone));
    ASSERT_NE(evicted, nullptr);
    EXPECT_EQ(evicted->program.get(), firstProgram);
    EXPECT_FALSE(firstGone);
    evicted.reset();
    EXPECT_TRUE(firstGone);

    // Replaced: a second checkin under key 2 keeps the newer session.
    std::unique_ptr<serve::LiveSession> replaced =
        pool.checkin(keyOf(2), trackedSession(thirdGone));
    ASSERT_NE(replaced, nullptr);
    EXPECT_FALSE(secondGone);
    replaced.reset();
    EXPECT_TRUE(secondGone);
    EXPECT_FALSE(thirdGone);
    EXPECT_EQ(pool.counters().evictions, 1);

    // A pool of no sessions hands every checkin straight back.
    serve::SessionPool none(0);
    EXPECT_NE(none.checkin(keyOf(3), trackedSession(keptGone)), nullptr);
    EXPECT_TRUE(keptGone);
}

TEST(SessionKey, ReloadedModelAtRecycledAddressGetsFreshKey)
{
    // Regression: the key used to contain the raw CatModel pointer.
    // In a long-lived server a model reloaded at a recycled allocation
    // then aliased the *previous* occupant's sessions and verdicts —
    // a different memory model silently answered from a stale cache.
    // The key must track model content, not identity.
    prog::Program program =
        litmus::parseLitmusFile(litmusPath("ptx/basic/mp-weak.litmus"));
    core::VerifierOptions options;

    alignas(cat::CatModel) unsigned char storage[sizeof(cat::CatModel)];
    auto *slot = reinterpret_cast<cat::CatModel *>(storage);

    new (slot) cat::CatModel(
        cat::CatModel::fromFile(catPath("ptx-v6.0.cat")));
    core::SessionKey ptx60 = core::sessionKey(program, *slot, options);
    slot->~CatModel();

    // Different model content at the exact same address.
    new (slot) cat::CatModel(
        cat::CatModel::fromFile(catPath("ptx-v7.5.cat")));
    core::SessionKey ptx75 = core::sessionKey(program, *slot, options);
    slot->~CatModel();

    // Same content again, still the same address.
    new (slot) cat::CatModel(
        cat::CatModel::fromFile(catPath("ptx-v6.0.cat")));
    core::SessionKey ptx60Again =
        core::sessionKey(program, *slot, options);
    slot->~CatModel();

    EXPECT_NE(ptx60, ptx75);
    EXPECT_EQ(ptx60, ptx60Again);

    // And conversely: equal content at a *different* address shares.
    cat::CatModel elsewhere =
        cat::CatModel::fromFile(catPath("ptx-v6.0.cat"));
    EXPECT_EQ(ptx60, core::sessionKey(program, elsewhere, options));
}

TEST(Protocol, ParsesFullVerifyRequest)
{
    serve::Request req;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(
        R"({"id":"q7","op":"verify","litmus":"PTX mp","model":"ptx-v6.0",)"
        R"("property":"liveness","bound":3,"backend":"z3",)"
        R"("timeout_ms":500,"no_cache":true})",
        req, error))
        << error;
    EXPECT_EQ(req.id, "\"q7\"");
    EXPECT_EQ(req.op, serve::Op::Verify);
    EXPECT_EQ(req.litmus, "PTX mp");
    EXPECT_EQ(req.model, "ptx-v6.0");
    EXPECT_EQ(req.property, core::Property::Liveness);
    EXPECT_EQ(req.bound, 3);
    EXPECT_EQ(req.backend, smt::BackendKind::Z3);
    EXPECT_EQ(req.timeoutMs, 500);
    EXPECT_TRUE(req.noCache);
}

TEST(Protocol, RejectsMalformedRequests)
{
    struct Case {
        const char *line;
        const char *reason;
    };
    const Case cases[] = {
        {"not json at all", "JSON"},
        {"[1,2,3]", "object"},
        {R"({"op":"explode"})", "op"},
        {R"({"op":"verify"})", "litmus"},
        {R"({"litmus":""})", "litmus"},
        {R"({"litmus":"x"})", "model"},
        {R"({"litmus":"x","model":"a","model_source":"b"})", "model"},
        {R"({"litmus":"x","model":"../etc/passwd"})", "model"},
        {R"({"litmus":"x","model":"a/b"})", "model"},
        {R"({"litmus":"x","model":"m","property":"magic"})", "property"},
        {R"({"litmus":"x","model":"m","bound":65})", "bound"},
        {R"({"litmus":"x","model":"m","bound":-1})", "bound"},
        {R"({"litmus":"x","model":"m","backend":"cvc5"})", "backend"},
        {R"({"litmus":"x","model":"m","backend":"portfolio"})", "backend"},
        {R"({"litmus":"x","model":"m","timeout_ms":-5})", "timeout"},
        {R"({"litmus":"x","model":"m","no_cache":1})", "no_cache"},
        // Integers only, read exactly: no fraction, no exponent, and
        // nothing outside int64_t.
        {R"({"litmus":"x","model":"m","bound":2.7})", "bound"},
        {R"({"litmus":"x","model":"m","bound":2.0})", "bound"},
        {R"({"litmus":"x","model":"m","bound":1e1})", "bound"},
        {R"({"litmus":"x","model":"m","bound":18446744073709551618})",
         "bound"},
        {R"({"litmus":"x","model":"m","bound":"2"})", "bound"},
        {R"({"litmus":"x","model":"m","timeout_ms":0.5})", "timeout"},
        {R"({"litmus":"x","model":"m","timeout_ms":1e3})", "timeout"},
        {R"({"litmus":"x","model":"m","timeout_ms":9223372036854775808})",
         "timeout"},
        {R"({"litmus":"x","model":"m","timeout_ms":-9223372036854775809})",
         "timeout"},
    };
    for (const Case &c : cases) {
        serve::Request req;
        std::string error;
        EXPECT_FALSE(serve::parseRequest(c.line, req, error))
            << c.line;
        // Refused for the case's reason, not for some other field.
        EXPECT_NE(error.find(c.reason), std::string::npos)
            << c.line << " -> " << error;
    }

    // The ends of each range are accepted as they are written.
    serve::Request req;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(
        R"({"litmus":"x","model":"m","bound":64,)"
        R"("timeout_ms":9223372036854775807})",
        req, error))
        << error;
    EXPECT_EQ(req.bound, 64);
    EXPECT_EQ(req.timeoutMs, INT64_MAX);
}

TEST(Protocol, ErrorResponseEchoesNumericId)
{
    serve::Request req;
    std::string error;
    EXPECT_FALSE(serve::parseRequest(R"({"id":42,"op":"bogus"})", req,
                                     error));
    EXPECT_EQ(serve::errorResponse(req.id, "boom"),
              R"({"id":42,"status":"error","message":"boom"})");
    EXPECT_EQ(serve::overloadedResponse("7"),
              R"({"id":7,"status":"overloaded"})");

    // A numeric id comes back as it was written, whatever its value.
    for (const char *id : {"1.5", "12345678901234567890", "-0.25e-3",
                           "-9223372036854775809", "0"}) {
        serve::Request numeric;
        EXPECT_FALSE(serve::parseRequest(
            std::string(R"({"id":)") + id + R"(,"op":"bogus"})", numeric,
            error));
        EXPECT_EQ(serve::errorResponse(numeric.id, "boom"),
                  std::string(R"({"id":)") + id +
                      R"(,"status":"error","message":"boom"})");
    }
}

/** Engine over the shipped cat/ directory with a tiny worker pool. */
serve::EngineOptions
testEngineOptions()
{
    serve::EngineOptions options;
    options.jobs = 2;
    options.catDir = GPUMC_CAT_DIR;
    return options;
}

std::string
verifyLine(const std::string &litmus, const std::string &extra = "")
{
    return "{\"id\":1,\"litmus\":" + jsonString(litmus) +
           ",\"model\":\"ptx-v6.0\"" + extra + "}";
}

TEST(Engine, VerdictMatchesDirectVerifierByteForByte)
{
    std::string source =
        readFile(litmusPath("ptx/basic/mp-weak.litmus"));
    ASSERT_FALSE(source.empty());

    serve::Engine engine(testEngineOptions());
    std::string response = engine.handleSync(verifyLine(source));

    std::string error;
    JsonValue doc = parseJson(response, error);
    ASSERT_TRUE(error.empty()) << error << ": " << response;
    ASSERT_TRUE(doc.find("status")->isString());
    ASSERT_EQ(doc.find("status")->text, "ok") << response;

    // The same query, solved directly (the engine always drops
    // witness extraction).
    prog::Program program = litmus::parseLitmus(source);
    core::VerifierOptions options;
    options.wantWitness = false;
    core::Verifier verifier(program, ptx60Model(), options);
    core::VerificationResult direct = verifier.checkSafety();

    EXPECT_EQ(doc.find("holds")->boolean, direct.holds);
    EXPECT_EQ(doc.find("unknown")->boolean, direct.unknown);
    EXPECT_EQ(doc.find("detail")->text, direct.detail);
    EXPECT_EQ(doc.find("cache")->text, "miss");
    EXPECT_EQ(doc.find("fingerprint")->text,
              program.fingerprint().str() +
                  ptx60Model().fingerprint().str());
}

TEST(Engine, SecondIdenticalRequestHitsTheCache)
{
    std::string source =
        readFile(litmusPath("ptx/basic/sb-weak.litmus"));
    serve::Engine engine(testEngineOptions());

    std::string cold = engine.handleSync(verifyLine(source));
    std::string warm = engine.handleSync(verifyLine(source));

    std::string error;
    JsonValue coldDoc = parseJson(cold, error);
    ASSERT_TRUE(error.empty());
    JsonValue warmDoc = parseJson(warm, error);
    ASSERT_TRUE(error.empty());

    EXPECT_EQ(coldDoc.find("cache")->text, "miss");
    EXPECT_EQ(warmDoc.find("cache")->text, "hit");
    EXPECT_EQ(coldDoc.find("holds")->boolean,
              warmDoc.find("holds")->boolean);
    EXPECT_EQ(coldDoc.find("detail")->text,
              warmDoc.find("detail")->text);

    // no_cache bypasses the verdict cache (a fresh solve, still
    // byte-identical), and never pollutes the counters with a hit.
    std::string bypass = engine.handleSync(
        verifyLine(source, ",\"no_cache\":true"));
    JsonValue bypassDoc = parseJson(bypass, error);
    ASSERT_TRUE(error.empty());
    EXPECT_EQ(bypassDoc.find("cache")->text, "miss");
    EXPECT_EQ(bypassDoc.find("detail")->text,
              coldDoc.find("detail")->text);
}

TEST(Engine, RequestDifferingOnlyInTimeoutHitsTheCache)
{
    // A definitive verdict does not depend on the budget, so the cache
    // key leaves it out.
    std::string source =
        readFile(litmusPath("ptx/basic/sb-weak.litmus"));
    serve::Engine engine(testEngineOptions());

    std::string cold =
        engine.handleSync(verifyLine(source, ",\"timeout_ms\":60000"));
    std::string warm =
        engine.handleSync(verifyLine(source, ",\"timeout_ms\":30000"));

    std::string error;
    JsonValue coldDoc = parseJson(cold, error);
    ASSERT_TRUE(error.empty());
    JsonValue warmDoc = parseJson(warm, error);
    ASSERT_TRUE(error.empty());
    EXPECT_EQ(coldDoc.find("cache")->text, "miss");
    EXPECT_EQ(warmDoc.find("cache")->text, "hit");
    EXPECT_EQ(coldDoc.find("holds")->boolean,
              warmDoc.find("holds")->boolean);
    EXPECT_EQ(coldDoc.find("detail")->text,
              warmDoc.find("detail")->text);
}

TEST(Engine, CacheFilePersistsVerdictsAcrossRestart)
{
    const std::string path =
        ::testing::TempDir() + "gpumc_engine_cache.jsonl";
    std::remove(path.c_str());
    std::string source =
        readFile(litmusPath("ptx/basic/sb-weak.litmus"));
    serve::EngineOptions options = testEngineOptions();
    options.cacheFile = path;

    std::string cold;
    {
        serve::Engine engine(options);
        cold = engine.handleSync(verifyLine(source));
        // Engine destruction snapshots the result cache to cacheFile.
    }

    std::string error;
    JsonValue coldDoc = parseJson(cold, error);
    ASSERT_TRUE(error.empty());
    ASSERT_EQ(coldDoc.find("status")->text, "ok") << cold;
    EXPECT_EQ(coldDoc.find("cache")->text, "miss");

    // A brand-new engine (a daemon restart) answers the identical
    // request from the persisted cache, verdict byte-equal.
    {
        serve::Engine engine(options);
        std::string warm = engine.handleSync(verifyLine(source));
        JsonValue warmDoc = parseJson(warm, error);
        ASSERT_TRUE(error.empty());
        EXPECT_EQ(warmDoc.find("cache")->text, "hit");
        EXPECT_EQ(warmDoc.find("holds")->boolean,
                  coldDoc.find("holds")->boolean);
        EXPECT_EQ(warmDoc.find("detail")->text,
                  coldDoc.find("detail")->text);
    }

    // Corrupt the file: the next restart silently starts cold and
    // still answers (a fresh miss), then rewrites a good snapshot.
    {
        std::ofstream out(path);
        out << "{\"gpumc_result_cache\":999}\n";
    }
    {
        serve::Engine engine(options);
        std::string refilled = engine.handleSync(verifyLine(source));
        JsonValue doc = parseJson(refilled, error);
        ASSERT_TRUE(error.empty());
        ASSERT_EQ(doc.find("status")->text, "ok") << refilled;
        EXPECT_EQ(doc.find("cache")->text, "miss");
    }
    std::remove(path.c_str());
}

TEST(Engine, InlineModelSourceWorksAndDedups)
{
    std::string source =
        readFile(litmusPath("ptx/basic/mp-weak.litmus"));
    std::string model = readFile(catPath("ptx-v6.0.cat"));
    serve::Engine engine(testEngineOptions());

    std::string line = "{\"litmus\":" + jsonString(source) +
                       ",\"model_source\":" + jsonString(model) + "}";
    std::string cold = engine.handleSync(line);
    std::string warm = engine.handleSync(line);

    std::string error;
    JsonValue coldDoc = parseJson(cold, error);
    ASSERT_TRUE(error.empty());
    ASSERT_EQ(coldDoc.find("status")->text, "ok") << cold;
    JsonValue warmDoc = parseJson(warm, error);
    ASSERT_TRUE(error.empty());
    // Identical inline model → identical content fingerprint → the
    // second request is a result-cache hit, exactly like a named one.
    EXPECT_EQ(warmDoc.find("cache")->text, "hit");
}

TEST(Engine, AnswersErrorsInline)
{
    serve::Engine engine(testEngineOptions());
    std::string error;

    // Malformed JSON.
    JsonValue doc = parseJson(engine.handleSync("{nope"), error);
    ASSERT_TRUE(error.empty());
    EXPECT_EQ(doc.find("status")->text, "error");

    // Unknown model name (resolution failure answers as an error).
    doc = parseJson(
        engine.handleSync(
            R"({"litmus":"PTX x","model":"no-such-model"})"),
        error);
    ASSERT_TRUE(error.empty());
    EXPECT_EQ(doc.find("status")->text, "error");

    // Unparsable litmus source.
    doc = parseJson(
        engine.handleSync(verifyLine("this is not litmus")), error);
    ASSERT_TRUE(error.empty());
    EXPECT_EQ(doc.find("status")->text, "error");
}

TEST(Engine, PingMetricsAndShutdown)
{
    std::string source =
        readFile(litmusPath("ptx/basic/mp-weak.litmus"));
    serve::Engine engine(testEngineOptions());

    std::string error;
    JsonValue pong = parseJson(
        engine.handleSync(R"({"id":"p","op":"ping"})"), error);
    ASSERT_TRUE(error.empty());
    EXPECT_EQ(pong.find("status")->text, "ok");

    engine.handleSync(verifyLine(source));
    engine.handleSync(verifyLine(source));
    // The executed counter ticks when the worker retires the task,
    // just after the response is delivered — drain to settle it.
    engine.drain();

    JsonValue metrics = parseJson(
        engine.handleSync(R"({"op":"metrics"})"), error);
    ASSERT_TRUE(error.empty());
    const JsonValue *resultCache = metrics.find("result_cache");
    ASSERT_NE(resultCache, nullptr);
    EXPECT_EQ(resultCache->find("hits")->asInt(), 1);
    EXPECT_EQ(resultCache->find("misses")->asInt(), 1);
    const JsonValue *executor = metrics.find("executor");
    ASSERT_NE(executor, nullptr);
    EXPECT_EQ(executor->find("executed")->asInt(), 1);
    EXPECT_GE(metrics.find("requests")->asInt(), 4);

    // A shutdown op tells the transport to stop (and still responds).
    bool responded = false;
    EXPECT_FALSE(engine.handle(R"({"op":"shutdown"})",
                               [&responded](const std::string &) {
                                   responded = true;
                               }));
    EXPECT_TRUE(responded);
}

} // namespace
} // namespace gpumc::test
