#include "serve/engine.hpp"

#include <algorithm>
#include <future>
#include <sstream>

#include "litmus/litmus_parser.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace gpumc::serve {

namespace {

std::string
formatMs(double ms)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", ms);
    return buf;
}

std::string
okVerifyResponse(const std::string &id,
                 const core::VerificationResult &result, bool cacheHit,
                 double requestMs, const std::string &fingerprint)
{
    std::string out = "{\"id\":" + id + ",\"status\":\"ok\"";
    out += ",\"holds\":";
    out += result.holds ? "true" : "false";
    out += ",\"unknown\":";
    out += result.unknown ? "true" : "false";
    out += ",\"detail\":" + jsonString(result.detail);
    out += ",\"cache\":\"";
    out += cacheHit ? "hit" : "miss";
    out += "\",\"time_ms\":" + formatMs(requestMs);
    out += ",\"fingerprint\":" + jsonString(fingerprint);
    out += "}";
    return out;
}

} // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      resultCache_(options_.resultCacheCapacity),
      sessions_(options_.sessionCacheCapacity),
      executor_(std::make_unique<Executor>(
          options_.jobs, options_.maxQueued, "serve-worker"))
{
    if (!options_.cacheFile.empty())
        resultCache_.loadFromFile(options_.cacheFile);
}

Engine::~Engine()
{
    // Join the workers first: a verify still in flight during shutdown
    // must land in the cache before the snapshot is written.
    executor_.reset();
    if (!options_.cacheFile.empty())
        resultCache_.saveToFile(options_.cacheFile);
}

void
Engine::drain()
{
    executor_->drain();
}

std::shared_ptr<const cat::CatModel>
Engine::resolveModel(const Request &req)
{
    if (!req.model.empty()) {
        {
            std::lock_guard<std::mutex> lock(modelsMutex_);
            auto it = namedModels_.find(req.model);
            if (it != namedModels_.end())
                return it->second;
        }
        // Load outside the lock (file I/O + parse); a racing duplicate
        // load is harmless, first insert wins.
        std::string path = options_.catDir.empty()
                               ? req.model + ".cat"
                               : options_.catDir + "/" + req.model +
                                     ".cat";
        auto model = std::make_shared<const cat::CatModel>(
            cat::CatModel::fromFile(path));
        std::lock_guard<std::mutex> lock(modelsMutex_);
        auto [it, inserted] = namedModels_.emplace(req.model, model);
        return it->second;
    }

    auto model = std::make_shared<const cat::CatModel>(
        cat::CatModel::fromSource(req.modelSource));
    std::lock_guard<std::mutex> lock(modelsMutex_);
    // Dedup by content fingerprint: re-sent identical sources pin one
    // object, and *changed* sources get a fresh entry even if the
    // allocator recycles an old model's address (the session key is
    // content-based too, so this is belt and braces, not correctness).
    auto [it, inserted] =
        inlineModels_.emplace(model->fingerprint(), model);
    return it->second;
}

std::string
Engine::metricsResponse(const std::string &id) const
{
    ResultCache::Counters rc = resultCache_.counters();
    SessionPool::Counters sc = sessions_.counters();
    Executor::Counters ec = executor_->counters();
    int64_t requests, errors;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        requests = requests_;
        errors = errors_;
    }

    std::ostringstream out;
    out << "{\"id\":" << id << ",\"status\":\"ok\""
        << ",\"requests\":" << requests << ",\"errors\":" << errors
        << ",\"result_cache\":{\"hits\":" << rc.hits
        << ",\"misses\":" << rc.misses
        << ",\"evictions\":" << rc.evictions << ",\"size\":" << rc.size
        << ",\"load_failed\":" << rc.loadFailed
        << "},\"session_cache\":{\"hits\":" << sc.hits
        << ",\"misses\":" << sc.misses
        << ",\"evictions\":" << sc.evictions << ",\"size\":" << sc.size
        << "},\"executor\":{\"accepted\":" << ec.accepted
        << ",\"rejected\":" << ec.rejected
        << ",\"executed\":" << ec.executed
        << ",\"max_queue_depth\":" << ec.maxQueueDepth << "}";
    // The PR-4 observability metrics ride along continuously: when the
    // process tracer is enabled, its full counters + span aggregates
    // export is embedded verbatim (it is a JSON object).
    if (trace::Tracer::instance().enabled()) {
        std::ostringstream tracer;
        trace::Tracer::instance().writeMetrics(tracer);
        out << ",\"tracer\":" << tracer.str();
    }
    out << "}";
    return out.str();
}

bool
Engine::handle(const std::string &line, Respond respond)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        requests_++;
    }

    Request req;
    std::string error;
    if (!parseRequest(line, req, error)) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            errors_++;
        }
        respond(errorResponse(req.id, error));
        return true;
    }

    switch (req.op) {
      case Op::Ping:
        respond("{\"id\":" + req.id +
                ",\"status\":\"ok\",\"pong\":true}");
        return true;
      case Op::Metrics:
        respond(metricsResponse(req.id));
        return true;
      case Op::Shutdown:
        respond("{\"id\":" + req.id +
                ",\"status\":\"ok\",\"shutdown\":true}");
        return false;
      case Op::Verify:
        handleVerify(std::move(req), respond);
        return true;
    }
    return true;
}

void
Engine::handleVerify(Request req, const Respond &respond)
{
    Stopwatch requestTimer;

    // Parse inputs inline: errors answer immediately, and the parsed
    // program/model give us the fingerprints the cache lookup needs.
    std::shared_ptr<const prog::Program> program;
    std::shared_ptr<const cat::CatModel> model;
    try {
        program = std::make_shared<const prog::Program>(
            litmus::parseLitmus(req.litmus));
        model = resolveModel(req);
    } catch (const FatalError &error) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            errors_++;
        }
        respond(errorResponse(req.id, error.what()));
        return;
    }

    core::VerifierOptions vopts;
    vopts.backend = req.backend;
    vopts.bound = req.bound;
    // The server never extracts witnesses: responses carry verdicts,
    // and witness objects would make cached and fresh results differ.
    vopts.wantWitness = false;
    int64_t budgetMs = req.timeoutMs;
    if (options_.maxTimeoutMs > 0 &&
        (budgetMs == 0 || budgetMs > options_.maxTimeoutMs))
        budgetMs = options_.maxTimeoutMs;

    // The key leaves the budget out: a definitive verdict does not
    // depend on it, and the live deadline below is armed per request.
    core::SessionKey key = core::sessionKey(*program, *model, vopts);
    ResultKey resultKey{key, static_cast<int>(req.property)};
    std::string fingerprint =
        program->fingerprint().str() + model->fingerprint().str();

    if (!req.noCache) {
        if (std::optional<CachedResult> hit =
                resultCache_.lookup(resultKey)) {
            core::VerificationResult result;
            result.property = req.property;
            result.holds = hit->holds;
            result.detail = hit->detail;
            respond(okVerifyResponse(req.id, result, true,
                                     requestTimer.elapsedMs(),
                                     fingerprint));
            return;
        }
    }

    // Admission: the deadline starts now and covers queueing, so a
    // request stuck behind a full queue spends its own budget, not a
    // fresh one. The task takes the request; keep its id for the
    // overloaded answer.
    Deadline deadline = Deadline::in(budgetMs);
    std::string id = req.id;
    auto task = [this, req = std::move(req), respond, program, model,
                 vopts, key, resultKey, fingerprint = std::move(fingerprint),
                 deadline, requestTimer]() mutable {
        core::VerificationResult result;
        result.property = req.property;
        if (deadline.limited() && deadline.expired()) {
            result.unknown = true;
            result.detail = "deadline exhausted while queued";
            respond(okVerifyResponse(req.id, result, false,
                                     requestTimer.elapsedMs(),
                                     fingerprint));
            return;
        }

        std::unique_ptr<LiveSession> session = sessions_.checkout(key);
        if (!session) {
            session = std::make_unique<LiveSession>();
            session->program = program;
            session->model = model;
        }
        bool poisoned = false;
        Stopwatch solveTimer;
        try {
            if (!session->verifier) {
                session->verifier = std::make_unique<core::Verifier>(
                    *session->program, *session->model, vopts);
            }
            // Arm what is left of this request's budget on the live
            // session, which an earlier request with another budget
            // may have created. Like smt::armTimeLimit, a limited
            // budget never maps to 0 (unlimited): it is at least 1 ms.
            session->verifier->setSolverTimeoutMs(
                deadline.limited()
                    ? std::max<int64_t>(1, deadline.remainingMs())
                    : 0);
            result = session->verifier->check(req.property);
        } catch (const FatalError &error) {
            poisoned = true;
            result.unknown = true;
            result.detail = error.what();
        } catch (const std::exception &error) {
            poisoned = true;
            result.unknown = true;
            result.detail = error.what();
        }
        if (poisoned) {
            // Same policy as BatchVerifier: a session that threw is
            // discarded, never recycled half-encoded.
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                errors_++;
            }
            respond(errorResponse(req.id, result.detail));
            return;
        }
        // The session the checkin displaces is torn down only after
        // the answer has gone out.
        std::unique_ptr<LiveSession> displaced =
            sessions_.checkin(key, std::move(session));

        // Cache definitive verdicts only: unknown means the budget ran
        // out, and a later identical request may bring more budget.
        if (!req.noCache && !result.unknown) {
            CachedResult cached;
            cached.holds = result.holds;
            cached.detail = result.detail;
            cached.solveMs = solveTimer.elapsedMs();
            resultCache_.insert(resultKey, std::move(cached));
        }
        respond(okVerifyResponse(req.id, result, false,
                                 requestTimer.elapsedMs(),
                                 fingerprint));
        displaced.reset();
    };

    if (executor_->trySubmit(std::move(task)) ==
        Executor::Admit::Overloaded) {
        respond(overloadedResponse(id));
    }
}

std::string
Engine::handleSync(const std::string &line)
{
    std::promise<std::string> promise;
    std::future<std::string> future = promise.get_future();
    handle(line, [&promise](const std::string &response) {
        promise.set_value(response);
    });
    return future.get();
}

} // namespace gpumc::serve
