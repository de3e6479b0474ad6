/**
 * @file
 * `serve`: a gpumc-serve daemon on a unix socket, driven closed-loop
 * over `jobs` connections (at most 4) by a seeded request stream. The only
 * workload that exercises the wire protocol, the result cache, the
 * session pool and executor admission.
 *
 * The corpus is the shipped corpus queries of the `litmus` workload
 * plus XF-barrier and lock-weakening kernels sent as inline litmus
 * (litmus::emitLitmus). The stream replays it whole four times, as
 * `gpumc-corpus --server` sends a corpus (see kReplays).
 *
 * A round starts a fresh daemon, drives the whole stream, reads the
 * `metrics` op and shuts the daemon down; rounds repeat until the
 * timed phase is over. Verdict gate: each response against its query's
 * reference (`@expect` or Table 7's column), and against the first
 * answer to the same query.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "kernels/sync_kernels.hpp"
#include "litmus/litmus_emitter.hpp"
#include "litmus/litmus_parser.hpp"
#include "serve/protocol.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace gpubench {

namespace {

namespace fs = std::filesystem;

/** Budget of every request, as `gpumc-corpus --timeout=MS` sets it. */
constexpr int64_t kTimeoutMs = 120000;
constexpr size_t kNone = static_cast<size_t>(-1);
/** Rounds per end-to-end run, at least: each one also times a set-up. */
constexpr size_t kMinRounds = 3;

/** One whole-corpus replay of the stream. */
struct Replay {
    const char *name;
    int64_t timeoutMs;
    bool noCache;
};

/**
 * The replays of a round, in order. The first two are the daemon's
 * documented use (docs/SERVING.md): a corpus run against a cold daemon
 * (every request a miss), then the same run again (every request a
 * result-cache hit). The third re-runs with only the timeout changed:
 * every request misses today, because the budget is part of the
 * session key. The fourth re-runs with `no_cache`, the session-pool
 * path: a file's first query rebuilds its session, its later queries
 * on the same session are pool hits. Each replay is a quarter of the
 * stream, so a quarter of the responses are result-cache hits.
 */
constexpr Replay kReplays[] = {
    {"cold", kTimeoutMs, false},
    {"warm", kTimeoutMs, false},
    {"timeout", kTimeoutMs + 1000, false},
    {"no_cache", kTimeoutMs, true},
};

/** One wire request of the stream. */
struct Request {
    /** Index of the distinct query it asks. */
    size_t query = 0;
    int64_t timeoutMs = kTimeoutMs;
    bool noCache = false;
    /** Stream index of the previous request on the same session. */
    size_t after = kNone;
};

struct ServeSetup {
    Models models;
    Inputs inputs;
    std::vector<Request> stream;
    /** Request lines, pre-rendered (the id is the stream index). */
    std::vector<std::string> lines;
};

/** The kernels sent as inline litmus, with Table 7's verdicts. */
void
addKernels(Inputs &inputs, const Models &models, bool tiny)
{
    using kernels::KernelGrid;
    using kernels::LockVariant;
    using kernels::XfVariant;
    const KernelGrid g22{2, 2};
    struct Kernel {
        prog::Program program;
        bool buggy;
        bool drf;
    };
    std::vector<Kernel> list;
    list.push_back({kernels::buildXfBarrier(g22, XfVariant::Base), false,
                    true});
    list.push_back(
        {kernels::buildXfBarrier(g22, XfVariant::AcqToRlx1), true, false});
    if (!tiny) {
        for (XfVariant v : {XfVariant::AcqToRlx2, XfVariant::RelToRlx1,
                            XfVariant::RelToRlx2}) {
            list.push_back({kernels::buildXfBarrier(g22, v), true, false});
        }
        list.push_back({kernels::buildTicketlock(g22, LockVariant::Rel2Rlx),
                        true, false});
    }
    for (Kernel &k : list) {
        inputs.sources.push_back(litmus::emitLitmus(k.program));
        const std::string *source = &inputs.sources.back();
        // The daemon verifies what it parses, so the client's copy of
        // the program (for the mirror and the SAT/UNSAT split) is
        // parsed from the same text.
        inputs.programs.push_back(litmus::parseLitmus(*source));
        const prog::Program &p = inputs.programs.back();
        auto add = [&](core::Property property, bool expect) {
            Query q;
            q.program = &p;
            q.model = models.vulkan.get();
            q.modelName = "vulkan";
            q.property = property;
            q.expect = expect;
            q.label = k.program.name;
            q.source = source;
            inputs.queries.push_back(std::move(q));
        };
        add(core::Property::Safety, k.buggy);
        if (k.drf)
            add(core::Property::CatSpec, true);
    }
}

/**
 * The seeded stream: kReplays, each a whole-corpus replay. Like
 * `gpumc-corpus --server`, a replay sends every query of a file in
 * turn (its directives, model by model), one file after another. The
 * seed fixes the file order, the same in every replay, as a re-run of
 * the same client would send it. The client holds each request back
 * until the previous request on the same session has been answered
 * (Request::after), as gpumc-corpus does, so the sets of result-cache
 * and session-pool hits depend neither on timing nor on the seed.
 */
std::vector<Request>
makeStream(const Inputs &inputs, uint64_t seed)
{
    // Files: runs of consecutive queries on the same litmus text.
    std::vector<std::pair<size_t, size_t>> files;
    for (size_t q = 0; q < inputs.queries.size(); ++q) {
        if (q == 0 || inputs.queries[q].source != inputs.queries[q - 1].source)
            files.push_back({q, q + 1});
        else
            files.back().second = q + 1;
    }
    seededShuffle(files, seed);

    std::map<std::tuple<const prog::Program *, const cat::CatModel *, int>,
             size_t>
        lastOnSession;
    std::vector<Request> stream;
    for (const Replay &replay : kReplays) {
        for (const auto &[first, end] : files) {
            for (size_t q = first; q < end; ++q) {
                const Query &query = inputs.queries[q];
                Request r{q, replay.timeoutMs, replay.noCache, kNone};
                auto [it, inserted] = lastOnSession.try_emplace(
                    std::make_tuple(query.program, query.model, query.bound),
                    stream.size());
                if (!inserted) {
                    r.after = it->second;
                    it->second = stream.size();
                }
                stream.push_back(r);
            }
        }
    }
    return stream;
}

std::string
requestLine(size_t id, const Query &q, const Request &r)
{
    std::string line = "{\"id\":" + std::to_string(id) +
                       ",\"op\":\"verify\",\"litmus\":" + jsonString(*q.source) +
                       ",\"model\":" + jsonString(q.modelName) +
                       ",\"property\":\"" +
                       serve::propertyWireName(q.property) +
                       "\",\"bound\":" + std::to_string(q.bound) +
                       ",\"timeout_ms\":" + std::to_string(r.timeoutMs);
    if (r.noCache)
        line += ",\"no_cache\":true";
    return line + "}";
}

ServeSetup
setUp(const Options &opts, Traced *traced)
{
    ServeSetup s;
    {
        MaybeSpan span(traced, "cat.load");
        s.models = loadModels(opts);
    }
    {
        MaybeSpan span(traced, "litmus.parse");
        addShippedFiles(s.inputs, opts, s.models);
        addKernels(s.inputs, s.models, opts.tiny);
    }
    s.stream = makeStream(s.inputs, opts.seed);
    for (size_t i = 0; i < s.stream.size(); ++i) {
        s.lines.push_back(
            requestLine(i, s.inputs.queries[s.stream[i].query], s.stream[i]));
    }
    return s;
}

/** A blocking line-oriented connection to the daemon. */
class Connection {
  public:
    /** Returns false while the daemon is not accepting yet. */
    bool connectTo(const std::string &path)
    {
        fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        struct sockaddr_un sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof sa.sun_path)
            fatal("cannot create a socket for ", path);
        std::strncpy(sa.sun_path, path.c_str(), sizeof sa.sun_path - 1);
        if (connect(fd_, reinterpret_cast<struct sockaddr *>(&sa),
                    sizeof sa) == 0)
            return true;
        close(fd_);
        fd_ = -1;
        return false;
    }

    ~Connection()
    {
        if (fd_ >= 0)
            close(fd_);
    }

    std::string roundTrip(const std::string &line)
    {
        std::string out = line + "\n";
        for (size_t done = 0; done < out.size();) {
            // MSG_NOSIGNAL: a daemon that died must fail the round,
            // not kill the benchmark with SIGPIPE before it cleans up.
            ssize_t n = send(fd_, out.data() + done, out.size() - done,
                             MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                fatal("gpumc-serve connection write failed");
            done += static_cast<size_t>(n);
        }
        for (;;) {
            size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string response = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return response;
            }
            char chunk[65536];
            ssize_t n = read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                fatal("gpumc-serve closed the connection");
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/**
 * One gpumc-serve process. The destructor makes sure it is gone:
 * SIGTERM, then SIGKILL, and always waited for.
 */
class Daemon {
  public:
    Daemon(const Options &opts, const std::string &tag)
    {
        fs::path dir = fs::absolute(opts.outDir);
        std::string sockName = "serve-" + std::to_string(getpid()) + "-" +
                               tag + ".sock";
        // Unix socket paths are short: address it relative to the
        // working directory, and let the daemon bind it from its own.
        socketPath_ = fs::relative(dir / sockName).string();
        fs::remove(dir / sockName);
        std::string log = (dir / ("serve-" + tag + ".log")).string();
        std::string catDir = fs::absolute(opts.root + "/cat").string();
        std::vector<std::string> args = {
            opts.serveBin, "--unix=" + sockName,
            "--jobs=" + std::to_string(opts.jobs), "--cat-dir=" + catDir};
        pid_ = fork();
        if (pid_ < 0)
            fatal("fork failed");
        if (pid_ == 0) {
            int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                dup2(fd, STDOUT_FILENO);
                dup2(fd, STDERR_FILENO);
            }
            if (chdir(dir.c_str()) != 0)
                _exit(127);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(argv[0], argv.data());
            _exit(127);
        }
        sockFile_ = dir / sockName;
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGTERM);
            if (!waitFor(5.0)) {
                kill(pid_, SIGKILL);
                waitFor(-1);
            }
        }
        std::error_code ignored;
        fs::remove(sockFile_, ignored);
    }

    /** Connect, retrying until the daemon accepts (or 30 s pass). */
    std::unique_ptr<Connection> connectWhenReady() const
    {
        double deadline = nowSec() + 30;
        for (;;) {
            auto conn = std::make_unique<Connection>();
            if (conn->connectTo(socketPath_))
                return conn;
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_)
                fatal("gpumc-serve exited during start-up");
            if (nowSec() > deadline)
                fatal("gpumc-serve did not start within 30 s");
            usleep(2000);
        }
    }

    /** Ask for a clean shutdown; returns the daemon's peak RSS in MiB. */
    double shutdown(Connection &conn)
    {
        conn.roundTrip("{\"op\":\"shutdown\"}");
        if (!waitFor(30.0))
            fatal("gpumc-serve did not shut down");
        return maxRssMb_;
    }

  private:
    /** Reap the daemon within @p seconds (< 0: block). */
    bool waitFor(double seconds)
    {
        double deadline = nowSec() + seconds;
        for (;;) {
            int status = 0;
            struct rusage usage;
            pid_t r = wait4(pid_, &status, seconds < 0 ? 0 : WNOHANG, &usage);
            if (r == pid_) {
                pid_ = -1;
                maxRssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
                return true;
            }
            if (r < 0 && errno != EINTR) {
                pid_ = -1;
                return true;
            }
            if (seconds >= 0 && nowSec() > deadline)
                return false;
            usleep(2000);
        }
    }

    pid_t pid_ = -1;
    std::string socketPath_;
    fs::path sockFile_;
    double maxRssMb_ = 0;
};

/** One response, as the client saw it. */
struct Response {
    bool ok = false;
    bool unknown = false;
    bool holds = false;
    bool hit = false;
    double clientMs = 0;
    double engineMs = 0;
};

/** The daemon's own counters from the `metrics` op. */
struct DaemonMetrics {
    double hits = 0, misses = 0, sessionHits = 0, sessionMisses = 0;
    double rejected = 0, maxQueueDepth = 0;
};

struct Round {
    std::vector<Response> responses;
    DaemonMetrics metrics;
    double driveSec = 0;
    double rssMb = 0;
};

double
member(const JsonValue &doc, const char *object, const char *key)
{
    const JsonValue *o = doc.find(object);
    const JsonValue *v = o ? o->find(key) : nullptr;
    return v && v->isNumber() ? v->number : 0;
}

/** Start a daemon, drive the stream closed-loop, stop the daemon. */
Round
driveRound(const Options &opts, const ServeSetup &s, Daemon &daemon)
{
    Round round;
    round.responses.resize(s.lines.size());
    unsigned connections = std::max(1u, std::min(opts.jobs, 4u));
    std::vector<std::unique_ptr<Connection>> conns;
    for (unsigned c = 0; c < connections; ++c)
        conns.push_back(daemon.connectWhenReady());

    std::atomic<size_t> next{0};
    std::mutex errorMutex;
    std::string error;
    // Completion flags for Request::after: a request waits until the
    // previous one on its session has been answered.
    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::vector<char> done(s.lines.size(), 0);
    double start = nowSec();
    std::vector<std::thread> threads;
    auto client = [&](unsigned c) {
        try {
            for (size_t i = next++; i < s.lines.size(); i = next++) {
                size_t after = s.stream[i].after;
                if (after != kNone) {
                    std::unique_lock<std::mutex> lock(doneMutex);
                    doneCv.wait(lock, [&] { return done[after] != 0; });
                }
                double t0 = nowSec();
                std::string line = conns[c]->roundTrip(s.lines[i]);
                Response &r = round.responses[i];
                r.clientMs = (nowSec() - t0) * 1000.0;
                std::string parseError;
                JsonValue doc = parseJson(line, parseError);
                const JsonValue *status = doc.find("status");
                r.ok = parseError.empty() && status &&
                       status->isString() && status->text == "ok";
                {
                    std::lock_guard<std::mutex> lock(doneMutex);
                    done[i] = 1;
                }
                doneCv.notify_all();
                if (!r.ok)
                    continue;
                const JsonValue *v;
                r.unknown = (v = doc.find("unknown")) && v->boolean;
                r.holds = (v = doc.find("holds")) && v->boolean;
                r.hit = (v = doc.find("cache")) && v->text == "hit";
                if ((v = doc.find("time_ms")) && v->isNumber())
                    r.engineMs = v->number;
            }
        } catch (const std::exception &e) {
            {
                std::lock_guard<std::mutex> lock(errorMutex);
                error = e.what();
                next = s.lines.size();
            }
            // Release any request waiting on one this thread owned.
            std::lock_guard<std::mutex> lock(doneMutex);
            std::fill(done.begin(), done.end(), 1);
            doneCv.notify_all();
        }
    };
    try {
        for (unsigned c = 0; c < connections; ++c)
            threads.emplace_back(client, c);
    } catch (...) {
        // Could not start a client: stop and join the ones running.
        next = s.lines.size();
        {
            std::lock_guard<std::mutex> lock(doneMutex);
            std::fill(done.begin(), done.end(), 1);
        }
        doneCv.notify_all();
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    for (std::thread &t : threads)
        t.join();
    round.driveSec = nowSec() - start;
    if (!error.empty())
        fatal("serve round failed: ", error);

    std::string parseError;
    JsonValue metrics =
        parseJson(conns[0]->roundTrip("{\"op\":\"metrics\"}"), parseError);
    DaemonMetrics &m = round.metrics;
    m.hits = member(metrics, "result_cache", "hits");
    m.misses = member(metrics, "result_cache", "misses");
    m.sessionHits = member(metrics, "session_cache", "hits");
    m.sessionMisses = member(metrics, "session_cache", "misses");
    m.rejected = member(metrics, "executor", "rejected");
    m.maxQueueDepth = member(metrics, "executor", "max_queue_depth");
    round.rssMb = daemon.shutdown(*conns[0]);
    return round;
}

/**
 * Gate one round: every response against its query's reference and
 * against the first answer the run saw for the same query.
 */
void
gateRound(const ServeSetup &s, const Round &round,
          std::map<size_t, bool> &firstAnswer, Report &report)
{
    for (size_t i = 0; i < round.responses.size(); ++i) {
        const Response &r = round.responses[i];
        const Query &q = s.inputs.queries[s.stream[i].query];
        report.attempted++;
        if (!r.ok || r.unknown) {
            report.failed++;
            continue;
        }
        auto [it, first] = firstAnswer.emplace(s.stream[i].query, r.holds);
        if (!first && it->second != r.holds) {
            report.mismatch("request " + std::to_string(i) + " (" + q.label +
                            "): answer differs from an earlier one");
        }
        if (!q.expect) {
            report.unchecked++;
            continue;
        }
        report.checked++;
        if (r.holds != *q.expect) {
            report.mismatch("request " + std::to_string(i) + " (" + q.label +
                            " [" + q.modelName + "] " +
                            propertyName(q.property) + "): got " +
                            (r.holds ? "holds" : "fails"));
        }
    }
}

/** Sessions of the distinct queries, for the local reference + mirror. */
std::vector<SessionPlan>
distinctPlans(const Inputs &inputs)
{
    std::vector<SessionPlan> plans;
    std::map<std::tuple<const prog::Program *, const cat::CatModel *, int>,
             size_t>
        index;
    for (const Query &q : inputs.queries) {
        auto key = std::make_tuple(q.program, q.model, q.bound);
        auto [it, inserted] = index.try_emplace(key, plans.size());
        if (inserted) {
            SessionPlan plan;
            plan.name = q.label;
            plan.program = q.program;
            plan.model = q.model;
            plan.options.bound = q.bound;
            plan.options.wantWitness = false;
            plan.options.solverTimeoutMs = kTimeoutMs;
            plans.push_back(std::move(plan));
        }
        plans[it->second].checks.push_back({q.property, q.expect});
    }
    return plans;
}

/** Prints the stream's make-up and the hit share the client saw. */
void
printStream(size_t perRound, size_t responses, size_t hits)
{
    std::cout << "# stream {\"requests_per_round\": " << perRound
              << ", \"replays\": [";
    for (const Replay &replay : kReplays)
        std::cout << (&replay == kReplays ? "" : ", ") << jsonString(replay.name);
    std::cout << "], \"responses\": " << responses
              << ", \"hit_share\": "
              << num(responses ? static_cast<double>(hits) / responses : 0)
              << "}" << std::endl;
}

size_t
countHits(const Round &round)
{
    return static_cast<size_t>(
        std::count_if(round.responses.begin(), round.responses.end(),
                      [](const Response &r) { return r.hit; }));
}

} // namespace

void
runServe(const Options &opts, Report &report, Traced *traced)
{
    std::map<size_t, bool> firstAnswer;
    if (traced) {
        ServeSetup s = setUp(opts, traced);
        Round round;
        {
            Daemon daemon(opts, "traced");
            round = driveRound(opts, s, daemon);
        }
        gateRound(s, round, firstAnswer, report);
        printStream(s.stream.size(), round.responses.size(),
                    countHits(round));

        Layers &layers = traced->layers;
        const DaemonMetrics &m = round.metrics;
        if (m.hits + m.misses > 0)
            layers.set("serve.hit_ratio", m.hits / (m.hits + m.misses));
        if (m.sessionHits + m.sessionMisses > 0) {
            layers.set("serve.session_hit_ratio",
                       m.sessionHits / (m.sessionHits + m.sessionMisses));
        }
        layers.set("serve.rejected", m.rejected);
        layers.set("serve.max_queue_depth", m.maxQueueDepth);
        std::vector<double> engine, transport;
        for (const Response &r : round.responses) {
            engine.push_back(r.engineMs);
            transport.push_back(r.clientMs - r.engineMs);
        }
        layers.set("serve.engine_ms_p50", percentile(engine, 0.50));
        layers.set("serve.engine_ms_p99", percentile(engine, 0.99));
        layers.set("serve.transport_ms_p50", percentile(transport, 0.50));

        std::vector<SessionPlan> plans = distinctPlans(s.inputs);
        double wallSec = 0;
        PlanResults reference = runReference(plans, wallSec);
        coreLayers(reference, 1, wallSec, layers);
        runTraced(plans, reference, traced->spans, layers, report);
        return;
    }

    EndToEnd e2e;
    std::vector<double> rss;
    size_t perRound = 0, responses = 0, hits = 0;
    double start = nowSec();
    do {
        double t0 = nowSec();
        ServeSetup s = setUp(opts, nullptr);
        perRound = s.stream.size();
        Daemon daemon(opts, std::to_string(e2e.passes.size()));
        daemon.connectWhenReady();
        e2e.setupSec.push_back(nowSec() - t0);

        Round round = driveRound(opts, s, daemon);
        rss.push_back(round.rssMb);
        gateRound(s, round, firstAnswer, report);
        responses += round.responses.size();
        hits += countHits(round);
        EndToEnd::Pass pass;
        pass.wallSec = round.driveSec;
        for (size_t i = 0; i < round.responses.size(); ++i) {
            const Response &r = round.responses[i];
            pass.latencyMs.push_back(r.clientMs);
            if (!r.ok || r.hit)
                continue;
            pass.missMs.push_back(r.clientMs);
            double sec = r.engineMs / 1000.0;
            pass.smtSec += sec;
            if (r.unknown)
                continue;
            const Query &q = s.inputs.queries[s.stream[i].query];
            (solverSat(*q.program, q.property, r.holds) ? pass.bugfindSec
                                                         : pass.proofSec) +=
                sec;
        }
        e2e.passes.push_back(std::move(pass));
    } while (e2e.passes.size() < kMinRounds || nowSec() - start < opts.seconds);
    printStream(perRound, responses, hits);
    e2e.peakRssMb = median(rss);
    e2e.emit(report);
}

} // namespace gpubench
