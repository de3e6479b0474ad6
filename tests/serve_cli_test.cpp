/**
 * @file
 * gpumc-serve end to end, over a real TCP socket: the daemon is
 * fork/exec'd with an ephemeral port, exercised by one or many client
 * connections (round trips, warm-cache hits, malformed and oversized
 * lines, a concurrent soak), and shut down with SIGTERM — which must
 * exit 0 after answering everything in flight. Also pins the
 * gpumc-corpus thin client: `--server=ADDR` must agree with the local
 * engine on the same corpus.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/json.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A gpumc-serve child process listening on an ephemeral TCP port. */
class Daemon {
  public:
    explicit Daemon(const std::vector<std::string> &extraArgs = {})
    {
        int outPipe[2];
        if (pipe(outPipe) != 0)
            return;
        pid_ = fork();
        if (pid_ == 0) {
            dup2(outPipe[1], STDOUT_FILENO);
            close(outPipe[0]);
            close(outPipe[1]);
            std::string tool =
                std::string(GPUMC_TOOL_DIR) + "/gpumc-serve";
            std::vector<std::string> args = {
                tool, "--listen=127.0.0.1:0", "--jobs=2"};
            args.insert(args.end(), extraArgs.begin(),
                        extraArgs.end());
            std::vector<char *> argv;
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            execv(tool.c_str(), argv.data());
            std::perror("execv gpumc-serve");
            _exit(127);
        }
        close(outPipe[1]);

        // First stdout line: "listening on 127.0.0.1:PORT".
        std::string line;
        char c;
        while (read(outPipe[0], &c, 1) == 1 && c != '\n')
            line.push_back(c);
        close(outPipe[0]);
        auto colon = line.rfind(':');
        if (colon != std::string::npos)
            port_ = std::atoi(line.c_str() + colon + 1);
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    bool running() const { return pid_ > 0 && port_ > 0; }
    int port() const { return port_; }

    /** SIGTERM and reap; returns the exit status (-1 on failure). */
    int terminate()
    {
        if (pid_ <= 0)
            return -1;
        kill(pid_, SIGTERM);
        int status = 0;
        if (waitpid(pid_, &status, 0) != pid_)
            return -1;
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    pid_t pid_ = -1;
    int port_ = 0;
};

/** One blocking client connection speaking the line protocol. */
class Client {
  public:
    explicit Client(int port)
    {
        fd_ = socket(AF_INET, SOCK_STREAM, 0);
        struct sockaddr_in addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                    sizeof addr) != 0) {
            close(fd_);
            fd_ = -1;
        }
    }

    ~Client()
    {
        if (fd_ >= 0)
            close(fd_);
    }

    bool connected() const { return fd_ >= 0; }

    bool send(const std::string &line)
    {
        std::string framed = line + "\n";
        const char *data = framed.data();
        size_t left = framed.size();
        while (left > 0) {
            ssize_t n = write(fd_, data, left);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return false;
            }
            data += n;
            left -= static_cast<size_t>(n);
        }
        return true;
    }

    /** Read one response line (blocking); empty on EOF/error. */
    std::string recvLine()
    {
        std::string line;
        for (;;) {
            auto nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            ssize_t n = read(fd_, chunk, sizeof chunk);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return "";
            }
            buffer_.append(chunk, static_cast<size_t>(n));
        }
    }

    std::string roundTrip(const std::string &line)
    {
        return send(line) ? recvLine() : "";
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

std::string
verifyLine(const std::string &litmus, int id = 1)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"litmus\":" + jsonString(litmus) +
           ",\"model\":\"ptx-v6.0\"}";
}

JsonValue
parsed(const std::string &line)
{
    std::string error;
    JsonValue doc = parseJson(line, error);
    EXPECT_TRUE(error.empty()) << error << ": " << line;
    return doc;
}

TEST(ServeCli, RoundTripWarmCacheAndCleanSigterm)
{
    Daemon daemon;
    ASSERT_TRUE(daemon.running());
    Client client(daemon.port());
    ASSERT_TRUE(client.connected());

    JsonValue pong =
        parsed(client.roundTrip(R"({"id":"hi","op":"ping"})"));
    EXPECT_EQ(pong.find("status")->text, "ok");

    std::string source =
        readFile(litmusPath("ptx/basic/mp-weak.litmus"));
    ASSERT_FALSE(source.empty());

    JsonValue cold = parsed(client.roundTrip(verifyLine(source)));
    ASSERT_EQ(cold.find("status")->text, "ok");
    EXPECT_EQ(cold.find("cache")->text, "miss");

    // The identical request again — now answered from the result
    // cache, with the identical verdict.
    JsonValue warm = parsed(client.roundTrip(verifyLine(source)));
    ASSERT_EQ(warm.find("status")->text, "ok");
    EXPECT_EQ(warm.find("cache")->text, "hit");
    EXPECT_EQ(warm.find("holds")->boolean,
              cold.find("holds")->boolean);
    EXPECT_EQ(warm.find("detail")->text, cold.find("detail")->text);

    // A second connection shares the engine (and its caches).
    Client other(daemon.port());
    ASSERT_TRUE(other.connected());
    JsonValue shared = parsed(other.roundTrip(verifyLine(source)));
    EXPECT_EQ(shared.find("cache")->text, "hit");

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeCli, MalformedAndOversizedLinesAnswerErrors)
{
    Daemon daemon;
    ASSERT_TRUE(daemon.running());
    Client client(daemon.port());
    ASSERT_TRUE(client.connected());

    JsonValue bad = parsed(client.roundTrip("this is not json"));
    EXPECT_EQ(bad.find("status")->text, "error");

    // An oversized line (> 4 MiB, no newline yet) is answered as soon
    // as the limit trips; the connection then resynchronizes at the
    // next newline and keeps serving.
    std::string huge(5u << 20, 'x');
    ASSERT_TRUE(client.send(huge));
    JsonValue overflow = parsed(client.recvLine());
    EXPECT_EQ(overflow.find("status")->text, "error");
    EXPECT_NE(overflow.find("message")->text.find("exceeds"),
              std::string::npos);

    JsonValue pong =
        parsed(client.roundTrip(R"({"id":2,"op":"ping"})"));
    EXPECT_EQ(pong.find("status")->text, "ok");

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeCli, ShutdownOpStopsTheDaemon)
{
    Daemon daemon;
    ASSERT_TRUE(daemon.running());
    Client client(daemon.port());
    ASSERT_TRUE(client.connected());
    JsonValue ack =
        parsed(client.roundTrip(R"({"id":9,"op":"shutdown"})"));
    EXPECT_EQ(ack.find("status")->text, "ok");
    // The daemon exits on its own — no signal needed. Reap it via the
    // terminate() path, which must find it already gone or exiting 0.
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeCli, ConcurrentClientSoak)
{
    Daemon daemon;
    ASSERT_TRUE(daemon.running());

    const std::string sources[] = {
        readFile(litmusPath("ptx/basic/mp-weak.litmus")),
        readFile(litmusPath("ptx/basic/sb-weak.litmus")),
    };

    constexpr int kClients = 4;
    constexpr int kRequests = 8;
    std::vector<std::vector<std::string>> details(
        kClients, std::vector<std::string>(kRequests));
    std::vector<int> failures(kClients, 0);

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Client client(daemon.port());
            if (!client.connected()) {
                failures[c] = kRequests;
                return;
            }
            for (int r = 0; r < kRequests; ++r) {
                const std::string &source = sources[r % 2];
                std::string response = client.roundTrip(
                    verifyLine(source, c * kRequests + r));
                std::string error;
                JsonValue doc = parseJson(response, error);
                const JsonValue *status =
                    error.empty() ? doc.find("status") : nullptr;
                if (!status || status->text != "ok") {
                    failures[c]++;
                    continue;
                }
                details[c][static_cast<size_t>(r)] =
                    doc.find("detail")->text;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    // Every request answered ok, and verdicts agree across clients
    // for the same source (they all hit the same cache entries).
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[c], 0) << "client " << c;
        for (int r = 0; r < kRequests; ++r)
            EXPECT_EQ(details[static_cast<size_t>(c)]
                             [static_cast<size_t>(r)],
                      details[0][static_cast<size_t>(r % 2)])
                << "client " << c << " request " << r;
    }

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeCli, DeploymentFlagsReachTheDaemon)
{
    std::string cacheFile = ::testing::TempDir() + "gpumc_serve_cli_cache_" +
                            std::to_string(getpid()) + ".jsonl";
    std::remove(cacheFile.c_str());
    // One worker, a one-slot queue, one cached verdict, one live
    // session, and a 100 ms cap on every request.
    Daemon daemon({"--jobs=1", "--queue=1", "--result-cache=1",
                   "--session-cache=1", "--max-timeout=100",
                   "--cache-file=" + cacheFile});
    ASSERT_TRUE(daemon.running());
    Client client(daemon.port());
    ASSERT_TRUE(client.connected());

    // Two programs: each evicts the other from the one-entry result
    // cache and session pool.
    for (const char *file :
         {"ptx/basic/mp-weak.litmus", "ptx/basic/sb-weak.litmus"}) {
        JsonValue done = parsed(
            client.roundTrip(verifyLine(readFile(litmusPath(file)))));
        ASSERT_NE(done.find("status"), nullptr) << file;
        ASSERT_EQ(done.find("status")->text, "ok") << file;
        EXPECT_FALSE(done.find("unknown")->boolean) << file;
    }

    // Three requests at once whose solve alone needs far more than
    // 100 ms: the worker takes one, the queue holds at most one more,
    // the rest are overloaded, and the cap leaves every admitted one
    // unknown.
    std::string slow =
        readFile(litmusPath("ptx/paper/fig13-ticket-mutex.litmus"));
    std::string lines;
    for (int id = 10; id < 13; ++id) {
        lines += (lines.empty() ? "" : "\n") + std::string("{\"id\":") +
                 std::to_string(id) + ",\"litmus\":" + jsonString(slow) +
                 ",\"model\":\"ptx-v6.0\",\"bound\":8}";
    }
    ASSERT_TRUE(client.send(lines));
    int overloaded = 0;
    for (int i = 0; i < 3; ++i) {
        JsonValue response = parsed(client.recvLine());
        ASSERT_NE(response.find("status"), nullptr);
        const std::string &status = response.find("status")->text;
        if (status == "overloaded") {
            overloaded++;
            continue;
        }
        ASSERT_EQ(status, "ok");
        EXPECT_TRUE(response.find("unknown")->boolean);
    }
    EXPECT_GE(overloaded, 1);

    JsonValue metrics =
        parsed(client.roundTrip(R"({"id":20,"op":"metrics"})"));
    const JsonValue *results = metrics.find("result_cache");
    const JsonValue *sessions = metrics.find("session_cache");
    const JsonValue *executor = metrics.find("executor");
    ASSERT_TRUE(results && sessions && executor);
    EXPECT_EQ(results->find("size")->number, 1);
    EXPECT_EQ(results->find("evictions")->number, 1);
    EXPECT_EQ(sessions->find("size")->number, 1);
    EXPECT_GE(sessions->find("evictions")->number, 1);
    EXPECT_EQ(executor->find("rejected")->number, overloaded);

    // The cache file is written on shutdown.
    EXPECT_EQ(daemon.terminate(), 0);
    EXPECT_FALSE(readFile(cacheFile).empty());
    std::remove(cacheFile.c_str());
}

TEST(ServeCli, BadBoundAnswersAnErrorAndTheDaemonLives)
{
    Daemon daemon;
    ASSERT_TRUE(daemon.running());
    Client client(daemon.port());
    ASSERT_TRUE(client.connected());

    std::string source = readFile(litmusPath("ptx/basic/mp-weak.litmus"));
    JsonValue bad = parsed(client.roundTrip(
        "{\"id\":1,\"litmus\":" + jsonString(source) +
        ",\"model\":\"ptx-v6.0\",\"bound\":0}"));
    ASSERT_NE(bad.find("status"), nullptr);
    EXPECT_EQ(bad.find("status")->text, "error");

    JsonValue pong =
        parsed(client.roundTrip(R"({"id":2,"op":"ping"})"));
    ASSERT_NE(pong.find("status"), nullptr);
    EXPECT_EQ(pong.find("status")->text, "ok");

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeCli, BadLiteralAnswersAnErrorAndTheDaemonLives)
{
    // The parser used to throw std::out_of_range here, which nothing
    // caught: the daemon aborted before the next request.
    Daemon daemon;
    ASSERT_TRUE(daemon.running());
    Client client(daemon.port());
    ASSERT_TRUE(client.connected());

    std::string source = readFile(litmusPath("ptx/basic/sb-weak.litmus"));
    const std::string literal = "99999999999999999999";
    source.replace(source.find("st.weak x, 1") + 11, 1, literal);
    JsonValue bad = parsed(client.roundTrip(
        "{\"id\":1,\"litmus\":" + jsonString(source) +
        ",\"model\":\"ptx-v6.0\"}"));
    ASSERT_NE(bad.find("status"), nullptr);
    EXPECT_EQ(bad.find("status")->text, "error");
    ASSERT_NE(bad.find("message"), nullptr);
    EXPECT_NE(bad.find("message")->text.find(literal), std::string::npos)
        << bad.find("message")->text;

    JsonValue pong =
        parsed(client.roundTrip(R"({"id":2,"op":"ping"})"));
    ASSERT_NE(pong.find("status"), nullptr);
    EXPECT_EQ(pong.find("status")->text, "ok");

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeCli, StdioModeServesAPipe)
{
    // The default transport: requests on stdin, responses on stdout,
    // exit 0 at the shutdown op.
    std::string cmd =
        "printf '%s\\n' "
        "'{\"id\":1,\"op\":\"ping\"}' "
        "'{\"op\":\"shutdown\"}' | \"" +
        std::string(GPUMC_TOOL_DIR) + "/gpumc-serve\" --stdio 2>&1";
    FILE *out = popen(cmd.c_str(), "r");
    ASSERT_NE(out, nullptr);
    std::string output;
    char chunk[4096];
    size_t n;
    while ((n = fread(chunk, 1, sizeof chunk, out)) > 0)
        output.append(chunk, n);
    int status = pclose(out);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << output;
    EXPECT_NE(output.find("\"pong\":true"), std::string::npos)
        << output;
    EXPECT_NE(output.find("\"shutdown\":true"), std::string::npos)
        << output;
}

TEST(ServeCli, CorpusThinClientMatchesLocalRun)
{
    Daemon daemon;
    ASSERT_TRUE(daemon.running());

    std::string corpus = std::string(GPUMC_TOOL_DIR) + "/gpumc-corpus";
    std::string dir = litmusPath("ptx/basic");
    std::string local = "\"" + corpus + "\" \"" + dir +
                        "\" > /dev/null 2>&1";
    std::string remote = "\"" + corpus + "\" \"" + dir +
                         "\" --server=127.0.0.1:" +
                         std::to_string(daemon.port()) +
                         " > /dev/null 2>&1";

    int localStatus = std::system(local.c_str());
    int remoteStatus = std::system(remote.c_str());
    ASSERT_TRUE(WIFEXITED(localStatus));
    ASSERT_TRUE(WIFEXITED(remoteStatus));
    EXPECT_EQ(WEXITSTATUS(localStatus), 0);
    EXPECT_EQ(WEXITSTATUS(remoteStatus), WEXITSTATUS(localStatus));

    EXPECT_EQ(daemon.terminate(), 0);
}

} // namespace
} // namespace gpumc::test
