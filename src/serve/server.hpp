/**
 * @file
 * gpumc-serve transports: stdio, TCP and unix-domain listeners over
 * one shared Engine.
 *
 * All three speak the same line-delimited JSON protocol. Each socket
 * connection gets a reader thread plus a CompletionQueue that delivers
 * responses in enqueue order off the verification workers — a client
 * that stops reading backs up its own queue, never the solvers.
 *
 * Shutdown: SIGTERM/SIGINT write to a self-pipe that wakes the accept
 * loop; the server stops accepting, half-closes every connection so
 * readers see EOF, waits for in-flight requests to respond, and run()
 * returns 0. A `shutdown` request does the same from the wire.
 *
 * Oversized lines (> kMaxLineBytes without a newline) are answered
 * with an error response and input is resynchronized at the next
 * newline.
 */

#ifndef GPUMC_SERVE_SERVER_HPP
#define GPUMC_SERVE_SERVER_HPP

#include <condition_variable>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace gpumc::serve {

struct ServerOptions {
    /** TCP listener; active when port >= 0 (0 = ephemeral port). */
    std::string host = "127.0.0.1";
    int port = -1;
    /** Unix-domain listener; active when non-empty. */
    std::string unixPath;
    /** stdio mode (stdin/stdout): the default when neither is set. */
    bool stdio = false;
};

class Server {
  public:
    Server(Engine &engine, ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve until EOF (stdio), a `shutdown` request, or SIGTERM /
     * SIGINT. Prints one `listening on ...` line to stdout before
     * accepting (socket modes). Returns the process exit code.
     */
    int run();

    /** Ask a running run() to stop (thread-safe, signal-unsafe). */
    void requestStop();

  private:
    struct Connection;

    int runStdio();
    int runListener();
    void serveConnection(Connection &conn);

    Engine &engine_;
    ServerOptions options_;
    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};

    /**
     * Live connections. Each runs on a detached thread that erases
     * its entry (under the mutex) and frees itself when the client
     * goes away, so idle history never accumulates threads; shutdown
     * half-closes every member and waits for the set to empty.
     */
    std::mutex connectionsMutex_;
    std::condition_variable connectionsCv_;
    std::vector<Connection *> connections_;
};

} // namespace gpumc::serve

#endif // GPUMC_SERVE_SERVER_HPP
