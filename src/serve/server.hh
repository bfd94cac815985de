/**
 * @file
 * The resident analysis daemon behind `ppm serve`.
 *
 * A Server owns one ExperimentEngine (worker pool + RunCache) and one
 * listening socket — a Unix-domain socket path or a TCP port bound to
 * 127.0.0.1, never a routable interface. Each accepted connection
 * gets a reader thread that parses line-delimited `ppm-serve-v1`
 * requests (serve/protocol.hh), runs them, and writes one response
 * line per request, in order.
 *
 * Resource discipline, per request:
 *
 *  - **instruction budget** — `max_instrs` clamped by
 *    ServerOptions::maxInstrsCap; an over-cap request is rejected
 *    with an error response before any work runs;
 *  - **memory budget** — a request line longer than
 *    ServerOptions::maxLineBytes aborts the connection (the stream
 *    itself is malformed at that point); the engine keeps no
 *    instruction stream, and a pass-1 profile lives only while a
 *    request for its (program, input, budget) is in flight, so a
 *    repeated request runs the simulator again (DESIGN.md Sec. 6);
 *  - **admission control** — at most ServerOptions::maxInflight
 *    analyze/trace requests run at once; excess requests receive an
 *    explicit `overloaded` response immediately instead of queueing
 *    without bound.
 *
 * Shutdown: requestStop() is async-signal-safe (it writes one byte
 * to a self-pipe), so a SIGTERM handler can call it directly. The
 * accept loop then stops admitting connections, every connection
 * thread finishes the requests already buffered, responses are
 * flushed, and serveUntilStopped() returns — a graceful drain.
 */

#ifndef PPM_SERVE_SERVER_HH
#define PPM_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "runner/engine.hh"
#include "serve/protocol.hh"

namespace ppm::serve {

/** Daemon configuration; engine knobs ride in `engine`. */
struct ServerOptions
{
    /** Unix-domain socket path; when set, TCP is not used. */
    std::string unixPath;

    /** TCP port on 127.0.0.1 (0 = ephemeral, see Server::port()). */
    std::uint16_t port = 0;

    /** Max concurrently running analyze/trace requests. */
    unsigned maxInflight = 64;

    /** Budget for requests that do not send `max_instrs`. */
    std::uint64_t defaultMaxInstrs = 2'000'000;

    /** Hard per-request instruction budget; above this = rejected. */
    std::uint64_t maxInstrsCap = 50'000'000;

    /** Longest accepted request line (inline source/trace bound). */
    std::size_t maxLineBytes = 8 * 1024 * 1024;

    /**
     * When non-zero, SO_SNDBUF requested for each accepted
     * connection. Responses near the maxLineBytes scale then take
     * many partial send() cycles, which is exactly the regime the
     * sendLine() completion loop exists for; tests pin it by setting
     * this to the kernel minimum. 0 keeps the kernel default.
     */
    int sendBufBytes = 0;

    /** Engine configuration. */
    EngineOptions engine{};
};

/** Monotonic daemon counters (see the `stats` request). */
struct ServerStats
{
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;   ///< Requests admitted and run.
    std::uint64_t served = 0;     ///< Ok responses sent.
    std::uint64_t failed = 0;     ///< Error responses sent.
    std::uint64_t overloaded = 0; ///< Admission-control rejections.
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the accept thread. Throws
     * std::runtime_error on socket errors (path too long, port in
     * use, ...).
     */
    void start();

    /**
     * Ask the daemon to stop: async-signal-safe (one write() to a
     * self-pipe), callable from any thread or a signal handler.
     */
    void requestStop();

    /**
     * Block until requestStop(): joins the accept thread, drains
     * every connection (buffered requests finish, responses flush),
     * and releases the socket. start() must have been called.
     */
    void serveUntilStopped();

    /** The TCP port actually bound (after start(); 0 for Unix). */
    std::uint16_t port() const { return boundPort_; }

    const ServerOptions &options() const { return opts_; }

    ExperimentEngine &engine() { return engine_; }

    ServerStats stats() const;

  private:
    struct Conn
    {
        int fd = -1;
        std::atomic<bool> done{false};
        std::jthread thread; ///< Joined last; member order matters.
    };

    void acceptLoop();
    void connectionLoop(Conn &conn);

    /** Run one parsed request line; returns the response line. */
    std::string handleLine(const std::string &line);
    std::string handleAnalyze(const ServeRequest &req);
    std::string handleTrace(const ServeRequest &req);
    std::string statsBody();

    void closeSockets();

    ServerOptions opts_;
    ExperimentEngine engine_;

    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1}; ///< [read, write]; write end is safe
                                 ///< from signal handlers.
    std::uint16_t boundPort_ = 0;
    bool boundUnix_ = false;

    std::jthread acceptThread_;
    std::atomic<bool> stopping_{false};

    std::mutex connMutex_;
    std::list<std::unique_ptr<Conn>> conns_;

    /** Analyze/trace requests currently running (admission gate). */
    std::atomic<unsigned> activeRequests_{0};

    mutable std::mutex statsMutex_;
    ServerStats stats_;
};

} // namespace ppm::serve

#endif // PPM_SERVE_SERVER_HH
