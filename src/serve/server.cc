#include "serve/server.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "dpg/dpg_analyzer.hh"
#include "runner/trace_import.hh"
#include "sim/profiler.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"
#include "workloads/workload.hh"

namespace ppm::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** write() the whole line + '\n'; false when the peer went away. */
bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n = ::send(fd, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Decrement a counter on scope exit (admission gate release). */
struct ActiveGuard
{
    std::atomic<unsigned> &n;
    ~ActiveGuard() { --n; }
};

std::string
joinMessages(const std::vector<std::string> &msgs)
{
    std::string out;
    for (const std::string &m : msgs) {
        if (!out.empty())
            out += "; ";
        out += m;
    }
    return out;
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), engine_(opts_.engine)
{
}

Server::~Server()
{
    requestStop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.clear(); // jthread destructors join the drained loops.
    }
    closeSockets();
}

void
Server::start()
{
    if (::pipe(stopPipe_) != 0)
        throw std::runtime_error("serve: pipe() failed");
    for (int fd : stopPipe_)
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);

    if (!opts_.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.unixPath.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("serve: socket path too long: " +
                                     opts_.unixPath);
        }
        std::strncpy(addr.sun_path, opts_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            throw std::runtime_error("serve: socket() failed");
        ::unlink(opts_.unixPath.c_str());
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            throw std::runtime_error("serve: cannot bind " +
                                     opts_.unixPath + ": " +
                                     std::strerror(errno));
        }
        boundUnix_ = true;
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            throw std::runtime_error("serve: socket() failed");
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        // Loopback only: the daemon trusts its requests (they carry
        // programs to run), so it must never listen on a routable
        // interface.
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(opts_.port);
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            throw std::runtime_error(
                "serve: cannot bind 127.0.0.1:" +
                std::to_string(opts_.port) + ": " +
                std::strerror(errno));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound), &len);
        boundPort_ = ntohs(bound.sin_port);
    }

    if (::listen(listenFd_, 128) != 0)
        throw std::runtime_error("serve: listen() failed");
    ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);

    acceptThread_ = std::jthread(&Server::acceptLoop, this);
}

void
Server::requestStop()
{
    // One atomic store plus one write(): both async-signal-safe, so
    // SIGTERM handlers call this directly.
    stopping_.store(true, std::memory_order_relaxed);
    if (stopPipe_[1] >= 0) {
        const char byte = 's';
        [[maybe_unused]] ssize_t n =
            ::write(stopPipe_[1], &byte, 1);
    }
}

void
Server::serveUntilStopped()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.clear(); // Joins each drained connection thread.
    }
    closeSockets();
}

void
Server::closeSockets()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (boundUnix_) {
        ::unlink(opts_.unixPath.c_str());
        boundUnix_ = false;
    }
    for (int &fd : stopPipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

void
Server::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd pfds[2] = {{listenFd_, POLLIN, 0},
                          {stopPipe_[0], POLLIN, 0}};
        const int pr = ::poll(pfds, 2, 250);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        {
            // Reap connections whose loop already finished, so a
            // long-lived daemon does not accumulate dead threads.
            std::lock_guard<std::mutex> lock(connMutex_);
            for (auto it = conns_.begin(); it != conns_.end();) {
                if ((*it)->done.load(std::memory_order_acquire))
                    it = conns_.erase(it);
                else
                    ++it;
            }
        }

        if (pfds[1].revents & POLLIN)
            break; // requestStop() pinged the self-pipe.
        if (!(pfds[0].revents & POLLIN))
            continue;

        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        if (opts_.sendBufBytes > 0) {
            // Best effort: the kernel clamps to its floor, which is
            // all the partial-write regression tests need.
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                         &opts_.sendBufBytes,
                         sizeof(opts_.sendBufBytes));
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.push_back(std::make_unique<Conn>());
        Conn &conn = *conns_.back();
        conn.fd = fd;
        conn.thread =
            std::jthread(&Server::connectionLoop, this,
                         std::ref(conn));
        std::lock_guard<std::mutex> slock(statsMutex_);
        ++stats_.connections;
    }
    stopping_.store(true, std::memory_order_relaxed);
}

void
Server::connectionLoop(Conn &conn)
{
    std::string buf;
    bool open = true;
    while (open) {
        // Drain every complete line already buffered before reading
        // more — and before honoring a stop, so admitted requests
        // still get their responses (graceful drain).
        std::size_t nl;
        while (open &&
               (nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            open = sendLine(conn.fd, handleLine(line));
        }
        if (!open || stopping_.load(std::memory_order_relaxed))
            break;

        pollfd pfd{conn.fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pr == 0)
            continue;
        char chunk[64 * 1024];
        const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break; // Peer closed (or hard error).
        buf.append(chunk, static_cast<std::size_t>(n));
        if (buf.size() > opts_.maxLineBytes &&
            buf.find('\n') == std::string::npos) {
            // The stream itself is malformed past recovery: no line
            // boundary within the memory budget.
            sendLine(conn.fd,
                     errorResponse(
                         "", "request line exceeds " +
                                 std::to_string(opts_.maxLineBytes) +
                                 " bytes"));
            break;
        }
    }
    ::shutdown(conn.fd, SHUT_RDWR);
    ::close(conn.fd);
    conn.done.store(true, std::memory_order_release);
}

std::string
Server::handleLine(const std::string &line)
{
    JsonValue doc;
    try {
        doc = parseJson(line);
    } catch (const JsonError &e) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.failed;
        return errorResponse("", std::string("malformed JSON: ") +
                                     e.what());
    }

    // Echo the id even on invalid requests, when one is present.
    std::string id;
    if (const JsonValue *idv = doc.find("id");
        idv && idv->isString())
        id = idv->str;

    const std::vector<std::string> violations = validateRequest(doc);
    if (!violations.empty()) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.failed;
        return errorResponse(id, joinMessages(violations));
    }

    const ServeRequest req = parseRequest(doc);
    switch (req.kind) {
    case RequestKind::Ping: {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.served;
        return pongResponse(req.id);
    }
    case RequestKind::Stats: {
        const std::string body = statsBody();
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.served;
        return statsResponse(req.id, body);
    }
    case RequestKind::Shutdown: {
        requestStop(); // Drain begins; this response still flushes.
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.served;
        return pongResponse(req.id);
    }
    case RequestKind::Analyze:
    case RequestKind::Trace:
        break;
    }

    // Admission control: never queue more work than maxInflight;
    // excess requests get an immediate, explicit rejection the
    // client can retry against another tier.
    unsigned cur = activeRequests_.load(std::memory_order_relaxed);
    do {
        if (cur >= opts_.maxInflight) {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.overloaded;
            return overloadedResponse(
                req.id, std::to_string(cur) +
                            " requests in flight (limit " +
                            std::to_string(opts_.maxInflight) + ")");
        }
    } while (!activeRequests_.compare_exchange_weak(
        cur, cur + 1, std::memory_order_acq_rel));
    ActiveGuard guard{activeRequests_};
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.accepted;
    }

    std::string response;
    try {
        response = req.kind == RequestKind::Analyze
                       ? handleAnalyze(req)
                       : handleTrace(req);
    } catch (const std::exception &e) {
        response = errorResponse(req.id, e.what());
    }

    std::lock_guard<std::mutex> lock(statsMutex_);
    if (response.find("\"status\":\"ok\"") != std::string::npos)
        ++stats_.served;
    else
        ++stats_.failed;
    return response;
}

std::string
Server::handleAnalyze(const ServeRequest &req)
{
    std::string label;
    std::uint64_t fpSeed = req.seed;
    std::uint64_t budget = opts_.defaultMaxInstrs;
    double assembleSec = 0.0;
    std::shared_ptr<const Program> program;
    std::shared_ptr<const std::vector<Value>> input;

    try {
        if (!req.workload.empty()) {
            const Workload &w = findWorkload(req.workload);
            const std::uint64_t seed =
                req.seed != 0 ? req.seed : kDefaultWorkloadSeed;
            fpSeed = seed;
            label = "workload:" + w.name;
            program = engine_.cache().program(w.name, w.source,
                                              &assembleSec);
            input = std::make_shared<const std::vector<Value>>(
                w.makeInput(seed));
        } else if (!req.family.empty()) {
            const verify::ScenarioFamily &family =
                verify::findFamily(req.family);
            label = "family:" + family.name;
            const std::string name =
                family.name + "-" + std::to_string(req.seed);
            program = engine_.cache().program(
                name, family.generate(req.seed), &assembleSec);
            input =
                std::make_shared<const std::vector<Value>>();
            budget = family.instrBound;
        } else {
            const std::string name =
                req.name.empty() ? "request" : req.name;
            label = "source:" + name;
            program = engine_.cache().program(name, req.source,
                                              &assembleSec);
            input =
                std::make_shared<const std::vector<Value>>();
        }
    } catch (const std::out_of_range &) {
        const bool wl = !req.workload.empty();
        return errorResponse(
            req.id, std::string(wl ? "unknown workload \""
                                   : "unknown family \"") +
                        (wl ? req.workload : req.family) + "\"");
    }

    if (req.maxInstrs)
        budget = *req.maxInstrs;
    if (budget > opts_.maxInstrsCap) {
        return errorResponse(
            req.id,
            "instruction budget " + std::to_string(budget) +
                " exceeds server cap " +
                std::to_string(opts_.maxInstrsCap));
    }

    std::vector<PredictorKind> kinds;
    if (req.predictor) {
        kinds.push_back(*req.predictor);
    } else {
        kinds.assign(std::begin(kAllPredictorKinds),
                     std::end(kAllPredictorKinds));
    }

    std::vector<ExperimentJob> jobs;
    jobs.reserve(kinds.size());
    for (PredictorKind kind : kinds) {
        ExperimentJob job;
        job.program = program;
        job.input = input;
        job.config.maxInstrs = budget;
        job.config.dpg.kind = kind;
        job.assembleSec = jobs.empty() ? assembleSec : 0.0;
        jobs.push_back(std::move(job));
    }

    // submitAll(): the predictor lanes enter the pending queue
    // atomically, so they coalesce into one fused pass exactly like
    // a batch caller's — and may further share the pass-1 profile
    // with an overlapping request for the same (program, input,
    // budget).
    std::vector<RequestHandle> handles = engine_.submitAll(jobs);

    ResponseTiming timing;
    std::vector<DpgStats> runs;
    runs.reserve(handles.size());
    for (RequestHandle &handle : handles) {
        ExperimentOutcome outcome = handle.wait();
        timing.queueSec =
            std::max(timing.queueSec, outcome.timing.queueSec);
        timing.simulateSec = outcome.timing.simulateSec;
        timing.analyzeSec += outcome.timing.analyzeSec;
        timing.dynInstrs = outcome.timing.dynInstrs;
        timing.fused |= outcome.timing.fused;
        if (runs.empty())
            timing.captureShared = outcome.timing.captureShared;
        runs.push_back(std::move(outcome.stats));
    }

    return okResponse(
        req.id, verify::fingerprintJson(label, fpSeed, runs),
        timing);
}

std::string
Server::handleTrace(const ServeRequest &req)
{
    const std::string name =
        req.name.empty() ? "request" : req.name;

    std::istringstream in(req.records);
    const ImportedTrace trace = parseBranchTrace(in, name);

    std::uint64_t budget = opts_.defaultMaxInstrs;
    if (req.maxInstrs)
        budget = *req.maxInstrs;
    if (budget > opts_.maxInstrsCap) {
        return errorResponse(
            req.id,
            "instruction budget " + std::to_string(budget) +
                " exceeds server cap " +
                std::to_string(opts_.maxInstrsCap));
    }
    if (trace.stream.size() > budget) {
        return errorResponse(
            req.id, "trace has " +
                        std::to_string(trace.stream.size()) +
                        " records, over the request budget of " +
                        std::to_string(budget));
    }

    // Same two-pass discipline as `ppm import`, run on the
    // connection thread: imported streams replay from the parsed
    // request and do not go through the engine.
    const auto t0 = Clock::now();
    ExecProfile profile(trace.program.textSize());
    replayImported(trace, profile);
    const double pass1Sec = secondsSince(t0);

    std::vector<PredictorKind> kinds;
    if (req.predictor) {
        kinds.push_back(*req.predictor);
    } else {
        kinds.assign(std::begin(kAllPredictorKinds),
                     std::end(kAllPredictorKinds));
    }

    const auto t1 = Clock::now();
    std::vector<DpgStats> runs;
    runs.reserve(kinds.size());
    for (PredictorKind kind : kinds) {
        DpgConfig cfg;
        cfg.kind = kind;
        DpgAnalyzer analyzer(trace.program, profile, cfg);
        replayImported(trace, analyzer);
        runs.push_back(analyzer.takeStats());
    }

    ResponseTiming timing;
    timing.simulateSec = pass1Sec;
    timing.analyzeSec = secondsSince(t1);
    timing.dynInstrs = trace.stream.size();
    return okResponse(
        req.id,
        verify::fingerprintJson("trace:" + name, 0, runs), timing);
}

std::string
Server::statsBody()
{
    ServerStats s;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        s = stats_;
    }
    const RunCache::Counters c = engine_.cache().counters();
    const std::uint64_t lookups = c.captureHits + c.captureMisses;
    const double hitRate =
        lookups > 0 ? 100.0 * static_cast<double>(c.captureHits) /
                          static_cast<double>(lookups)
                    : 0.0;

    char rate[32];
    std::snprintf(rate, sizeof rate, "%.2f", hitRate);
    std::string out = "{\"connections\":";
    out += std::to_string(s.connections);
    out += ",\"accepted\":";
    out += std::to_string(s.accepted);
    out += ",\"served\":";
    out += std::to_string(s.served);
    out += ",\"failed\":";
    out += std::to_string(s.failed);
    out += ",\"overloaded\":";
    out += std::to_string(s.overloaded);
    out += ",\"inflight\":";
    out += std::to_string(engine_.inflight());
    out += ",\"queue_depth\":";
    out += std::to_string(engine_.queueDepth());
    out += ",\"cache\":{\"capture_hits\":";
    out += std::to_string(c.captureHits);
    out += ",\"capture_misses\":";
    out += std::to_string(c.captureMisses);
    out += ",\"hit_rate_pct\":";
    out += rate;
    out += "}}";
    return out;
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

} // namespace ppm::serve
