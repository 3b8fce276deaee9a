#include "net/server.hh"

#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace widx::net {

TcpIndexServer::TcpIndexServer(sw::IndexService &service,
                               const TcpServerOptions &opt)
    : service_(service), opt_(opt)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    fatal_if(listenFd_ < 0, "socket(): %s", errnoText(errno).c_str());
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback-only: this front-end has no auth; widening the bind
    // address is a deliberate future step, not a default.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.port);
    fatal_if(::bind(listenFd_,
                    reinterpret_cast<const sockaddr *>(&addr),
                    sizeof(addr)) != 0,
             "bind(port %u): %s", unsigned(opt_.port),
             errnoText(errno).c_str());
    fatal_if(::listen(listenFd_, opt_.backlog) != 0, "listen(): %s",
             errnoText(errno).c_str());
    socklen_t alen = sizeof(addr);
    fatal_if(::getsockname(listenFd_,
                           reinterpret_cast<sockaddr *>(&addr),
                           &alen) != 0,
             "getsockname(): %s", errnoText(errno).c_str());
    port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(0);
    fatal_if(epollFd_ < 0, "epoll_create1(): %s",
             errnoText(errno).c_str());
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    fatal_if(wakeFd_ < 0, "eventfd(): %s", errnoText(errno).c_str());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.fd = wakeFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    if (opt_.metrics) {
        metrics_ = opt_.metrics;
    } else {
        // Self-contained default: a private registry pre-loaded
        // with the wrapped service's metrics, so a bare server is
        // scrapeable out of the box.
        ownedMetrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = ownedMetrics_.get();
        service_.registerMetrics(*metrics_);
    }
    metrics_->addCollector(
        [this](obs::Snapshot &out) { collectNetMetrics(out); });
    trace_ = opt_.trace.get();

    loop_ = std::thread([this] { loopMain(); });
    reaper_ = std::thread([this] { reaperMain(); });
}

TcpIndexServer::~TcpIndexServer()
{
    stop();
}

void
TcpIndexServer::stop()
{
    if (!loop_.joinable() && !reaper_.joinable())
        return;
    stopping_.store(true, std::memory_order_release);
    const u64 one = 1;
    [[maybe_unused]] ssize_t w = ::write(wakeFd_, &one, sizeof(one));
    if (loop_.joinable())
        loop_.join();
    // Loop is down: close every connection. Completions still in
    // flight find no connection and count as dropped; the reaper
    // exits once the last one lands (the service guarantees every
    // submitted request completes).
    {
        MutexLock lk(connM_);
        for (auto &[fd, c] : conns_) {
            ::close(fd);
            nClosed_.fetch_add(1, std::memory_order_relaxed);
        }
        conns_.clear();
    }
    if (reaper_.joinable())
        reaper_.join();
    cq_->close();
    ::close(epollFd_);
    ::close(listenFd_);
    ::close(wakeFd_);
    epollFd_ = listenFd_ = wakeFd_ = -1;
}

void
TcpIndexServer::updateEpoll(int fd, Conn &c)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (c.wantWrite ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev);
}

// widx-lint: event-loop
TcpIndexServer::Conn *
TcpIndexServer::findConn(int fd)
{
    // widx-lint: allow(blocking) -- bounded table lookup under an
    // uncontended lock; never held across I/O.
    MutexLock lk(connM_);
    auto it = conns_.find(fd);
    return it == conns_.end() ? nullptr : &it->second;
}

// widx-lint: event-loop
void
TcpIndexServer::closeConn(int fd)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    {
        // widx-lint: allow(blocking) -- O(1) erase under an
        // uncontended lock; never held across I/O.
        MutexLock lk(connM_);
        conns_.erase(fd);
    }
    nClosed_.fetch_add(1, std::memory_order_relaxed);
}

// widx-lint: event-loop
void
TcpIndexServer::handleReadable(int fd)
{
    // The loop thread is the table's only eraser, so the pointer
    // stays valid after findConn drops the lock; only Conn::out and
    // outOff (shared with the reaper) are touched under connM_.
    Conn *cp = findConn(fd);
    if (!cp)
        return;
    Conn &c = *cp;

    u8 buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.rd.feed(buf, std::size_t(n));
            continue;
        }
        if (n == 0) { // orderly EOF
            closeConn(fd);
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(fd);
        return;
    }

    // Submit every complete frame back-to-back: a pipelining
    // client's burst lands in the service's open admission windows
    // together — the per-connection batching this front-end exists
    // to exploit.
    std::span<const u8> payload;
    bool bad = false;
    bool inlineQueued = false;
    while (!c.closeOnDrain && c.rd.next(payload, bad)) {
        ReqHeader h;
        u64 traceId = 0;
        auto pr = std::make_unique<PendingReq>();
        if (!parseRequest(payload.data(), payload.size(), h,
                          pr->keys, &traceId, &pr->payloads)) {
            bad = true;
            break;
        }
        if (h.kind == kWireKindHello) {
            // Version handshake, answered in-line like Stats. A
            // match unlocks the mutation kinds on this connection;
            // a mismatch is answered honestly and then the
            // connection closes once the response drains — the
            // client learns *why* before losing the socket.
            const bool speak =
                pr->keys[0] == kWireProtocolVersion;
            {
                // widx-lint: allow(blocking) -- bounded buffer
                // append shared with the reaper; no I/O under it.
                MutexLock lk(connM_);
                appendHelloResponse(
                    c.out, h.reqId,
                    speak ? sw::Status::Ok
                          : sw::Status::UnsupportedVersion);
            }
            nResponses_.fetch_add(1, std::memory_order_relaxed);
            inlineQueued = true;
            if (speak)
                c.saidHello = true;
            else
                c.closeOnDrain = true;
            continue;
        }
        if (!c.saidHello) {
            // A well-formed frame ahead of the Hello: the protocol
            // requires the handshake first. Answer it honestly
            // (echoing its kind) and close once the answer drains,
            // the same answer-then-close as an unsupported Hello.
            {
                // widx-lint: allow(blocking) -- bounded buffer
                // append shared with the reaper; no I/O under it.
                MutexLock lk(connM_);
                appendStatusResponse(c.out, h.reqId, h.kind,
                                     sw::Status::UnsupportedVersion);
            }
            nResponses_.fetch_add(1, std::memory_order_relaxed);
            inlineQueued = true;
            c.closeOnDrain = true;
            continue;
        }
        if (h.kind == kWireKindStats) {
            // Answered in-line from the registry, never submitted:
            // a scrape must not hold admission budget or perturb
            // the windows it is measuring. Appended under connM_
            // and flushed via the eventfd on the *next* loop
            // iteration — flushConn here could close the
            // connection and free the FrameReader mid-parse.
            const std::string text = metrics_->renderPrometheus();
            {
                // widx-lint: allow(blocking) -- bounded buffer
                // append shared with the reaper; no I/O under it.
                MutexLock lk(connM_);
                appendStatsResponse(c.out, h.reqId, text);
            }
            nStatsScrapes_.fetch_add(1, std::memory_order_relaxed);
            nResponses_.fetch_add(1, std::memory_order_relaxed);
            inlineQueued = true;
            continue;
        }
        sw::RequestKind kind;
        if (!serviceKindOfWire(h.kind, kind)) {
            bad = true; // parseRequest admits only mapped kinds here
            break;
        }
        pr->fd = fd;
        pr->gen = c.gen;
        pr->reqId = h.reqId;
        pr->kind = kind;
        sw::SubmitOptions sub;
        if (h.deadlineNs)
            sub.deadlineNs = monotonicNowNs() + h.deadlineNs;
        sub.traceId = traceId;
        nRequests_.fetch_add(1, std::memory_order_relaxed);
        outstanding_.fetch_add(1, std::memory_order_relaxed);
        PendingReq *raw = pr.release(); // reaper reclaims via tag
        sub.payloads = std::span<const u64>(raw->payloads);
        service_.submitAsync(raw->kind,
                             std::span<const u64>(raw->keys), sub,
                             cq_, reinterpret_cast<u64>(raw));
    }
    if (bad) {
        nProtoErr_.fetch_add(1, std::memory_order_relaxed);
        closeConn(fd);
        return;
    }
    if (inlineQueued) {
        const u64 one = 1;
        [[maybe_unused]] ssize_t w =
            ::write(wakeFd_, &one, sizeof(one));
    }
}

// widx-lint: event-loop
void
TcpIndexServer::flushConn(int fd, Conn &c)
{
    bool dead = false;
    bool drained = false;
    {
        // widx-lint: allow(blocking) -- the sends below run on a
        // nonblocking fd; the reaper only appends under this lock
        // and never blocks holding it.
        MutexLock lk(connM_);
        while (c.outOff < c.out.size()) {
            const ssize_t n =
                ::send(fd, c.out.data() + c.outOff,
                       c.out.size() - c.outOff, MSG_NOSIGNAL);
            if (n > 0) {
                c.outOff += std::size_t(n);
                continue;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            dead = true;
            break;
        }
        if (c.outOff == c.out.size()) {
            c.out.clear();
            c.outOff = 0;
            c.wantWrite = false;
            drained = true;
        } else {
            c.wantWrite = true;
        }
    }
    if (dead || (drained && c.closeOnDrain)) {
        // Connections refused for their version (or for skipping
        // the Hello) drop once their UnsupportedVersion answer has
        // flushed.
        closeConn(fd);
        return;
    }
    updateEpoll(fd, c);
}

// widx-lint: event-loop
void
TcpIndexServer::loopMain()
{
    epoll_event evs[64];
    while (!stopping_.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(epollFd_, evs, 64, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == wakeFd_) {
                u64 drain;
                while (::read(wakeFd_, &drain, sizeof(drain)) > 0) {
                }
                // The reaper queued output (or stop was requested):
                // flush everything writable, drop slow consumers.
                std::vector<int> todo, overflowed;
                {
                    // widx-lint: allow(blocking) -- O(conns) sweep
                    // of buffer sizes; no I/O under the lock.
                    MutexLock lk(connM_);
                    for (auto &[cfd, c] : conns_) {
                        if (c.out.size() - c.outOff >
                            opt_.maxOutBytes)
                            overflowed.push_back(cfd);
                        else if (c.outOff < c.out.size())
                            todo.push_back(cfd);
                    }
                }
                for (int cfd : overflowed)
                    closeConn(cfd);
                for (int cfd : todo) {
                    if (Conn *c = findConn(cfd))
                        flushConn(cfd, *c);
                }
                continue;
            }
            if (fd == listenFd_) {
                for (;;) {
                    const int cfd = ::accept4(listenFd_, nullptr,
                                              nullptr,
                                              SOCK_NONBLOCK);
                    if (cfd < 0)
                        break;
                    const int one = 1;
                    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY,
                                 &one, sizeof(one));
                    {
                        // widx-lint: allow(blocking) -- O(1) table
                        // insert; no I/O under the lock.
                        MutexLock lk(connM_);
                        conns_[cfd].gen = nextGen_++;
                    }
                    epoll_event ev{};
                    ev.events = EPOLLIN;
                    ev.data.fd = cfd;
                    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, cfd, &ev);
                    nAccepted_.fetch_add(
                        1, std::memory_order_relaxed);
                }
                continue;
            }
            // A connection: an earlier handler this batch may have
            // closed it already.
            if (!findConn(fd))
                continue;
            if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConn(fd);
                continue;
            }
            if (evs[i].events & EPOLLOUT) {
                if (Conn *c = findConn(fd))
                    flushConn(fd, *c);
            }
            if (evs[i].events & EPOLLIN)
                handleReadable(fd);
        }
    }
}

void
TcpIndexServer::reaperMain()
{
    std::vector<sw::Completion> batch;
    for (;;) {
        batch.clear();
        cq_->reap(batch, 256, std::chrono::milliseconds(50));
        if (!batch.empty()) {
            bool poke = false;
            {
                MutexLock lk(connM_);
                for (const sw::Completion &comp : batch) {
                    std::unique_ptr<PendingReq> pr(
                        reinterpret_cast<PendingReq *>(comp.tag));
                    if (trace_ && comp.result.traceId)
                        trace_->record(comp.result.traceId,
                                       obs::SpanPoint::Reap,
                                       monotonicNowNs());
                    auto it = conns_.find(pr->fd);
                    if (it == conns_.end() ||
                        it->second.gen != pr->gen) {
                        nDropped_.fetch_add(
                            1, std::memory_order_relaxed);
                        continue;
                    }
                    appendResponse(it->second.out, pr->reqId,
                                   pr->kind, comp.result);
                    nResponses_.fetch_add(
                        1, std::memory_order_relaxed);
                    poke = true;
                }
            }
            outstanding_.fetch_sub(batch.size(),
                                   std::memory_order_relaxed);
            if (poke) {
                const u64 one = 1;
                [[maybe_unused]] ssize_t w =
                    ::write(wakeFd_, &one, sizeof(one));
            }
        }
        if (stopping_.load(std::memory_order_acquire) &&
            outstanding_.load(std::memory_order_relaxed) == 0)
            return;
    }
}

TcpServerStats
TcpIndexServer::stats() const
{
    TcpServerStats s;
    s.accepted = nAccepted_.load(std::memory_order_relaxed);
    s.closed = nClosed_.load(std::memory_order_relaxed);
    s.requests = nRequests_.load(std::memory_order_relaxed);
    s.responses = nResponses_.load(std::memory_order_relaxed);
    s.droppedResponses = nDropped_.load(std::memory_order_relaxed);
    s.protocolErrors = nProtoErr_.load(std::memory_order_relaxed);
    s.statsScrapes = nStatsScrapes_.load(std::memory_order_relaxed);
    return s;
}

void
TcpIndexServer::collectNetMetrics(obs::Snapshot &out) const
{
    using obs::Family;
    using obs::MetricType;
    using obs::Sample;

    auto scalar = [&](const char *name, const char *help,
                      MetricType type, double v) {
        Family f;
        f.name = name;
        f.help = help;
        f.type = type;
        f.samples.push_back(Sample{{}, v, {}});
        out.push_back(std::move(f));
    };
    auto counter = [&](const char *name, const char *help,
                       const std::atomic<u64> &c) {
        scalar(name, help, MetricType::Counter,
               double(c.load(std::memory_order_relaxed)));
    };

    counter("widx_net_connections_accepted_total",
            "TCP connections accepted.", nAccepted_);
    counter("widx_net_connections_closed_total",
            "TCP connections closed (EOF, error, slow-consumer "
            "drop, or shutdown).",
            nClosed_);
    counter("widx_net_requests_total",
            "Request frames parsed and submitted to the service.",
            nRequests_);
    counter("widx_net_responses_total",
            "Response frames serialized toward a client.",
            nResponses_);
    counter("widx_net_dropped_responses_total",
            "Completions whose connection closed first.", nDropped_);
    counter("widx_net_protocol_errors_total",
            "Malformed frames (the connection is dropped).",
            nProtoErr_);
    counter("widx_net_stats_scrapes_total",
            "Stats frames answered in-line from the registry.",
            nStatsScrapes_);
    scalar("widx_net_outstanding_requests",
           "Frames submitted to the service and not yet reaped.",
           MetricType::Gauge,
           double(outstanding_.load(std::memory_order_relaxed)));
    std::size_t open;
    {
        MutexLock lk(connM_);
        open = conns_.size();
    }
    scalar("widx_net_open_connections",
           "Currently open client connections.", MetricType::Gauge,
           double(open));
}

} // namespace widx::net
