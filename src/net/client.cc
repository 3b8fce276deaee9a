#include "net/client.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace widx::net {

TcpIndexClient::TcpIndexClient(const std::string &host, u16 port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    fatal_if(fd_ < 0, "socket(): %s", errnoText(errno).c_str());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    fatal_if(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1,
             "inet_pton(%s) failed", host.c_str());
    fatal_if(::connect(fd_,
                       reinterpret_cast<const sockaddr *>(&addr),
                       sizeof(addr)) != 0,
             "connect(%s:%u): %s", host.c_str(), unsigned(port),
             errnoText(errno).c_str());
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
        // Fire-and-continue: frames are processed in order on the
        // server, so anything submitted after this is evaluated on
        // a connection that said Hello; the response lands in
        // readerMain and stamps serverVersion_.
        MutexLock lk(writeM_);
        wbuf_.clear();
        appendHello(wbuf_, /*reqId=*/0);
        std::size_t off = 0;
        while (off < wbuf_.size()) {
            const ssize_t n = ::send(fd_, wbuf_.data() + off,
                                     wbuf_.size() - off,
                                     MSG_NOSIGNAL);
            if (n > 0) {
                off += std::size_t(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            ok_.store(false, std::memory_order_release);
            break;
        }
    }
    reader_ = std::thread([this] { readerMain(); });
}

TcpIndexClient::~TcpIndexClient()
{
    close();
}

void
TcpIndexClient::close()
{
    if (fd_ >= 0)
        // Shut down rather than close: the reader thread still owns
        // the fd (close would let the number be reused under it);
        // shutdown wakes its blocking read with EOF.
        ::shutdown(fd_, SHUT_RDWR);
    ok_.store(false, std::memory_order_release);
    if (reader_.joinable())
        reader_.join();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    cq_->close();
}

void
TcpIndexClient::submitAsync(sw::RequestKind kind,
                            std::span<const u64> keys, u64 deadlineNs,
                            u64 tag, u64 traceId,
                            std::span<const u64> payloads)
{
    fatal_if(keys.size() > kMaxKeysPerRequest,
             "request exceeds the wire key cap (%zu > %u)",
             keys.size(), kMaxKeysPerRequest);
    bool sent = false;
    if (ok_.load(std::memory_order_acquire)) {
        MutexLock lk(writeM_);
        wbuf_.clear();
        appendRequest(wbuf_, tag, kind, deadlineNs, keys, traceId,
                      payloads);
        std::size_t off = 0;
        sent = true;
        while (off < wbuf_.size()) {
            const ssize_t n = ::send(fd_, wbuf_.data() + off,
                                     wbuf_.size() - off,
                                     MSG_NOSIGNAL);
            if (n > 0) {
                off += std::size_t(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            ok_.store(false, std::memory_order_release);
            sent = false;
            break;
        }
    }
    if (!sent) {
        // Broken pipe: synthesize the refusal locally so the tag
        // still completes exactly once.
        sw::ServiceResult r;
        r.status = sw::Status::Cancelled;
        r.completedAtNs = monotonicNowNs();
        cq_->push(tag, std::move(r));
    }
}

sw::ServiceResult
TcpIndexClient::call(sw::RequestKind kind, std::span<const u64> keys,
                     u64 deadlineNs, std::span<const u64> payloads)
{
    const u64 tag = nextCallTag_++;
    submitAsync(kind, keys, deadlineNs, tag, 0, payloads);
    std::vector<sw::Completion> batch;
    for (;;) {
        batch.clear();
        cq_->reap(batch, 16, std::chrono::milliseconds(100));
        // call() owns the queue for its whole duration: a foreign
        // tag in the batch is an async submission racing the
        // blocking convenience, and returning here would silently
        // discard its completion — misuse, fail loudly whether or
        // not this call's own tag landed in the same batch.
        for (const sw::Completion &c : batch)
            fatal_if(c.tag != tag,
                     "call() interleaved with async completions");
        // Every tag completes exactly once, so the batch is empty
        // or holds exactly this call's completion.
        if (!batch.empty())
            return std::move(batch.front().result);
        if (cq_->closed() && cq_->size() == 0) {
            sw::ServiceResult r;
            r.status = sw::Status::Cancelled;
            r.completedAtNs = monotonicNowNs();
            return r;
        }
    }
}

std::string
TcpIndexClient::stats()
{
    u64 tag;
    {
        MutexLock lk(statsM_);
        tag = nextStatsTag_++;
    }
    bool sent = false;
    if (ok_.load(std::memory_order_acquire)) {
        MutexLock lk(writeM_);
        wbuf_.clear();
        appendStatsRequest(wbuf_, tag);
        std::size_t off = 0;
        sent = true;
        while (off < wbuf_.size()) {
            const ssize_t n = ::send(fd_, wbuf_.data() + off,
                                     wbuf_.size() - off,
                                     MSG_NOSIGNAL);
            if (n > 0) {
                off += std::size_t(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            ok_.store(false, std::memory_order_release);
            sent = false;
            break;
        }
    }
    if (!sent)
        return {};
    MutexLock lk(statsM_);
    while (statsResults_.count(tag) == 0 &&
           ok_.load(std::memory_order_acquire))
        statsCv_.wait(statsM_);
    auto it = statsResults_.find(tag);
    if (it == statsResults_.end())
        return {}; // connection died before the response landed
    std::string text = std::move(it->second);
    statsResults_.erase(it);
    return text;
}

void
TcpIndexClient::readerMain()
{
    FrameReader rd;
    u8 buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        rd.feed(buf, std::size_t(n));
        std::span<const u8> payload;
        bool bad = false;
        while (rd.next(payload, bad)) {
            // Hello responses route by kind byte, like Stats: they
            // carry the negotiated version, not a completion.
            if (payload.size() >= sizeof(RespHeader) &&
                payload[9] == kWireKindHello) {
                u64 reqId, ver;
                sw::Status st;
                if (!parseHelloResponse(payload.data(),
                                        payload.size(), reqId, st,
                                        ver)) {
                    bad = true;
                    break;
                }
                serverVersion_.store(ver,
                                     std::memory_order_release);
                if (st != sw::Status::Ok) {
                    // The server answers honestly and then closes;
                    // the imminent EOF tears the connection down
                    // through the normal path below.
                    warn("tcp client: server rejected protocol "
                         "version %llu (speaks %llu)",
                         (unsigned long long)kWireProtocolVersion,
                         (unsigned long long)ver);
                }
                continue;
            }
            // Stats responses route by the header's kind byte (wire
            // offset 9) into the scrape rendezvous — they never
            // carry completions, so they must not reach cq_.
            if (payload.size() >= sizeof(RespHeader) &&
                payload[9] == kWireKindStats) {
                u64 reqId;
                std::string text;
                if (!parseStatsResponse(payload.data(),
                                        payload.size(), reqId,
                                        text)) {
                    bad = true;
                    break;
                }
                {
                    MutexLock lk(statsM_);
                    statsResults_[reqId] = std::move(text);
                }
                statsCv_.notifyAll();
                continue;
            }
            RespHeader h;
            sw::ServiceResult r;
            if (!parseResponse(payload.data(), payload.size(), h,
                               r)) {
                bad = true;
                break;
            }
            // Receipt stamp: open-loop latency over the socket is
            // scheduled-arrival -> response-in-client, including
            // both wire directions.
            r.completedAtNs = monotonicNowNs();
            cq_->push(h.reqId, std::move(r));
        }
        if (bad) {
            warn("tcp client: malformed response frame; dropping "
                 "connection");
            break;
        }
    }
    ok_.store(false, std::memory_order_release);
    cq_->close();
    statsCv_.notifyAll(); // wake scrapes waiting on a dead socket
}

} // namespace widx::net
