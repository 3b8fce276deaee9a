/**
 * @file
 * Async TCP client for the index front-end.
 *
 * The socket-side mirror of `IndexService::submitAsync`: submissions
 * serialize a request frame onto the connection (tag = wire request
 * id) and return immediately; a reader thread parses response
 * frames, stamps `completedAtNs` at receipt, and pushes them onto
 * an internal CompletionQueue the caller reaps exactly like a local
 * one — so the open-loop driver runs unchanged over a real socket.
 *
 * Tags must be unique among this connection's in-flight requests
 * (the open-loop driver's arrival indexes are; so is any counter).
 *
 * When the connection breaks, the reader closes the queue and
 * `ok()` turns false; a submission after that (or one the kernel
 * refuses) pushes a synthetic `Status::Cancelled` completion so
 * per-tag accounting never hangs — every submitted tag yields
 * exactly one completion, delivered or synthesized.
 *
 * The blocking `call()` convenience reaps until its own tag
 * appears; it must not be interleaved with outstanding async
 * submissions (it would consume their completions). Misuse fails
 * fast: any foreign tag call() reaps — with or without its own tag
 * in the same batch — is fatal rather than silently dropped.
 */

#ifndef WIDX_NET_CLIENT_HH
#define WIDX_NET_CLIENT_HH

#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/thread_safety.hh"
#include "net/protocol.hh"

namespace widx::net {

class TcpIndexClient
{
  public:
    /** Connects (blocking) to host:port; fatal()s on failure. The
     *  connection opens with the Hello handshake the server
     *  requires before any other frame. */
    TcpIndexClient(const std::string &host, u16 port);
    ~TcpIndexClient();

    TcpIndexClient(const TcpIndexClient &) = delete;
    TcpIndexClient &operator=(const TcpIndexClient &) = delete;

    /** Issue one request; its completion lands on queue() carrying
     *  `tag`. `deadlineNs` is relative (0 = none) — the server
     *  re-anchors it to its own clock. A nonzero `traceId` rides
     *  the frame's trailer and tags the request's span events in
     *  the server's trace ring. Insert/Upsert require one payload
     *  per key; other kinds ignore `payloads`. */
    void submitAsync(sw::RequestKind kind, std::span<const u64> keys,
                     u64 deadlineNs, u64 tag, u64 traceId = 0,
                     std::span<const u64> payloads = {});

    /** Blocking one-shot convenience (see file comment). */
    sw::ServiceResult call(sw::RequestKind kind,
                           std::span<const u64> keys,
                           u64 deadlineNs = 0,
                           std::span<const u64> payloads = {});

    /** Scrape the server's metrics registry: one Stats frame, one
     *  Prometheus text-exposition payload back. Blocking; returns
     *  the empty string on a broken connection or a refused scrape.
     *  Stats responses are routed by wire kind, never through
     *  queue(), so this is safe to interleave with outstanding
     *  async submissions (unlike call()). */
    std::string stats();

    std::shared_ptr<sw::CompletionQueue> queue() { return cq_; }

    /** False once the connection is known broken. */
    bool ok() const { return ok_.load(std::memory_order_acquire); }

    /** The server's protocol version from its Hello response; 0
     *  until that response arrives. */
    u64 serverVersion() const
    {
        return serverVersion_.load(std::memory_order_acquire);
    }

    void close();

  private:
    void readerMain();

    int fd_ = -1;
    std::atomic<bool> ok_{true};
    std::atomic<u64> serverVersion_{0};
    std::shared_ptr<sw::CompletionQueue> cq_ =
        std::make_shared<sw::CompletionQueue>();
    Mutex writeM_; ///< serializes frames onto the socket
    std::vector<u8> wbuf_ WIDX_GUARDED_BY(writeM_);
    std::thread reader_;
    u64 nextCallTag_ = u64(1) << 63; ///< call()'s private tag space

    /// Stats scrapes rendezvous here (reader -> stats()), keyed by
    /// the scrape's wire request id; never touches cq_.
    Mutex statsM_;
    CondVar statsCv_;
    std::unordered_map<u64, std::string> statsResults_
        WIDX_GUARDED_BY(statsM_);
    u64 nextStatsTag_ WIDX_GUARDED_BY(statsM_) = 1;
};

} // namespace widx::net

#endif // WIDX_NET_CLIENT_HH
