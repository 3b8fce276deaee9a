/**
 * @file
 * Epoll TCP front-end for the index service.
 *
 * The paper's dispatcher/walker decoupling, one level up: an event
 * loop accepts connections and parses request frames (the
 * dispatcher side — per-connection frame bursts submit
 * back-to-back, so a pipelining client's requests coalesce into the
 * service's open admission windows exactly like co-arriving local
 * submitters), and the service's walkers drain them. A second
 * thread reaps the service's CompletionQueue in batches, serializes
 * response frames, and hands them to the event loop to write — so
 * walkers never block on a slow socket and sockets never wait on a
 * full walker.
 *
 * Threading: exactly two server threads regardless of connection
 * count. The event loop owns every socket's reads *and* writes
 * (single-threaded fd I/O — no interleaved frames); the reaper only
 * appends to per-connection output buffers under the connection
 * table lock and pokes an eventfd. Responses for a connection that
 * closed while its requests were in flight are counted
 * (`droppedResponses`) and dropped — a disconnected client's
 * requests still drain through the service (they hold admission
 * budget until they do), they just have nowhere to go.
 *
 * Lifetime: the service must outlive the server. stop() (or the
 * destructor) closes the listener and every connection, then waits
 * for every in-flight request the server submitted to complete —
 * the service guarantees completion, so this terminates.
 */

#ifndef WIDX_NET_SERVER_HH
#define WIDX_NET_SERVER_HH

#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hh"
#include "net/protocol.hh"

namespace widx::obs {
class MetricsRegistry;
class TraceRing;
struct Family;
using Snapshot = std::vector<Family>; // mirrors obs/metrics.hh
}

namespace widx::net {

struct TcpServerOptions
{
    u16 port = 0;           ///< 0 = ephemeral (see port())
    int backlog = 64;       ///< listen(2) backlog
    /** Per-connection output-buffer high-water mark: a connection
     *  whose client stops reading is dropped once its buffered
     *  responses exceed this (slow-consumer protection). */
    std::size_t maxOutBytes = 64u << 20;
    /** Registry served on Stats frames. Null = the server builds a
     *  private registry and registers the wrapped service's metrics
     *  on it; either way the server adds its own net collector. The
     *  registry (and any scraper of it) must not outlive the
     *  server: the collector points back into it. */
    obs::MetricsRegistry *metrics = nullptr;
    /** Span-trace ring the reaper stamps Reap events into for
     *  traced requests. Normally the same ring as
     *  ServiceConfig::trace; null = no reap spans. */
    std::shared_ptr<obs::TraceRing> trace;
};

struct TcpServerStats
{
    u64 accepted = 0;
    u64 closed = 0;
    u64 requests = 0;         ///< frames parsed and submitted
    u64 responses = 0;        ///< frames serialized toward a client
    u64 droppedResponses = 0; ///< completion outlived its connection
    u64 protocolErrors = 0;   ///< malformed frames (connection dropped)
    u64 statsScrapes = 0;     ///< Stats frames answered in-line
};

class TcpIndexServer
{
  public:
    /** Binds, listens, and starts the loop + reaper threads; throws
     *  nothing — fatal()s on socket-setup failure (test/server
     *  bring-up is not a recoverable context). */
    TcpIndexServer(sw::IndexService &service,
                   const TcpServerOptions &opt = {});
    ~TcpIndexServer();

    TcpIndexServer(const TcpIndexServer &) = delete;
    TcpIndexServer &operator=(const TcpIndexServer &) = delete;

    /** The bound port (resolves an ephemeral request). */
    u16 port() const { return port_; }

    void stop();

    TcpServerStats stats() const;

  private:
    struct Conn
    {
        u64 gen = 0;    ///< distinguishes reuses of the same fd
        FrameReader rd;
        std::vector<u8> out; ///< serialized, unwritten responses
        std::size_t outOff = 0;
        bool wantWrite = false; ///< EPOLLOUT currently armed
        /** Set by a Hello naming kWireProtocolVersion. Until then
         *  any other well-formed frame is refused with
         *  Status::UnsupportedVersion (and closeOnDrain set).
         *  Loop-thread-only (the reaper never reads it). */
        bool saidHello = false;
        /** Answer-then-close: set when a Hello announces a version
         *  we do not speak, or a frame arrives ahead of the Hello;
         *  the connection drops once the buffered UnsupportedVersion
         *  response drains. Loop-thread-only. */
        bool closeOnDrain = false;
    };

    /** One parsed request in flight through the service; the
     *  CompletionQueue tag is its address. Owns the key/payload
     *  copies the service's spans point into. */
    struct PendingReq
    {
        int fd = -1;
        u64 gen = 0;
        u64 reqId = 0;
        sw::RequestKind kind = sw::RequestKind::Count;
        std::vector<u64> keys;
        std::vector<u64> payloads; ///< Insert/Upsert only
    };

    void loopMain();
    void reaperMain();
    void handleReadable(int fd);
    void flushConn(int fd, Conn &c);
    void closeConn(int fd);
    void updateEpoll(int fd, Conn &c);
    /** Table lookup under connM_. The returned pointer stays valid
     *  *without* the lock only on the loop thread: the loop is the
     *  table's sole eraser, so a pointer it takes cannot go stale
     *  under it (the reaper only appends to Conn::out under
     *  connM_). */
    Conn *findConn(int fd);
    void collectNetMetrics(obs::Snapshot &out) const;

    sw::IndexService &service_;
    TcpServerOptions opt_;
    std::unique_ptr<obs::MetricsRegistry> ownedMetrics_;
    obs::MetricsRegistry *metrics_ = nullptr; ///< never null
    obs::TraceRing *trace_ = nullptr;
    u16 port_ = 0;
    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1; ///< eventfd: reaper -> loop (output pending)

    std::shared_ptr<sw::CompletionQueue> cq_ =
        std::make_shared<sw::CompletionQueue>();
    std::atomic<u64> outstanding_{0}; ///< submitted, not yet reaped
    std::atomic<bool> stopping_{false};

    /** Guards the table plus Conn::out/outOff (the fields the
     *  reaper shares; the Conn members themselves cannot carry
     *  GUARDED_BY — a nested struct cannot name the enclosing
     *  instance's mutex — so their discipline lives in flushConn /
     *  reaperMain). */
    mutable Mutex connM_;
    std::unordered_map<int, Conn> conns_ WIDX_GUARDED_BY(connM_);
    u64 nextGen_ WIDX_GUARDED_BY(connM_) = 1;

    std::atomic<u64> nAccepted_{0};
    std::atomic<u64> nClosed_{0};
    std::atomic<u64> nRequests_{0};
    std::atomic<u64> nResponses_{0};
    std::atomic<u64> nDropped_{0};
    std::atomic<u64> nProtoErr_{0};
    std::atomic<u64> nStatsScrapes_{0};

    std::thread loop_;
    std::thread reaper_;
};

} // namespace widx::net

#endif // WIDX_NET_SERVER_HH
