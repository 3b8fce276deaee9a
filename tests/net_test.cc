/**
 * @file
 * Tests for the TCP front-end (src/net/): wire round-trips that
 * stay byte-identical to the in-process reference, pipelined async
 * bursts racing the server's event loop and completion reaper
 * (the suite the TSan CI job runs), deadline propagation over the
 * wire, malformed-frame handling, and shutdown with requests in
 * flight. When the build compiles failpoints in (the chaos job),
 * the raced echo test additionally stalls walkers and slows drains
 * mid-traffic — bad server timing must never change answers or
 * hang the socket client.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/arena.hh"
#include "common/failpoint.hh"
#include "common/rng.hh"
#include "net/open_loop_net.hh"
#include "net/server.hh"
#include "workload/distributions.hh"

using namespace widx;
using namespace widx::sw;
using widx::net::TcpIndexClient;
using widx::net::TcpIndexServer;

namespace {

/** Build column with duplicates + a flat reference index. */
struct Dataset
{
    Arena arena;
    std::unique_ptr<db::Column> build;
    db::IndexSpec spec;
    std::unique_ptr<db::HashIndex> flat;
    std::vector<u64> keys;

    Dataset(u64 tuples, u64 probes, u64 seed)
    {
        Rng rng(seed);
        build = std::make_unique<db::Column>(
            "b", db::ValueKind::U64, arena, tuples);
        for (u64 k : wl::uniformKeys(tuples, tuples / 2 + 1, rng))
            build->push(k); // duplicates on purpose
        spec.buckets = tuples / 2;
        flat = std::make_unique<db::HashIndex>(spec, arena);
        flat->buildFromColumn(*build);
        keys = wl::uniformKeys(probes, tuples / 2 + 1, rng);
    }
};

std::vector<MatchRec>
refSequence(const db::HashIndex &idx, std::span<const u64> keys)
{
    std::vector<MatchRec> out;
    idx.probeBatch(keys,
                   [&](std::size_t i, u64 key, u64 payload) {
                       out.push_back({i, key, payload});
                   });
    return out;
}

void
expectSameSequence(const std::vector<MatchRec> &got,
                   const std::vector<MatchRec> &want,
                   const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].i, want[r].i) << what << " rec " << r;
        ASSERT_EQ(got[r].key, want[r].key) << what << " rec " << r;
        ASSERT_EQ(got[r].payload, want[r].payload)
            << what << " rec " << r;
    }
}

/** A raw loopback socket to the server, for frames the client
 *  never writes (malformed, or sent without the Hello). */
int
rawConnect(u16 port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

TEST(TcpFrontEnd, BlockingCallsMatchTheLocalReference)
{
    Dataset d(2000, 2048, 11);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);
    TcpIndexServer server(service);
    TcpIndexClient client("127.0.0.1", server.port());

    const std::span<const u64> span{d.keys.data(), 512};
    const auto want = refSequence(*d.flat, span);

    const ServiceResult probe =
        client.call(RequestKind::Probe, span);
    ASSERT_EQ(probe.status, Status::Ok);
    EXPECT_EQ(probe.matches, want.size());
    expectSameSequence(probe.recs, want, "net probe");

    const ServiceResult count =
        client.call(RequestKind::Count, span);
    ASSERT_EQ(count.status, Status::Ok);
    EXPECT_EQ(count.matches, want.size());
    EXPECT_TRUE(count.recs.empty());

    const ServiceResult join = client.call(RequestKind::Join, span);
    ASSERT_EQ(join.status, Status::Ok);
    expectSameSequence(join.recs, want, "net join");

    client.close();
    server.stop();
    EXPECT_EQ(server.stats().requests, 3u);
    // The connect-time Hello is answered in-line (it never reaches
    // the service), so the handshake adds one response frame on top
    // of the three calls.
    EXPECT_EQ(server.stats().responses, 4u);
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(TcpFrontEnd, MutationsRoundTripOnAV2Connection)
{
    Dataset d(2000, 256, 31);
    ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.mutation.enabled = true;
    IndexService service(*d.build, d.spec, cfg);
    TcpIndexServer server(service);
    TcpIndexClient client("127.0.0.1", server.port());

    // Fresh keys far outside the build keyspace.
    const std::vector<u64> keys{1'000'001, 1'000'002, 1'000'003};
    const std::vector<u64> pay{11, 12, 13};
    const ServiceResult ins =
        client.call(RequestKind::Insert, keys, 0, pay);
    ASSERT_EQ(ins.status, Status::Ok);
    EXPECT_EQ(ins.matches, keys.size());
    EXPECT_TRUE(ins.recs.empty());
    // The Hello response precedes the first completion on the
    // stream, so the negotiated version is visible by now.
    EXPECT_EQ(client.serverVersion(),
              widx::net::kWireProtocolVersion);

    const ServiceResult seen =
        client.call(RequestKind::Probe, keys);
    ASSERT_EQ(seen.status, Status::Ok);
    ASSERT_EQ(seen.recs.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(seen.recs[i].payload, pay[i]);

    const std::vector<u64> pay2{21, 22, 23};
    const ServiceResult ups =
        client.call(RequestKind::Upsert, keys, 0, pay2);
    ASSERT_EQ(ups.status, Status::Ok);
    EXPECT_EQ(ups.matches, keys.size()); // all in-place updates
    const ServiceResult seen2 =
        client.call(RequestKind::Probe, keys);
    ASSERT_EQ(seen2.recs.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(seen2.recs[i].payload, pay2[i]);

    const ServiceResult del =
        client.call(RequestKind::Delete, keys);
    ASSERT_EQ(del.status, Status::Ok);
    EXPECT_EQ(del.matches, keys.size());
    const ServiceResult gone =
        client.call(RequestKind::Count, keys);
    ASSERT_EQ(gone.status, Status::Ok);
    EXPECT_EQ(gone.matches, 0u);
}

TEST(TcpFrontEnd, FrameBeforeHelloIsAnsweredThenClosed)
{
    Dataset d(2000, 256, 37);
    ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.mutation.enabled = true;
    IndexService service(*d.build, d.spec, cfg);
    TcpIndexServer server(service);

    // A well-formed Insert and a Count pipelined on a raw socket
    // that never says Hello: the first frame is refused with
    // UnsupportedVersion (its kind echoed), the connection closes
    // once that answer drains, and the second frame is never read.
    const std::vector<u64> keys{1'000'001};
    const std::vector<u64> pay{7};
    std::vector<u8> frames;
    widx::net::appendRequest(frames, 5, RequestKind::Insert, 0, keys,
                             0, pay);
    widx::net::appendRequest(frames, 6, RequestKind::Count, 0, keys);
    const int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL),
              ssize_t(frames.size()));

    u8 buf[4 + sizeof(widx::net::RespHeader)];
    std::size_t got = 0;
    while (got < sizeof(buf)) {
        const ssize_t n =
            ::recv(fd, buf + got, sizeof(buf) - got, 0);
        ASSERT_GT(n, 0) << "connection closed before the answer";
        got += std::size_t(n);
    }
    u32 rlen;
    std::memcpy(&rlen, buf, 4);
    ASSERT_EQ(rlen, sizeof(widx::net::RespHeader));
    widx::net::RespHeader h;
    ServiceResult r;
    ASSERT_TRUE(widx::net::parseResponse(buf + 4, rlen, h, r));
    EXPECT_EQ(h.reqId, 5u);
    EXPECT_EQ(h.kind, widx::net::kWireKindInsert);
    EXPECT_EQ(r.status, Status::UnsupportedVersion);
    EXPECT_EQ(r.matches, 0u);
    // ... and only then EOF: no answer for the Count.
    const ssize_t eof = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_LE(eof, 0);
    ::close(fd);

    // The refusal is an answer, not a framing error, and nothing
    // reached the service: a client that says Hello finds no trace
    // of the refused insert.
    EXPECT_EQ(server.stats().protocolErrors, 0u);
    EXPECT_EQ(server.stats().requests, 0u);
    TcpIndexClient client("127.0.0.1", server.port());
    const ServiceResult cnt = client.call(RequestKind::Count, keys);
    ASSERT_EQ(cnt.status, Status::Ok);
    EXPECT_EQ(cnt.matches, 0u);
}

TEST(TcpFrontEnd, UnsupportedHelloIsAnsweredThenClosed)
{
    Dataset d(2000, 256, 41);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);
    TcpIndexServer server(service);

    // A Hello naming a version the server does not speak, from a
    // raw socket: the answer must arrive before the close, so the
    // client learns *why* it lost the connection.
    std::vector<u8> frame;
    const u32 len = 24 + 8;
    widx::net::ReqHeader h;
    h.reqId = 5;
    h.kind = widx::net::kWireKindHello;
    h.nKeys = 1;
    const u64 version = 99;
    frame.insert(frame.end(),
                 reinterpret_cast<const u8 *>(&len),
                 reinterpret_cast<const u8 *>(&len) + 4);
    frame.insert(frame.end(), reinterpret_cast<const u8 *>(&h),
                 reinterpret_cast<const u8 *>(&h) + sizeof(h));
    frame.insert(frame.end(),
                 reinterpret_cast<const u8 *>(&version),
                 reinterpret_cast<const u8 *>(&version) + 8);
    const int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              ssize_t(frame.size()));

    u8 buf[4 + sizeof(widx::net::RespHeader)];
    std::size_t got = 0;
    while (got < sizeof(buf)) {
        const ssize_t n =
            ::recv(fd, buf + got, sizeof(buf) - got, 0);
        ASSERT_GT(n, 0) << "connection closed before the answer";
        got += std::size_t(n);
    }
    u32 rlen;
    std::memcpy(&rlen, buf, 4);
    ASSERT_EQ(rlen, sizeof(widx::net::RespHeader));
    u64 reqId, serverVersion;
    Status st;
    ASSERT_TRUE(widx::net::parseHelloResponse(
        buf + 4, rlen, reqId, st, serverVersion));
    EXPECT_EQ(reqId, 5u);
    EXPECT_EQ(st, Status::UnsupportedVersion);
    EXPECT_EQ(serverVersion, widx::net::kWireProtocolVersion);
    // ... and only then EOF.
    const ssize_t eof = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_LE(eof, 0);
    ::close(fd);
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(TcpFrontEnd, PipelinedAsyncBurstEchoesEveryTagOnce)
{
    // The raced echo: one client thread pipelines a burst of frames
    // (no reaping until all are out), racing the server's event
    // loop, its completion reaper, the walkers, and the client's
    // reader thread — the shape the TSan job runs. With failpoints
    // compiled in, walkers additionally stall and drains slow down
    // mid-burst; the wire contract (every tag exactly once,
    // byte-identical payloads) must hold regardless.
    Dataset d(2000, 1u << 14, 13);
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.walkers = 2;
    IndexService service(*d.build, d.spec, cfg);
    TcpIndexServer server(service);
    TcpIndexClient client("127.0.0.1", server.port());

    if (fp::enabled()) {
        fp::arm("service.walker_stall", 3, 20'000'000);
        fp::arm("service.slow_drain", 16, 2'000'000);
    }

    constexpr std::size_t kReqs = 512;
    constexpr std::size_t kKeys = 24;
    for (std::size_t i = 0; i < kReqs; ++i)
        client.submitAsync(
            RequestKind::Probe,
            {d.keys.data() + (i * kKeys) % (d.keys.size() - kKeys),
             kKeys},
            0, i);

    std::vector<Completion> done;
    auto cq = client.queue();
    for (int tries = 0; done.size() < kReqs && tries < 600; ++tries)
        cq->reap(done, kReqs, std::chrono::milliseconds(100));
    if (fp::enabled())
        fp::disarmAll();
    ASSERT_EQ(done.size(), kReqs);

    std::vector<bool> seen(kReqs, false);
    for (const Completion &c : done) {
        ASSERT_LT(c.tag, kReqs);
        EXPECT_FALSE(seen[c.tag]) << "tag echoed twice";
        seen[c.tag] = true;
        ASSERT_EQ(c.result.status, Status::Ok);
        EXPECT_GT(c.result.completedAtNs, 0u);
        const std::size_t base =
            (c.tag * kKeys) % (d.keys.size() - kKeys);
        expectSameSequence(
            c.result.recs,
            refSequence(*d.flat, {d.keys.data() + base, kKeys}),
            "net burst");
    }
}

TEST(TcpFrontEnd, DeadlinePropagatesAsRelativeTime)
{
    Dataset d(2000, 1024, 17);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);
    TcpIndexServer server(service);
    TcpIndexClient client("127.0.0.1", server.port());

    // 1 ns of remaining time is expired by the time the server
    // anchors it; a generous deadline is not.
    const ServiceResult dead = client.call(
        RequestKind::Count, {d.keys.data(), 64}, /*deadlineNs=*/1);
    EXPECT_EQ(dead.status, Status::DeadlineExceeded);

    const ServiceResult alive =
        client.call(RequestKind::Count, {d.keys.data(), 64},
                    /*deadlineNs=*/u64(5'000'000'000));
    EXPECT_EQ(alive.status, Status::Ok);
}

TEST(WireProtocol, ZeroKeyFramesParse)
{
    // A frame with no keys is well-formed (an empty Count, or an
    // Insert whose payload trailer is empty too): it must parse
    // without copying into the empty key and payload vectors.
    namespace net = widx::net;
    for (RequestKind kind : {RequestKind::Count, RequestKind::Insert}) {
        std::vector<u8> frame;
        net::appendRequest(frame, 9, kind, 0, {});
        net::ReqHeader h;
        std::vector<u64> keys, payloads; // empty: data() is null
        ASSERT_TRUE(net::parseRequest(frame.data() + 4,
                                      frame.size() - 4, h, keys,
                                      nullptr, &payloads));
        EXPECT_EQ(h.reqId, 9u);
        EXPECT_EQ(h.kind, net::wireKindOf(kind));
        EXPECT_EQ(h.nKeys, 0u);
        EXPECT_EQ(bool(h.flags & net::kReqFlagPayloads),
                  kind == RequestKind::Insert);
        EXPECT_TRUE(keys.empty());
        EXPECT_TRUE(payloads.empty());
    }
}

TEST(TcpFrontEnd, MalformedFrameDropsTheConnection)
{
    Dataset d(2000, 256, 19);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);
    TcpIndexServer server(service);
    TcpIndexClient client("127.0.0.1", server.port());

    // A header whose key count exceeds the wire cap is a framing
    // violation: the server must drop the connection without
    // serving anything from it. submitAsync always writes valid
    // frames, so speak to the raw socket directly.
    std::vector<u8> frame;
    const u32 len = u32(24 + 8); // one key's worth of payload
    widx::net::ReqHeader h;
    h.reqId = 1;
    h.kind = 0;
    h.nKeys = widx::net::kMaxKeysPerRequest + 1; // over the cap
    frame.insert(frame.end(),
                 reinterpret_cast<const u8 *>(&len),
                 reinterpret_cast<const u8 *>(&len) + 4);
    frame.insert(frame.end(), reinterpret_cast<const u8 *>(&h),
                 reinterpret_cast<const u8 *>(&h) + sizeof(h));
    frame.resize(4 + len, 0);
    const int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              ssize_t(frame.size()));
    // The server answers a framing violation by closing: the next
    // read returns EOF (possibly after a beat).
    u8 buf[16];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_LE(n, 0);
    ::close(fd);

    // The healthy connection is unaffected.
    const ServiceResult ok =
        client.call(RequestKind::Count, {d.keys.data(), 64});
    EXPECT_EQ(ok.status, Status::Ok);
    EXPECT_GE(server.stats().protocolErrors, 1u);
}

TEST(TcpFrontEnd, OversizedResponseDowngradesToRejected)
{
    // Writer-side mirror of the reader's frame cap: a result whose
    // record array cannot fit under kMaxFrameBytes must not be
    // serialized as an oversized frame — the peer's FrameReader
    // would drop the connection as a protocol error, and far past
    // the cap the u32 length prefix itself would wrap. It goes out
    // as a record-less Rejected response the reader accepts.
    ServiceResult big;
    big.recs.resize(std::size_t(widx::net::kMaxRecsPerResponse) + 1);
    big.matches = big.recs.size();
    std::vector<u8> out;
    widx::net::appendResponse(out, 42, RequestKind::Join, big);
    EXPECT_LE(out.size(), 4 + std::size_t(widx::net::kMaxFrameBytes));

    widx::net::FrameReader rd;
    rd.feed(out.data(), out.size());
    std::span<const u8> payload;
    bool bad = false;
    ASSERT_TRUE(rd.next(payload, bad));
    ASSERT_FALSE(bad);
    widx::net::RespHeader h;
    ServiceResult parsed;
    ASSERT_TRUE(widx::net::parseResponse(payload.data(),
                                         payload.size(), h, parsed));
    EXPECT_EQ(h.reqId, 42u);
    EXPECT_EQ(parsed.status, Status::Rejected);
    EXPECT_TRUE(parsed.recs.empty());
    EXPECT_EQ(parsed.matches, big.matches);
}

TEST(TcpFrontEnd, ServerStopWithRequestsInFlightNeverHangs)
{
    Dataset d(1u << 14, 1u << 15, 23);
    ServiceConfig cfg;
    cfg.walkers = 1;
    IndexService service(*d.flat, cfg);
    auto server = std::make_unique<TcpIndexServer>(service);
    TcpIndexClient client("127.0.0.1", server->port());

    // A deep pipelined backlog, then tear the server down
    // mid-drain. stop() must wait out its own in-flight requests
    // (the service completes every one), the client's reader must
    // see EOF and close the queue, and nothing may hang.
    constexpr std::size_t kReqs = 256;
    for (std::size_t i = 0; i < kReqs; ++i)
        client.submitAsync(RequestKind::Count,
                           {d.keys.data() + 64 * (i % 128), 64}, 0,
                           i);
    server->stop();

    auto cq = client.queue();
    std::vector<Completion> done;
    for (int tries = 0; tries < 100; ++tries) {
        const std::size_t before = done.size();
        cq->reap(done, kReqs, std::chrono::milliseconds(50));
        if (done.size() == kReqs ||
            (cq->closed() && done.size() == before))
            break;
    }
    // Every response that made it out before the teardown is
    // intact; the rest were dropped server-side, never duplicated.
    std::vector<bool> seen(kReqs, false);
    for (const Completion &c : done) {
        ASSERT_LT(c.tag, kReqs);
        EXPECT_FALSE(seen[c.tag]);
        seen[c.tag] = true;
    }
    EXPECT_LE(done.size(), kReqs);
    // A submission after the connection died synthesizes Cancelled
    // locally instead of blocking or vanishing.
    client.close();
    client.submitAsync(RequestKind::Count, {d.keys.data(), 64}, 0,
                       kReqs);
    std::vector<Completion> late;
    cq->reap(late, 4, std::chrono::milliseconds(100));
    ASSERT_GE(late.size(), 1u);
    bool sawCancelled = false;
    for (const Completion &c : late)
        sawCancelled |= c.tag == kReqs &&
                        c.result.status == Status::Cancelled;
    EXPECT_TRUE(sawCancelled);
    server.reset();
}

TEST(TcpFrontEnd, OpenLoopOverTheSocketAccountsEveryArrival)
{
    Dataset d(2000, 1u << 14, 29);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);
    TcpIndexServer server(service);
    TcpIndexClient client("127.0.0.1", server.port());

    OpenLoopOptions opt;
    opt.ratePerSec = 4000;
    opt.requests = 400;
    opt.keysPerRequest = 32;
    opt.kind = RequestKind::Count;
    opt.sloNs = 1'000'000'000;
    const OpenLoopReport rep =
        widx::net::runOpenLoopNet(client, d.keys, opt);

    // Conservation: every scheduled arrival is accounted exactly
    // once, and everything submitted came back classified.
    EXPECT_EQ(rep.scheduled, opt.requests);
    EXPECT_EQ(rep.scheduled, rep.submitted + rep.shedClientCap);
    EXPECT_EQ(rep.submitted, rep.completed + rep.rejected +
                                 rep.expired + rep.timedOut);
    EXPECT_GT(rep.completed, 0u);
    EXPECT_GE(rep.completed, rep.goodput);
    EXPECT_GT(rep.latency.count, 0u);

    // The server's side of the same ledger: every submitted frame
    // was parsed and submitted, none was malformed, and each was
    // answered or dropped with its connection. The Hello is the one
    // response with no request behind it.
    client.close();
    server.stop();
    const widx::net::TcpServerStats st = server.stats();
    EXPECT_EQ(st.requests, rep.submitted);
    EXPECT_EQ(st.protocolErrors, 0u);
    EXPECT_EQ(st.responses + st.droppedResponses, st.requests + 1);
}
