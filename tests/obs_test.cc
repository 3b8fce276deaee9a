/**
 * @file
 * Tests for the observability layer (src/obs/): the Prometheus
 * text-exposition golden (the serializer is deterministic, so the
 * expected output is an exact string), trace-ring wraparound and
 * torn-read safety under concurrent writers (the TSan job runs this
 * suite), chrome://tracing JSON structure, PerfGroup on both the
 * real-perf and degraded paths (zeros, never garbage), the
 * registry-backed open-loop report, the end-to-end TCP stats
 * scrape + trace-span path through a live server, and the one-source
 * contract: stats() and the scrape read the same counter cells, and
 * no series is exported twice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/arena.hh"
#include "common/rng.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/perf_group.hh"
#include "obs/trace.hh"
#include "service/open_loop.hh"
#include "workload/distributions.hh"

using namespace widx;
using namespace widx::sw;

namespace {

/** Build column with duplicates + a flat reference index (the same
 *  shape the net suite uses). */
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
            build->push(k);
        spec.buckets = tuples / 2;
        flat = std::make_unique<db::HashIndex>(spec, arena);
        flat->buildFromColumn(*build);
        keys = wl::uniformKeys(probes, tuples / 2 + 1, rng);
    }
};

/** Series (family name plus label set) that a snapshot holds more
 *  than once. snapshot() merges same-name families, so a fact kept
 *  both in a handle and in a collector shows up exactly this way. */
std::vector<std::string>
duplicateSeries(const obs::Snapshot &snap)
{
    std::vector<std::string> dups;
    for (const obs::Family &f : snap) {
        for (std::size_t i = 1; i < f.samples.size(); ++i) {
            if (f.samples[i].labels != f.samples[i - 1].labels)
                continue;
            std::string series = f.name;
            for (const auto &[k, v] : f.samples[i].labels)
                series += " " + k + "=" + v;
            dups.push_back(series);
        }
    }
    return dups;
}

} // namespace

TEST(Metrics, PrometheusExpositionGolden)
{
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("test_requests_total",
                                 "Total requests.",
                                 {{"kind", "probe"}});
    c.inc(41);
    c.inc();
    // Same (name, labels) hands back the same cell, not a shadow.
    obs::Counter c2 = reg.counter("test_requests_total",
                                  "Total requests.",
                                  {{"kind", "probe"}});
    EXPECT_EQ(c2.value(), 42u);

    obs::Gauge g =
        reg.gauge("test_temp_celsius", "Help with \\ and \n inside.",
                  {{"zone", "a\"b\\c\nd"}});
    g.set(1.5);

    reg.addCollector([](obs::Snapshot &out) {
        obs::Family f;
        f.name = "test_latency_ns";
        f.help = "Latency.";
        f.type = obs::MetricType::Histogram;
        obs::Sample s;
        s.hist.bounds = {1000.0, 2000.0};
        s.hist.cumulative = {3, 5};
        s.hist.count = 7;
        s.hist.sum = 12345.0;
        f.samples.push_back(std::move(s));
        out.push_back(std::move(f));
    });

    const std::string want =
        "# HELP test_latency_ns Latency.\n"
        "# TYPE test_latency_ns histogram\n"
        "test_latency_ns_bucket{le=\"1000\"} 3\n"
        "test_latency_ns_bucket{le=\"2000\"} 5\n"
        "test_latency_ns_bucket{le=\"+Inf\"} 7\n"
        "test_latency_ns_sum 12345\n"
        "test_latency_ns_count 7\n"
        "# HELP test_requests_total Total requests.\n"
        "# TYPE test_requests_total counter\n"
        "test_requests_total{kind=\"probe\"} 42\n"
        "# HELP test_temp_celsius Help with \\\\ and \\n inside.\n"
        "# TYPE test_temp_celsius gauge\n"
        "test_temp_celsius{zone=\"a\\\"b\\\\c\\nd\"} 1.5\n";
    EXPECT_EQ(reg.renderPrometheus(), want);

    // The same snapshot feeds programmatic lookups.
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(obs::snapshotValue(snap, "test_requests_total",
                                 {{"kind", "probe"}}),
              42.0);
    EXPECT_EQ(obs::snapshotValue(snap, "test_temp_celsius",
                                 {{"zone", "a\"b\\c\nd"}}),
              1.5);
    EXPECT_EQ(obs::snapshotValue(snap, "no_such_metric", {}, -1.0),
              -1.0);
}

TEST(Metrics, HistogramDataIsCumulativeAndExact)
{
    LatencyHistogram h;
    h.record(500);           // sub-1us
    h.record(1'000'000);     // 1 ms
    h.record(1'000'000'000); // 1 s
    const obs::HistogramData d = obs::toHistogramData(h);
    ASSERT_EQ(d.bounds.size(), d.cumulative.size());
    ASSERT_FALSE(d.bounds.empty());
    for (std::size_t i = 1; i < d.bounds.size(); ++i) {
        EXPECT_GT(d.bounds[i], d.bounds[i - 1]);
        EXPECT_GE(d.cumulative[i], d.cumulative[i - 1]);
    }
    EXPECT_EQ(d.count, 3u);
    EXPECT_EQ(d.sum, 500.0 + 1e6 + 1e9);
    EXPECT_GE(d.cumulative.front(), 1u); // the 500 ns sample
    EXPECT_LE(d.cumulative.back(), d.count);
}

TEST(TraceRing, WraparoundKeepsTheNewestEvents)
{
    obs::TraceRing ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (u64 i = 0; i < 100; ++i)
        ring.record(1, obs::SpanPoint::Submit, /*tsNs=*/i,
                    u32(i));
    EXPECT_EQ(ring.recorded(), 100u);
    const auto evs = ring.snapshot();
    ASSERT_EQ(evs.size(), 8u);
    for (const auto &e : evs) {
        EXPECT_GE(e.tsNs, 92u);
        EXPECT_LT(e.tsNs, 100u);
        EXPECT_EQ(e.arg, u32(e.tsNs)); // fields travel together
    }
}

TEST(TraceRing, ConcurrentWritersNeverTearASnapshot)
{
    obs::TraceRing ring(1024);
    constexpr unsigned kThreads = 4;
    constexpr u64 kPerThread = 20'000;
    std::atomic<bool> stop{false};

    // Reader hammers snapshots while writers wrap the ring many
    // times over; the per-slot seqlock must make every surviving
    // event self-consistent (arg mirrors the low timestamp bits).
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            for (const auto &e : ring.snapshot()) {
                ASSERT_EQ(e.arg, u32(e.tsNs & 0xffffffff));
                ASSERT_EQ(e.traceId, e.tsNs + 1);
            }
        }
    });
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (u64 i = 0; i < kPerThread; ++i) {
                const u64 ts = t * kPerThread + i;
                ring.record(ts + 1, obs::SpanPoint::DrainDone, ts,
                            u32(ts & 0xffffffff));
            }
        });
    }
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(ring.recorded(), u64(kThreads) * kPerThread);
    EXPECT_LE(ring.snapshot().size(), ring.capacity());
}

TEST(TraceRing, ChromeTraceJsonStructure)
{
    obs::TraceRing ring(64);
    ring.record(0xabc, obs::SpanPoint::Submit, 1000, 0);
    ring.record(0xabc, obs::SpanPoint::WindowSeal, 2000, 64);
    ring.record(0xdef, obs::SpanPoint::Submit, 1500, 0);
    ring.record(0xabc, obs::SpanPoint::DrainDone, 3000, 0);
    const std::string json = ring.renderChromeTrace();

    EXPECT_TRUE(json.starts_with("{\"traceEvents\":["));
    EXPECT_TRUE(json.ends_with("],\"displayTimeUnit\":\"ns\"}"));
    // Every event renders; spans of one trace share a tid row.
    EXPECT_NE(json.find("\"name\":\"submit\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"window_seal\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"drain_done\""),
              std::string::npos);
    EXPECT_NE(json.find("\"trace_id\":\"0xabc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"trace_id\":\"0xdef\""),
              std::string::npos);
    // Timestamps are normalized to the earliest event.
    EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
    // Braces balance (cheap well-formedness proxy; chrome's loader
    // is the real consumer).
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (ch == '"' && (i == 0 || json[i - 1] != '\\'))
            inString = !inString;
        if (inString)
            continue;
        if (ch == '{')
            ++depth;
        if (ch == '}') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(inString);

    // An empty ring still renders a loadable document.
    obs::TraceRing empty(4);
    EXPECT_EQ(empty.renderChromeTrace(),
              "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
}

TEST(PerfGroup, BothPathsReturnZerosNeverGarbage)
{
    obs::PerfGroup pg;
    if (!pg.available()) {
        // Degraded path (no perf access — containers, CI): the API
        // stays callable and reads are all-zero with valid=false.
        pg.start();
        pg.stop();
        const obs::PerfGroup::Counts c = pg.read();
        EXPECT_FALSE(c.valid);
        EXPECT_EQ(c.cycles, 0u);
        EXPECT_EQ(c.instructions, 0u);
        EXPECT_EQ(c.llcMisses, 0u);
        EXPECT_EQ(c.dtlbMisses, 0u);
        return;
    }
    // Real path: a measured spin must show cycles and instructions.
    pg.start();
    volatile u64 sink = 0;
    for (u64 i = 0; i < 1'000'000; ++i)
        sink = sink + i;
    pg.stop();
    const obs::PerfGroup::Counts c = pg.read();
    EXPECT_TRUE(c.valid);
    EXPECT_GT(c.cycles, 0u);
    EXPECT_GT(c.instructions, 0u);
}

TEST(ServiceObs, RegistryExportsServiceFamilies)
{
    Dataset d(2000, 2048, 29);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.watchdogPeriodNs = 5'000'000;
    IndexService service(*d.flat, cfg);
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);

    const std::span<const u64> span{d.keys.data(), 512};
    ASSERT_EQ(service.submit(RequestKind::Count, span).get().status,
              Status::Ok);
    ASSERT_EQ(service.probe(span).status, Status::Ok);

    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(obs::snapshotValue(snap, "widx_service_requests_total"),
              2.0);
    EXPECT_EQ(obs::snapshotValue(snap, "widx_service_keys_total"),
              1024.0);
    EXPECT_EQ(obs::snapshotValue(snap,
                                 "widx_service_requests_completed_total",
                                 {{"status", "ok"}}),
              2.0);
    // The live gauge is eventually zero, not instantly: the walker
    // that published the last completion drops its reference to the
    // request a beat after the waiter wakes.
    double live = obs::snapshotValue(snap, "widx_service_live_requests");
    for (int tries = 0; live != 0.0 && tries < 500; ++tries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        live = obs::snapshotValue(reg.snapshot(),
                                  "widx_service_live_requests");
    }
    EXPECT_EQ(live, 0.0);
    EXPECT_GE(obs::snapshotValue(snap, "widx_service_windows_total"),
              1.0);
    // Per-walker families exist for every walker.
    EXPECT_GE(obs::snapshotValue(snap, "widx_walker_windows_total",
                                 {{"walker", "0"}}, -1.0),
              0.0);
    EXPECT_GE(obs::snapshotValue(snap, "widx_walker_windows_total",
                                 {{"walker", "1"}}, -1.0),
              0.0);
    // The latency board is always on: the histogram family is
    // present and internally cumulative.
    bool sawHist = false;
    for (const obs::Family &f : snap) {
        if (f.name != "widx_request_latency_ns")
            continue;
        sawHist = true;
        EXPECT_EQ(f.type, obs::MetricType::Histogram);
        for (const obs::Sample &s : f.samples)
            for (std::size_t i = 1; i < s.hist.cumulative.size();
                 ++i)
                EXPECT_GE(s.hist.cumulative[i],
                          s.hist.cumulative[i - 1]);
    }
    EXPECT_TRUE(sawHist);
    // The exposition the registry renders passes its own contract:
    // non-empty, newline-terminated.
    const std::string text =
        obs::MetricsRegistry::renderPrometheus(snap);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
}

TEST(ServiceObs, StatsAndScrapeAgreeUnderEveryOutcome)
{
    Dataset d(2000, 2048, 43);
    ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.maxQueuedKeys = 64;
    IndexService service(*d.flat, cfg);
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);
    const std::span<const u64> keys{d.keys.data(), 64};

    // Ok: the only walker completes this request, then parks in its
    // callback until released, so what follows stays queued.
    std::promise<void> parked, release;
    std::shared_future<void> go = release.get_future().share();
    Status okStatus = Status::Cancelled;
    service.submitAsync(RequestKind::Count, keys, {},
                        [&, go](ServiceResult &&r) {
                            okStatus = r.status;
                            parked.set_value();
                            go.wait();
                        });
    parked.get_future().wait();
    EXPECT_EQ(okStatus, Status::Ok);

    // Admitted and queued behind the parked walker; its 64 keys fill
    // the queue to maxQueuedKeys, so the next submission bounces.
    ResultTicket queued = service.submit(RequestKind::Count, keys);
    EXPECT_EQ(service.submit(RequestKind::Count, keys).get().status,
              Status::Rejected);
    SubmitOptions past;
    past.deadlineNs = 1;
    EXPECT_EQ(service.submit(RequestKind::Count, keys, past).get().status,
              Status::DeadlineExceeded);
    // stop() cancels the queued window before it joins the parked
    // walker: run it aside, and release the walker once the queued
    // ticket has completed.
    std::thread stopper([&] { service.stop(); });
    EXPECT_EQ(queued.get().status, Status::Cancelled);
    release.set_value();
    stopper.join();

    const ServiceStats s = service.stats();
    EXPECT_EQ(s.completedOk, 1u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.cancelled, 1u);
    EXPECT_EQ(s.requests,
              s.completedOk + s.rejected + s.expired + s.cancelled);

    // Every ServiceStats counter is a view of its scrape sample.
    const obs::Snapshot snap = reg.snapshot();
    auto scraped = [&](const char *name, const obs::Labels &l = {}) {
        return obs::snapshotValue(snap, name, l, -1.0);
    };
    auto outcome = [&](const char *status) {
        return scraped("widx_service_requests_completed_total",
                       {{"status", status}});
    };
    EXPECT_EQ(double(s.requests), scraped("widx_service_requests_total"));
    EXPECT_EQ(double(s.keys), scraped("widx_service_keys_total"));
    EXPECT_EQ(double(s.windows), scraped("widx_service_windows_total"));
    EXPECT_EQ(double(s.windows),
              scraped("widx_walker_windows_total", {{"walker", "0"}}));
    EXPECT_EQ(double(s.coalescedWindows),
              scraped("widx_service_windows_coalesced_total"));
    EXPECT_EQ(double(s.completedOk), outcome("ok"));
    EXPECT_EQ(double(s.rejected), outcome("rejected"));
    EXPECT_EQ(double(s.expired), outcome("expired"));
    EXPECT_EQ(double(s.cancelled), outcome("cancelled"));
    EXPECT_EQ(double(s.walkerStalls),
              scraped("widx_service_walker_stalls_total"));
    EXPECT_EQ(double(s.liveRequests),
              scraped("widx_service_live_requests"));
    EXPECT_TRUE(duplicateSeries(snap).empty());
}

TEST(ServiceObs, TraceSpansCoverTheRequestLifecycle)
{
    Dataset d(2000, 2048, 31);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.trace = std::make_shared<obs::TraceRing>(1024);
    IndexService service(*d.flat, cfg);

    SubmitOptions opt;
    opt.traceId = 0x7777;
    const std::span<const u64> span{d.keys.data(), 512};
    const ServiceResult r =
        service.submit(RequestKind::Count, span, opt).get();
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.traceId, 0x7777u);

    // An untraced request stamps nothing.
    ASSERT_EQ(service.submit(RequestKind::Count, span).get().status,
              Status::Ok);

    u64 tSubmit = 0, tSeal = 0, tClaim = 0, tDone = 0;
    for (const auto &e : cfg.trace->snapshot()) {
        ASSERT_EQ(e.traceId, 0x7777u);
        switch (e.point) {
        case obs::SpanPoint::Submit:
            tSubmit = e.tsNs;
            break;
        case obs::SpanPoint::WindowSeal:
            tSeal = e.tsNs;
            break;
        case obs::SpanPoint::FirstClaim:
            tClaim = e.tsNs;
            break;
        case obs::SpanPoint::DrainDone:
            tDone = e.tsNs;
            break;
        default:
            break;
        }
    }
    ASSERT_GT(tSubmit, 0u);
    ASSERT_GT(tSeal, 0u);
    ASSERT_GT(tClaim, 0u);
    ASSERT_GT(tDone, 0u);
    EXPECT_LE(tSubmit, tSeal);
    EXPECT_LE(tSeal, tClaim);
    EXPECT_LE(tClaim, tDone);
}

TEST(NetObs, StatsScrapeAndReapSpanOverTheWire)
{
    Dataset d(2000, 2048, 37);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.trace = std::make_shared<obs::TraceRing>(1024);
    IndexService service(*d.flat, cfg);

    net::TcpServerOptions sopt;
    sopt.trace = cfg.trace;
    net::TcpIndexServer server(service, sopt);
    net::TcpIndexClient client("127.0.0.1", server.port());

    // One traced request through the full wire path.
    const std::span<const u64> span{d.keys.data(), 256};
    client.submitAsync(RequestKind::Count, span, 0, /*tag=*/1,
                       /*traceId=*/0xbeef);
    std::vector<Completion> batch;
    while (batch.empty())
        client.queue()->reap(batch, 16,
                             std::chrono::milliseconds(50));
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(batch[0].result.status, Status::Ok);

    // Scrape: service + net families in one exposition; the scrape
    // is answered in-line (never a service request).
    const std::string text = client.stats();
    ASSERT_FALSE(text.empty());
    EXPECT_NE(text.find("# TYPE widx_service_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE widx_net_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("widx_net_requests_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("widx_net_open_connections 1\n"),
              std::string::npos);
    EXPECT_EQ(text.find("widx_openloop_"), std::string::npos);

    // A second scrape sees the first one counted.
    const std::string text2 = client.stats();
    EXPECT_NE(text2.find("widx_net_stats_scrapes_total 1\n"),
              std::string::npos);

    // The reaper stamped the reap span after drain-done.
    u64 tDone = 0, tReap = 0;
    for (const auto &e : cfg.trace->snapshot()) {
        if (e.traceId != 0xbeef)
            continue;
        if (e.point == obs::SpanPoint::DrainDone)
            tDone = e.tsNs;
        if (e.point == obs::SpanPoint::Reap)
            tReap = e.tsNs;
    }
    ASSERT_GT(tDone, 0u);
    ASSERT_GT(tReap, 0u);
    EXPECT_GE(tReap, tDone);

    client.close();
    server.stop();
    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(server.stats().statsScrapes, 2u);
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

TEST(NetObs, TcpStatsMatchTheNetFamilies)
{
    Dataset d(2000, 2048, 47);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);
    net::TcpServerOptions sopt;
    sopt.metrics = &reg;
    net::TcpIndexServer server(service, sopt);

    // A short session: four calls and one scrape, then a raw
    // connection whose first frame is too short to hold a header.
    {
        net::TcpIndexClient client("127.0.0.1", server.port());
        for (std::size_t i = 0; i < 4; ++i)
            ASSERT_EQ(client
                          .call(RequestKind::Count,
                                {d.keys.data() + 64 * i, 64})
                          .status,
                      Status::Ok);
        ASSERT_FALSE(client.stats().empty());
        client.close();
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const u8 runt[5] = {1, 0, 0, 0, 0}; // length 1, then one byte
    ASSERT_EQ(::send(fd, runt, sizeof(runt), MSG_NOSIGNAL),
              ssize_t(sizeof(runt)));
    for (int tries = 0; server.stats().closed < 2 && tries < 2500;
         ++tries)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ::close(fd);

    const net::TcpServerStats st = server.stats();
    EXPECT_EQ(st.accepted, 2u);
    EXPECT_EQ(st.closed, 2u);
    EXPECT_EQ(st.requests, 4u);
    EXPECT_EQ(st.responses, 6u); // + the Hello and the scrape
    EXPECT_EQ(st.droppedResponses, 0u);
    EXPECT_EQ(st.protocolErrors, 1u);
    EXPECT_EQ(st.statsScrapes, 1u);

    // Every TcpServerStats counter is a view of its scrape sample.
    const obs::Snapshot snap = reg.snapshot();
    auto scraped = [&](const char *name) {
        return obs::snapshotValue(snap, name, {}, -1.0);
    };
    EXPECT_EQ(double(st.accepted),
              scraped("widx_net_connections_accepted_total"));
    EXPECT_EQ(double(st.closed),
              scraped("widx_net_connections_closed_total"));
    EXPECT_EQ(double(st.requests), scraped("widx_net_requests_total"));
    EXPECT_EQ(double(st.responses), scraped("widx_net_responses_total"));
    EXPECT_EQ(double(st.droppedResponses),
              scraped("widx_net_dropped_responses_total"));
    EXPECT_EQ(double(st.protocolErrors),
              scraped("widx_net_protocol_errors_total"));
    EXPECT_EQ(double(st.statsScrapes),
              scraped("widx_net_stats_scrapes_total"));
    server.stop();
}

TEST(NetObs, ServerAndServiceExportEachSeriesOnce)
{
    // Every optional family on: watchdog, perf sampling, adaptive
    // admission, mutation, and a server sharing the registry.
    Dataset d(2000, 2048, 53);
    ServiceConfig cfg;
    cfg.walkers = 2;
    cfg.shards = 2;
    cfg.watchdogPeriodNs = 5'000'000;
    cfg.perfSamplePeriod = 1;
    cfg.admission.adaptive = true;
    cfg.mutation.enabled = true;
    IndexService service(*d.build, d.spec, cfg);
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);
    net::TcpServerOptions sopt;
    sopt.metrics = &reg;
    net::TcpIndexServer server(service, sopt);

    ASSERT_EQ(service.probe({d.keys.data(), 256}).status, Status::Ok);
    const std::vector<u64> fresh = {1u << 30, (1u << 30) + 1};
    SubmitOptions ins;
    ins.payloads = fresh;
    ASSERT_EQ(service.submit(RequestKind::Insert, fresh, ins).get().status,
              Status::Ok);

    const obs::Snapshot snap = reg.snapshot();
    for (const char *fam :
         {"widx_service_requests_total", "widx_walker_cycles_total",
          "widx_walker_busy_ns", "widx_admission_budget_keys",
          "widx_mutations_total", "widx_request_latency_ns",
          "widx_net_responses_total", "widx_net_open_connections"})
        EXPECT_TRUE(std::any_of(snap.begin(), snap.end(),
                                [&](const obs::Family &f) {
                                    return f.name == fam;
                                }))
            << fam;
    const std::vector<std::string> dups = duplicateSeries(snap);
    EXPECT_TRUE(dups.empty()) << dups.front();
    server.stop();
}

TEST(OpenLoopObs, ReportIsFilledFromTheRegistrySnapshot)
{
    Dataset d(2000, 1u << 13, 41);
    ServiceConfig cfg;
    cfg.walkers = 2;
    IndexService service(*d.flat, cfg);

    OpenLoopOptions opt;
    opt.ratePerSec = 50e3;
    opt.requests = 400;
    opt.keysPerRequest = 32;
    opt.seed = 7;
    const OpenLoopReport rep = runOpenLoop(service, d.keys, opt);

    EXPECT_EQ(rep.scheduled, 400u);
    EXPECT_EQ(rep.submitted + rep.shedClientCap, rep.scheduled);
    // Every submission is accounted exactly once.
    EXPECT_EQ(rep.completed + rep.rejected + rep.expired +
                  rep.timedOut,
              rep.submitted);
    EXPECT_LE(rep.goodput, rep.completed);
    EXPECT_EQ(rep.latency.count, rep.completed);
}
