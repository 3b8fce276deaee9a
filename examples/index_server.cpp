/**
 * @file
 * Index server demo: the persistent sharded index service fielding
 * small concurrent probe requests from several client threads — the
 * north star's many-small-queries regime, in miniature.
 *
 *   $ ./example_index_server
 *
 * Walks through the service API:
 *   1. load a build relation into a column;
 *   2. start an IndexService owning 4 hash-range shards, with 4
 *      persistent walker threads parked between requests, any of
 *      which drains the next dispatch window;
 *   3. fire closed-loop clients that submit small probe / count /
 *      join requests and block on their tickets;
 *   4. verify a sample request byte-for-byte against the
 *      single-threaded probeBatch reference and print the service's
 *      traffic counters;
 *   5. print the per-kind latency report (end-to-end percentiles
 *      plus the queue-wait vs drain-time split that attributes
 *      admission-coalescing delay) and drive a short *open-loop*
 *      phase — Poisson arrivals at a fixed rate, no waiting between
 *      submissions — whose percentiles are free of coordinated
 *      omission (a stalled walker can't stall this generator);
 *   6. go fully async: one client thread parks thousands of
 *      requests in the service through submitAsync + a
 *      CompletionQueue and reaps completions in batches — the
 *      submission surface everything above is sugar over;
 *   7. serve sockets: a TcpIndexServer (epoll event loop + batch
 *      completion reaper) fields the same requests over a
 *      length-prefixed binary protocol from a TcpIndexClient on
 *      loopback, including an open-loop ladder over the real wire;
 *   8. demonstrate graceful degradation: a second service with
 *      SLO-driven adaptive admission, per-request deadlines, and
 *      the walker watchdog, driven in overload bursts — then the
 *      shutdown contract (Ctrl-C or natural end): stop() drains
 *      in-flight windows, cancels queued ones (completions arrive
 *      with Status::Cancelled, never hang), and dumps the final
 *      accounting.
 *
 * Observability runs through every phase: the service registers its
 * metrics on an `obs::MetricsRegistry` (scraped over the wire in the
 * TCP phase), requests carry trace ids into a shared
 * `obs::TraceRing`, and SIGUSR1 dumps the ring as
 * chrome://tracing-loadable JSON to `widx_trace.json` (`--smoke`
 * raises it once so CI exercises the dump).
 *
 * `--smoke` shrinks every phase for CI (bounded seconds, same code
 * paths). `--serve <port>` skips the demo phases and just serves the
 * TCP front-end (with the Stats scrape kind) on a fixed port until
 * SIGINT/SIGTERM — the mode the CI scrape step drives `widx_stats`
 * against.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "net/open_loop_net.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/index_service.hh"
#include "service/open_loop.hh"
#include "workload/distributions.hh"

using namespace widx;

namespace {
std::atomic<bool> g_interrupted{false};
std::atomic<bool> g_dumpTrace{false};
}

int
main(int argc, char **argv)
{
    bool smoke = false;
    int servePort = -1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--serve") == 0 &&
                   i + 1 < argc) {
            servePort = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--serve <port>]\n",
                         argv[0]);
            return 2;
        }
    }

    // 1. Data: a 256K-tuple build relation (unique keys) and a pool
    //    of probe keys the clients draw from.
    const u64 tuples = smoke ? 64 * 1024 : 256 * 1024;
    Arena arena;
    Rng rng(42);

    db::Column build("build.key", db::ValueKind::U64, arena, tuples);
    for (u64 k : wl::shuffledDenseKeys(tuples, rng))
        build.push(k);
    std::vector<u64> probePool = wl::uniformKeys(1u << 20, tuples, rng);

    // 2. Service: 4 hash-range shards (each with its own bucket+tag
    //    arena), 4 walkers parked on a condvar between requests.
    db::IndexSpec ispec;
    ispec.buckets = tuples;
    ispec.hashFn = db::HashFn::monetdbRobust();
    sw::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.walkers = 4;
    // Observability: hardware-counter sampling every 32nd window
    // (degrades to zeros where perf is denied) and a span-trace
    // ring shared with the TCP server's reaper.
    cfg.perfSamplePeriod = 32;
    auto trace = std::make_shared<obs::TraceRing>(8192);
    cfg.trace = trace;
    // Serve-only mode runs the adaptive admission controller so a
    // scrape shows the full widx_admission_* family set; the demo
    // phases keep the static path their printed numbers assume.
    if (servePort >= 0)
        cfg.admission.adaptive = true;
    sw::IndexService service(build, ispec, cfg);
    std::printf("service: %u shards x %llu buckets, %u walkers, "
                "%.1f MB footprint\n",
                service.shards(),
                (unsigned long long)service.index().shard(0)
                    .numBuckets(),
                service.walkers(),
                double(service.index().footprintBytes()) / 1048576.0);

    // Everything ad-hoc above is also exported uniformly: the
    // registry pulls service state through a collector at scrape
    // time (zero hot-path cost) and serves it as Prometheus text
    // exposition — locally below, and over the wire via the Stats
    // request kind.
    obs::MetricsRegistry registry;
    service.registerMetrics(registry);
    std::signal(SIGUSR1, [](int) { g_dumpTrace.store(true); });
    auto dumpTraceIfAsked = [&] {
        if (!g_dumpTrace.exchange(false))
            return;
        const std::string json = trace->renderChromeTrace();
        FILE *f = std::fopen("widx_trace.json", "w");
        if (!f) {
            std::fprintf(stderr, "trace: cannot open "
                                 "widx_trace.json for writing\n");
            return;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("trace: wrote %zu bytes to widx_trace.json "
                    "(load it in chrome://tracing)\n",
                    json.size());
    };

    if (servePort >= 0) {
        // Serve-only mode for scrapers: the TCP front-end with the
        // shared registry and trace ring, parked until a signal.
        // One warm-up probe first, so that from the moment the port
        // accepts, a scrape carries latency samples (idle request
        // kinds stay out of the exposition) and the trace ring has a
        // spanned request.
        sw::SubmitOptions warmOpt;
        warmOpt.traceId = 0x3e41;
        service
            .submit(sw::RequestKind::Probe,
                    {probePool.data(), 256}, warmOpt)
            .get();
        net::TcpServerOptions sopt;
        sopt.port = u16(servePort);
        sopt.metrics = &registry;
        sopt.trace = trace;
        net::TcpIndexServer server(service, sopt);
        std::signal(SIGINT, [](int) { g_interrupted.store(true); });
        std::signal(SIGTERM, [](int) { g_interrupted.store(true); });
        std::printf("serving on 127.0.0.1:%u (scrape with "
                    "widx_stats --port %u; SIGUSR1 dumps "
                    "widx_trace.json; SIGINT/SIGTERM exits)\n",
                    server.port(), server.port());
        std::fflush(stdout);
        while (!g_interrupted.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            dumpTraceIfAsked();
        }
        server.stop();
        return 0;
    }

    // 3. Closed-loop clients: each submits back-to-back small
    //    requests (a handful of keys — the admission batcher
    //    coalesces concurrent tails into shared dispatch windows).
    const unsigned clients = 4;
    const unsigned requestsPerClient = smoke ? 250 : 2000;
    const std::size_t requestKeys = 16;
    std::vector<std::thread> threads;
    std::vector<u64> clientMatches(clients, 0);
    const auto start = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            std::size_t base = std::size_t(c) * 257 * requestKeys;
            u64 m = 0;
            for (unsigned r = 0; r < requestsPerClient; ++r) {
                base = (base + requestKeys) %
                       (probePool.size() - requestKeys);
                m += service.count(
                    {probePool.data() + base, requestKeys});
            }
            clientMatches[c] = m;
        });
    for (auto &t : threads)
        t.join();
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    // 4a. Verify one request against the single-threaded reference.
    //     The sample request is traced: its lifecycle spans (submit
    //     / window seal / first claim / drain done) land in the
    //     ring the SIGUSR1 dump serializes.
    const std::span<const u64> sample{probePool.data(), 4096};
    sw::SubmitOptions sampleOpt;
    sampleOpt.traceId = 0x5a11;
    sw::ServiceResult got =
        service.submit(sw::RequestKind::Probe, sample, sampleOpt)
            .get();
    std::vector<sw::MatchRec> want;
    u64 want_n = 0;
    // A flat reference index over the same column and geometry.
    Arena refArena;
    db::HashIndex ref(ispec, refArena);
    ref.buildFromColumn(build);
    want_n = ref.probeBatch(
        sample, [&](std::size_t i, u64 key, u64 payload) {
            want.push_back({i, key, payload});
        });
    bool identical = got.matches == want_n &&
                     got.recs.size() == want.size();
    for (std::size_t i = 0; identical && i < want.size(); ++i)
        identical = got.recs[i].i == want[i].i &&
                    got.recs[i].key == want[i].key &&
                    got.recs[i].payload == want[i].payload;
    std::printf("sample request: %llu matches, %s the probeBatch "
                "reference\n",
                (unsigned long long)got.matches,
                identical ? "byte-identical to" : "MISMATCH vs");

    // 4b. Traffic counters.
    const sw::ServiceStats stats = service.stats();
    const u64 totalReqs = u64(clients) * requestsPerClient;
    std::printf("served %llu requests (%zu keys each) from %u "
                "clients in %.2fs: %.0f req/s, %.2f M keys/s\n",
                (unsigned long long)totalReqs, requestKeys, clients,
                secs, double(totalReqs) / secs,
                double(totalReqs * requestKeys) / secs / 1e6);
    std::printf("dispatch windows: %llu (%llu coalesced across "
                "requests), tag reject rate %.1f%%\n",
                (unsigned long long)stats.windows,
                (unsigned long long)stats.coalescedWindows,
                100.0 * service.index().tagStats().rejectRate());

    // 4c. Latency report: every request was timestamped at submit,
    //     first window claim, and publication, so end-to-end splits
    //     exactly into queue-wait (where coalescing hold lands) and
    //     drain-time.
    std::printf("latency (closed-loop phase):\n"
                "  %-6s %8s %9s %9s %9s %9s %11s %11s\n", "kind",
                "count", "p50", "p99", "p99.9", "max", "queue-mean",
                "drain-mean");
    const char *kindName[] = {"count", "probe", "join"};
    for (sw::RequestKind k :
         {sw::RequestKind::Count, sw::RequestKind::Probe,
          sw::RequestKind::Join}) {
        const sw::KindLatency &kl = stats.latencyFor(k);
        if (kl.endToEnd.count == 0)
            continue;
        std::printf("  %-6s %8llu %8.1fu %8.1fu %8.1fu %8.1fu "
                    "%10.1fu %10.1fu\n",
                    kindName[unsigned(k)],
                    (unsigned long long)kl.endToEnd.count,
                    double(kl.endToEnd.p50Ns) / 1e3,
                    double(kl.endToEnd.p99Ns) / 1e3,
                    double(kl.endToEnd.p999Ns) / 1e3,
                    double(kl.endToEnd.maxNs) / 1e3,
                    kl.queueWait.meanNs() / 1e3,
                    kl.drainTime.meanNs() / 1e3);
    }

    // 5. Open-loop phase: arrivals at a fixed rate, submissions
    //    never wait for completions, latency measured from each
    //    request's *scheduled* arrival (no coordinated omission).
    service.resetLatencyStats();
    sw::OpenLoopOptions ol;
    ol.ratePerSec = smoke ? 10000 : 20000;
    ol.requests = smoke ? 1000 : 5000;
    ol.keysPerRequest = requestKeys;
    sw::OpenLoopReport rep = sw::runOpenLoop(service, probePool, ol);
    std::printf("open-loop phase: %llu arrivals at %.0f/s "
                "(achieved %.0f/s), %llu shed, %llu timed out\n"
                "  p50 %.1fus  p90 %.1fus  p99 %.1fus  p99.9 "
                "%.1fus  max %.1fus\n",
                (unsigned long long)rep.scheduled, ol.ratePerSec,
                rep.achievedRate,
                (unsigned long long)rep.shedClientCap,
                (unsigned long long)rep.timedOut,
                double(rep.latency.p50Ns) / 1e3,
                double(rep.latency.p90Ns) / 1e3,
                double(rep.latency.p99Ns) / 1e3,
                double(rep.latency.p999Ns) / 1e3,
                double(rep.latency.maxNs) / 1e3);

    // 6. Async submission: count()/probe()/join() and the open-loop
    //    generator above are all sugar over this — submitAsync hands
    //    the request to the walkers and returns immediately; the
    //    completion lands on a CompletionQueue tagged with the
    //    caller's id. One thread parks thousands of requests before
    //    reaping anything, then drains the queue in batches.
    const std::size_t kAsync = smoke ? 1200 : 4096;
    auto cq = std::make_shared<sw::CompletionQueue>();
    const auto asyncT0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kAsync; ++i) {
        const std::size_t base =
            (i * 131 * requestKeys) % (probePool.size() - requestKeys);
        service.submitAsync(sw::RequestKind::Count,
                            {probePool.data() + base, requestKeys},
                            {}, cq, i);
    }
    const u64 liveAfterSubmit = service.stats().liveRequests;
    std::vector<sw::Completion> asyncDone;
    std::size_t reapBatches = 0;
    while (asyncDone.size() < kAsync) {
        const std::size_t before = asyncDone.size();
        cq->reap(asyncDone, kAsync, std::chrono::milliseconds(100));
        reapBatches += asyncDone.size() > before;
    }
    const double asyncSecs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - asyncT0)
            .count();
    u64 asyncMatches = 0;
    for (const sw::Completion &c : asyncDone)
        asyncMatches += c.result.matches;
    std::printf("async phase: %zu requests from one thread (%llu "
                "still live after the last submit), reaped in %zu "
                "batches, %llu matches, %.0f req/s\n",
                kAsync, (unsigned long long)liveAfterSubmit,
                reapBatches, (unsigned long long)asyncMatches,
                double(kAsync) / asyncSecs);

    // 7. TCP front-end: the same service behind an epoll socket
    //    server speaking the length-prefixed binary protocol. One
    //    blocking call() round-trips the sample request; then the
    //    open-loop generator reruns over the real wire through the
    //    client's completion queue (same driver as phase 5, latency
    //    now including both wire directions).
    {
        net::TcpServerOptions topt;
        topt.metrics = &registry;
        topt.trace = trace;
        net::TcpIndexServer tcpServer(service, topt);
        net::TcpIndexClient tcpClient("127.0.0.1", tcpServer.port());
        const sw::ServiceResult wired =
            tcpClient.call(sw::RequestKind::Count, sample);
        std::printf("tcp phase: 127.0.0.1:%u, call(count, %zu keys) "
                    "-> %llu matches (%s the local sample)\n",
                    tcpServer.port(), sample.size(),
                    (unsigned long long)wired.matches,
                    wired.matches == got.matches ? "matches"
                                                 : "MISMATCH vs");
        if (wired.matches != got.matches)
            identical = false;
        sw::OpenLoopOptions nol;
        nol.ratePerSec = smoke ? 4000 : 10000;
        nol.requests = smoke ? 500 : 4000;
        nol.keysPerRequest = requestKeys;
        nol.sloNs = 50'000'000;
        const sw::OpenLoopReport nrep =
            net::runOpenLoopNet(tcpClient, probePool, nol);
        // Scrape the registry over the same socket: the Stats wire
        // kind answers from the event loop without touching the
        // admission windows it measures.
        const std::string expo = tcpClient.stats();
        std::size_t families = 0;
        for (std::size_t p = expo.find("# TYPE ");
             p != std::string::npos; p = expo.find("# TYPE ", p + 1))
            ++families;
        std::printf("tcp stats scrape: %zu bytes of Prometheus "
                    "exposition, %zu metric families\n",
                    expo.size(), families);
        tcpClient.close();
        tcpServer.stop();
        const net::TcpServerStats nst = tcpServer.stats();
        std::printf("tcp open-loop: %llu arrivals at %.0f/s "
                    "(achieved %.0f/s), %llu ok, %llu shed, "
                    "%llu timed out\n"
                    "  p50 %.1fus  p99 %.1fus  max %.1fus  | server: "
                    "%llu reqs, %llu resps, %llu proto errors\n",
                    (unsigned long long)nrep.scheduled,
                    nol.ratePerSec, nrep.achievedRate,
                    (unsigned long long)nrep.completed,
                    (unsigned long long)nrep.shedClientCap,
                    (unsigned long long)nrep.timedOut,
                    double(nrep.latency.p50Ns) / 1e3,
                    double(nrep.latency.p99Ns) / 1e3,
                    double(nrep.latency.maxNs) / 1e3,
                    (unsigned long long)nst.requests,
                    (unsigned long long)nst.responses,
                    (unsigned long long)nst.protocolErrors);
    }

    // 8. Graceful degradation: a second service with the adaptive
    //    admission controller, per-request deadlines, and the
    //    walker watchdog on, driven in overload bursts. Ctrl-C at
    //    any point between bursts (or the natural end of the
    //    phase) triggers the shutdown contract: stop() cancels the
    //    queued windows — their tickets complete immediately with
    //    Status::Cancelled — in-flight drains finish, the walkers
    //    join, and the final stats dump shows where every request
    //    went. No waiter is ever left hanging.
    std::signal(SIGINT, [](int) { g_interrupted.store(true); });
    sw::ServiceConfig ocfg;
    ocfg.shards = 4;
    ocfg.walkers = 4;
    ocfg.admission.adaptive = true; // queue-wait p99 -> 2 ms
    ocfg.watchdogPeriodNs = 20'000'000;
    sw::IndexService overloaded(build, ispec, ocfg);
    sw::OpenLoopOptions oo;
    oo.ratePerSec = 120000;
    oo.requests = smoke ? 1500 : 6000;
    oo.keysPerRequest = requestKeys;
    oo.deadlineNs = 10'000'000; // give up on a request past 10 ms
    oo.sloNs = 5'000'000;       // goodput = Ok within 5 ms
    const int bursts = smoke ? 1 : 3;
    std::printf("overload phase (Ctrl-C to drain early):\n");
    for (int burst = 0; burst < bursts && !g_interrupted.load();
         ++burst) {
        oo.seed = u64(burst + 1);
        sw::OpenLoopReport orep =
            sw::runOpenLoop(overloaded, probePool, oo);
        std::printf("  burst %d: offered %.0f/s, goodput %.0f/s "
                    "(%llu ok-in-SLO / %llu submitted), "
                    "%llu rejected, %llu expired\n",
                    burst, orep.offeredRate, orep.goodputRate,
                    (unsigned long long)orep.goodput,
                    (unsigned long long)orep.submitted,
                    (unsigned long long)orep.rejected,
                    (unsigned long long)orep.expired);
    }

    // Park a burst of async requests, then stop() mid-flight: every
    // tag still yields exactly one completion — drained Ok or
    // Cancelled — so the reap loop below always terminates.
    constexpr std::size_t kParked = 64;
    auto drainCq = std::make_shared<sw::CompletionQueue>();
    for (std::size_t i = 0; i < kParked; ++i)
        overloaded.submitAsync(sw::RequestKind::Count, sample, {},
                               drainCq, i);
    overloaded.stop();
    unsigned drained = 0, cancelled = 0;
    std::vector<sw::Completion> parked;
    while (parked.size() < kParked)
        drainCq->reap(parked, kParked,
                      std::chrono::milliseconds(100));
    for (const sw::Completion &c : parked)
        (c.result.status == sw::Status::Cancelled ? cancelled
                                                  : drained)++;
    const sw::ServiceStats fin = overloaded.stats();
    std::printf(
        "drain: 64 parked requests -> %u drained, %u cancelled\n"
        "final stats: %llu ok, %llu rejected, %llu expired, "
        "%llu cancelled, %llu walker stalls\n"
        "admission: hold %llu keys, budget %llu keys, "
        "%llu adjustments (%llu down), last window p99 %.1fus\n",
        drained, cancelled,
        (unsigned long long)fin.completedOk,
        (unsigned long long)fin.rejected,
        (unsigned long long)fin.expired,
        (unsigned long long)fin.cancelled,
        (unsigned long long)fin.walkerStalls,
        (unsigned long long)fin.admission.holdKeys,
        (unsigned long long)fin.admission.budgetKeys,
        (unsigned long long)fin.admission.adjustments,
        (unsigned long long)fin.admission.decreases,
        double(fin.admission.lastWindowP99Ns) / 1e3);

    // Trace dump: SIGUSR1 at any point marks the ring for dumping;
    // smoke raises it here so CI exercises the chrome://tracing
    // export every run.
    if (smoke)
        std::raise(SIGUSR1);
    dumpTraceIfAsked();
    return identical ? 0 : 1;
}
