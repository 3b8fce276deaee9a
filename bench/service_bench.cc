/**
 * @file
 * Benchmarks for the persistent index service (src/service/): the
 * repeated-small-probe regime the service exists for, closed-loop
 * multi-client throughput/latency, and shard/walker scaling.
 *
 * The small-probe rows measure per-call overhead:
 * BM_ServiceSmallProbe submits 64-key requests to walkers parked on
 * a condvar (pinned at K:1 by the bench-regression gate via
 * bench/baseline.json). BM_ServiceLargeProbe is the walker K-scaling
 * sweep on the DRAM-resident dataset.
 *
 * Results land in BENCH_service.json (benchmark's JSON format)
 * unless --benchmark_out is given, so CI can gate and archive them
 * alongside BENCH_sw_walkers.json.
 *
 * NOTE: multi-walker rows scale with the runner's core count; on a
 * single-core host K > 1 time-shares one CPU and shows ~1x (see
 * CHANGES.md for PR 2's identical caveat). The K:1 rows are the
 * portable, pinned ones.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "service/index_service.hh"
#include "service/open_loop.hh"
#include "workload/distributions.hh"

using namespace widx;

namespace {

/** Shared dataset (built once per size). */
struct Dataset
{
    Arena arena;
    std::unique_ptr<db::Column> build;
    db::IndexSpec spec;
    std::unique_ptr<db::HashIndex> index;
    std::vector<u64> keys; ///< uniform hits

    explicit Dataset(u64 tuples)
    {
        Rng rng(42);
        build = std::make_unique<db::Column>(
            "b", db::ValueKind::U64, arena, tuples);
        for (u64 k : wl::shuffledDenseKeys(tuples, rng))
            build->push(k);
        spec.buckets = tuples;
        spec.hashFn = db::HashFn::monetdbRobust();
        index = std::make_unique<db::HashIndex>(spec, arena);
        index->buildFromColumn(*build);
        keys = wl::uniformKeys(1u << 20, tuples, rng);
    }
};

Dataset &
small()
{
    static Dataset d(4096); // L1/L2-resident: isolates call overhead
    return d;
}

Dataset &
large()
{
    static Dataset d(8u << 20); // DRAM-resident
    return d;
}

/** The small-probe request size: one dispatch window's worth. */
constexpr std::size_t kSmallProbe = 64;

void
reportKeys(benchmark::State &state, std::size_t keys_per_iter,
           u64 matches)
{
    state.SetItemsProcessed(i64(state.iterations()) *
                            i64(keys_per_iter));
    benchmark::DoNotOptimize(matches);
}

} // namespace

// ---------------------------------------------------------------------------
// Repeated small probes against parked walkers.
// ---------------------------------------------------------------------------

// Args: K.
static void
BM_ServiceSmallProbe(benchmark::State &state)
{
    Dataset &d = small();
    sw::ServiceConfig cfg;
    cfg.walkers = unsigned(state.range(0));
    sw::IndexService service(*d.index, cfg);
    u64 matches = 0;
    std::size_t base = 0;
    for (auto _ : state) {
        matches += service.count(
            {d.keys.data() + base, kSmallProbe});
        base = (base + kSmallProbe) % (d.keys.size() - kSmallProbe);
    }
    reportKeys(state, kSmallProbe, matches);
}
BENCHMARK(BM_ServiceSmallProbe)
    ->ArgNames({"K"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Same workload with a MetricsRegistry attached: the observability
// acceptance row. Service metrics export through scrape-time
// collectors reading the counters the service already keeps, so the
// per-request delta against BM_ServiceSmallProbe/K:1 is the entire
// registry tax on the hot path — pinned alongside the plain row so
// a future direct-handle-on-the-submit-path change that costs more
// than the noise floor shows up in the gate.
static void
BM_ServiceSmallProbeObs(benchmark::State &state)
{
    Dataset &d = small();
    sw::ServiceConfig cfg;
    cfg.walkers = unsigned(state.range(0));
    sw::IndexService service(*d.index, cfg);
    obs::MetricsRegistry registry;
    service.registerMetrics(registry);
    u64 matches = 0;
    std::size_t base = 0;
    for (auto _ : state) {
        matches += service.count(
            {d.keys.data() + base, kSmallProbe});
        base = (base + kSmallProbe) % (d.keys.size() - kSmallProbe);
    }
    // One scrape outside the timed loop: the exposition must reflect
    // the run (catches a registry wired up but exporting nothing).
    if (registry.renderPrometheus().find(
            "widx_service_requests_total") == std::string::npos)
        std::abort();
    reportKeys(state, kSmallProbe, matches);
}
BENCHMARK(BM_ServiceSmallProbeObs)
    ->ArgNames({"K"})
    ->Arg(1)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------------
// Repeated small probes against a sharded index (1 walker): the
// BM_ServiceSmallProbe workload with the drain resolving each key's
// shard instead of taking the flat single-shard fast path. K is
// fixed at 1 (the portable row — see the note above) and the row
// rides the CI smoke run + bench gate.
// ---------------------------------------------------------------------------

// Args: shards.
static void
BM_ServiceShardedSmallProbe(benchmark::State &state)
{
    Dataset &d = small();
    sw::ServiceConfig cfg;
    cfg.shards = unsigned(state.range(0));
    cfg.walkers = 1;
    sw::IndexService service(*d.build, d.spec, cfg);
    u64 matches = 0;
    std::size_t base = 0;
    for (auto _ : state) {
        matches += service.count(
            {d.keys.data() + base, kSmallProbe});
        base = (base + kSmallProbe) % (d.keys.size() - kSmallProbe);
    }
    reportKeys(state, kSmallProbe, matches);
}
BENCHMARK(BM_ServiceShardedSmallProbe)
    ->ArgNames({"shards"})
    ->Arg(4)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------------
// Closed-loop multi-client throughput: C client threads each submit
// small probes back-to-back against one shared service. Items/s is
// aggregate probed keys/s; the "requests" counter is the aggregate
// request rate (its inverse is the mean request latency).
// ---------------------------------------------------------------------------

// Args: clients, K, shards.
static void
BM_ServiceMultiClient(benchmark::State &state)
{
    Dataset &d = small();
    const unsigned clients = unsigned(state.range(0));
    sw::ServiceConfig cfg;
    cfg.walkers = unsigned(state.range(1));
    cfg.shards = unsigned(state.range(2));
    sw::IndexService service(*d.build, d.spec, cfg);

    // Enough requests per iteration to amortize the client-thread
    // spawn the closed loop itself needs.
    constexpr unsigned kReqPerClient = 64;
    for (auto _ : state) {
        std::vector<std::thread> ts;
        ts.reserve(clients);
        for (unsigned c = 0; c < clients; ++c)
            ts.emplace_back([&, c] {
                std::size_t base =
                    (c * 131071u) % (d.keys.size() - kSmallProbe);
                u64 m = 0;
                for (unsigned r = 0; r < kReqPerClient; ++r) {
                    m += service.count(
                        {d.keys.data() + base, kSmallProbe});
                    base = (base + kSmallProbe) %
                           (d.keys.size() - kSmallProbe);
                }
                benchmark::DoNotOptimize(m);
            });
        for (auto &t : ts)
            t.join();
    }
    const i64 reqs =
        i64(state.iterations()) * clients * kReqPerClient;
    state.SetItemsProcessed(reqs * i64(kSmallProbe));
    state.counters["requests"] =
        benchmark::Counter(double(reqs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceMultiClient)
    ->ArgNames({"C", "K", "shards"})
    ->Args({4, 1, 1})
    ->Args({4, 2, 1})
    ->Args({4, 4, 1})
    ->Args({4, 4, 4})
    ->Args({8, 4, 4})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------------
// Open-loop arrival-rate injection: Poisson arrivals at a fixed
// rate, submissions never wait for completions, latency measured
// from the *scheduled* arrival (no coordinated omission — a stalled
// walker cannot stall the generator the way the closed-loop rows
// above let it). p50/p99 land in the counters; the full
// rate -> percentile ladder across coalescing lives in latency_bench
// (BENCH_latency.json).
// ---------------------------------------------------------------------------

// Args: rate (req/s), coalesce.
static void
BM_ServiceOpenLoop(benchmark::State &state)
{
    Dataset &d = small();
    sw::ServiceConfig cfg;
    cfg.walkers = 1;
    cfg.coalesceTails = state.range(1) != 0;
    sw::IndexService service(*d.index, cfg);

    sw::OpenLoopOptions opt;
    opt.ratePerSec = double(state.range(0));
    opt.requests = 1000;
    opt.keysPerRequest = kSmallProbe;
    opt.arrivals = sw::ArrivalProcess::Poisson;

    LatencyHistogram hist;
    u64 completed = 0;
    for (auto _ : state) {
        const sw::OpenLoopReport rep =
            sw::runOpenLoop(service, d.keys, opt);
        hist.merge(rep.hist);
        completed += rep.completed;
    }
    const LatencySnapshot l = hist.summarize();
    state.counters["p50_ns"] = double(l.p50Ns);
    state.counters["p99_ns"] = double(l.p99Ns);
    state.SetItemsProcessed(i64(completed) * i64(kSmallProbe));
}
BENCHMARK(BM_ServiceOpenLoop)
    ->ArgNames({"rate", "coalesce"})
    ->Args({8000, 1})
    ->Args({8000, 0})
    ->Args({40000, 1})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------------
// Large single-request probes: the one-big-phase regime, service vs
// its own shard ladder (DRAM-resident; shard arenas spread memory
// traffic on multi-controller hosts).
// ---------------------------------------------------------------------------

// Args: K, shards.
static void
BM_ServiceLargeProbe(benchmark::State &state)
{
    Dataset &d = large();
    sw::ServiceConfig cfg;
    cfg.walkers = unsigned(state.range(0));
    cfg.shards = unsigned(state.range(1));
    sw::IndexService service(*d.build, d.spec, cfg);
    u64 matches = 0;
    for (auto _ : state)
        matches = service.count(d.keys);
    reportKeys(state, d.keys.size(), matches);
}
BENCHMARK(BM_ServiceLargeProbe)
    ->ArgNames({"K", "shards"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/** BENCHMARK_MAIN, plus a default JSON results file so the perf
 *  trajectory is machine-readable from every run (same pattern as
 *  sw_walkers_bench). */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    std::string out = "--benchmark_out=BENCH_service.json";
    std::string fmt = "--benchmark_out_format=json";
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
            std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    int n = int(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
