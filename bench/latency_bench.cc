/**
 * @file
 * Overload ladder for the index service: three admission modes
 * (static coalesce, static immediate, adaptive SLO-driven — see
 * src/service/admission.hh) driven open-loop at ~4x the measured
 * saturation rate with per-request deadlines and a goodput SLO,
 * scoring how much *useful* work each mode completes when the
 * offered load cannot possibly be served. Percentiles are measured
 * from *scheduled* arrival time so coordinated omission cannot hide
 * stalls (see src/service/open_loop.hh).
 *
 *   $ ./latency_bench [--smoke] [--repeat=N] [--out=PATH]
 *
 * Results land in BENCH_latency.json (google-benchmark-compatible
 * JSON, extended with goodput and p50_ns/p99_ns/... fields) so
 * tools/bench_regression.py can schema-validate the rows and gate
 * their goodput.
 *
 * NOTE: on a single-core host the generator, reaper, and walker
 * time-share one CPU; the overload rate follows the saturation the
 * same run measures, so goodput fractions stay comparable.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "ol_json.hh"
#include "service/open_loop.hh"
#include "workload/distributions.hh"

using namespace widx;
using bench::OlRow;

namespace {

constexpr std::size_t kKeysPerRequest = 32;

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int repeat = 0; // 0 = default (3: best-of damps scheduler noise)
    const char *out = "BENCH_latency.json";
    std::string outBuf;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            outBuf = argv[i] + 6;
            out = outBuf.c_str();
        } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
            repeat = std::atoi(argv[i] + 9);
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--smoke] [--repeat=N] [--out=PATH]\n",
                argv[0]);
            return 1;
        }
    }
    if (repeat < 1)
        repeat = 3;

    // Dataset: L2-resident in smoke mode (CI runners, fast build),
    // 1M tuples otherwise. Unique dense keys, uniform probe draws.
    const u64 tuples = smoke ? u64(64) << 10 : u64(1) << 20;
    Arena arena;
    Rng rng(42);
    db::Column build("b", db::ValueKind::U64, arena, tuples);
    for (u64 k : wl::shuffledDenseKeys(tuples, rng))
        build.push(k);
    db::IndexSpec spec;
    spec.buckets = tuples;
    spec.hashFn = db::HashFn::monetdbRobust();
    std::vector<u64> pool = wl::uniformKeys(1u << 20, tuples, rng);

    std::vector<OlRow> rows;

    // Best-of-N row runner: each attempt is a full open-loop run;
    // keep the attempt with the highest goodput. Open-loop runs on
    // shared (and single-core) runners carry multi-ms scheduler
    // spikes that have nothing to do with the service under test;
    // the least-polluted attempt is the reproducible one, which is
    // what a regression gate needs (same spirit as google-benchmark
    // min-of-repetitions).
    auto runRow = [&](sw::IndexService &service,
                      const std::string &rowName,
                      sw::OpenLoopOptions opt) {
        OlRow best;
        for (int r = 0; r < repeat; ++r) {
            service.resetLatencyStats();
            opt.seed = u64(r + 1);
            sw::OpenLoopReport rep = runOpenLoop(service, pool, opt);
            sw::KindLatency svc =
                service.stats().latencyFor(opt.kind);
            if (r == 0 || rep.goodput > best.rep.goodput)
                best = OlRow{rowName, std::move(rep), svc};
        }
        rows.push_back(std::move(best));
        const OlRow &r = rows.back();
        std::printf("%-48s p50 %7.1fus  p99 %7.1fus  p99.9 "
                    "%7.1fus  achieved %8.0f/s  good %8.0f/s  "
                    "shed %llu  rej %llu  exp %llu\n",
                    r.name.c_str(),
                    double(r.rep.latency.p50Ns) / 1e3,
                    double(r.rep.latency.p99Ns) / 1e3,
                    double(r.rep.latency.p999Ns) / 1e3,
                    r.rep.achievedRate, r.rep.goodputRate,
                    (unsigned long long)r.rep.shedClientCap,
                    (unsigned long long)r.rep.rejected,
                    (unsigned long long)r.rep.expired);
    };

    // Overload ladder: offered rate ~4x the service's measured
    // saturation throughput, three admission modes. Static coalesce
    // (hold every tail for a full window) and static immediate
    // (seal every tail at admission) both let the admission queues
    // grow until the client cap or per-request deadlines bite, so
    // queue-wait runs far past any SLO; the adaptive controller
    // bounds the queues and sheds the excess with Status::Rejected,
    // trading completed-count for completions that are actually
    // inside the SLO — which is what the goodput column scores.
    // Row names carry "rate:4x" (not the absolute rate, which is
    // host-dependent) so baselines match across runners; the
    // measured rates land in offered_rate/achieved_rate.
    {
        char name[160];
        const u64 sloNs = 5'000'000;       // 5 ms end-to-end SLO
        const u64 deadlineNs = 10'000'000; // give up past 10 ms

        // Saturation probe: offer far past capacity with a small
        // client cap; the cap throttles the generator, so
        // achievedRate is the sustainable closed-ish throughput.
        double satRate = 0;
        {
            sw::ServiceConfig cfg;
            cfg.shards = 4;
            cfg.walkers = 1;
            sw::IndexService service(build, spec, cfg);
            sw::OpenLoopOptions opt;
            opt.ratePerSec = 5e6;
            opt.requests = smoke ? 2000 : 8000;
            opt.keysPerRequest = kKeysPerRequest;
            opt.arrivals = sw::ArrivalProcess::Uniform;
            opt.maxInFlight = 512;
            sw::OpenLoopReport rep =
                runOpenLoop(service, pool, opt);
            satRate = rep.achievedRate;
        }
        if (satRate <= 0)
            satRate = 50e3; // defensive: probe anomaly on CI
        const double overRate = 4.0 * satRate;
        const double durSec = smoke ? 0.4 : 1.5;
        const u64 overReqs = u64(overRate * durSec);
        std::printf("saturation ~%.0f req/s; overload ladder at "
                    "%.0f req/s (%llu requests)\n",
                    satRate, overRate,
                    (unsigned long long)overReqs);

        struct Mode
        {
            const char *tag;
            bool coalesce;
            bool adaptive;
        };
        for (Mode m : {Mode{"coalesce", true, false},
                       Mode{"immediate", false, false},
                       Mode{"adaptive", true, true}}) {
            sw::ServiceConfig cfg;
            cfg.shards = 4;
            cfg.walkers = 1;
            cfg.coalesceTails = m.coalesce;
            if (m.adaptive)
                cfg.admission.adaptive = true; // 2 ms queue target
            sw::IndexService service(build, spec, cfg);
            sw::OpenLoopOptions opt;
            opt.ratePerSec = overRate;
            opt.requests = overReqs;
            opt.keysPerRequest = kKeysPerRequest;
            opt.arrivals = sw::ArrivalProcess::Poisson;
            opt.deadlineNs = deadlineNs;
            opt.sloNs = sloNs;
            // Unmeasured warm-up burst: the adaptive controller
            // cold-starts wide open (budget = kMaxBudgetKeys), and
            // its first convergence — a transient every deployment
            // sees exactly once — would otherwise dominate a short
            // row's p99. Steady-state behavior is what the ladder
            // compares; the same burst runs for the static modes
            // so every row measures a warmed service.
            {
                sw::OpenLoopOptions warm = opt;
                warm.requests = u64(overRate * 0.25);
                warm.seed = 999;
                runOpenLoop(service, pool, warm);
                service.resetLatencyStats();
            }
            std::snprintf(name, sizeof(name),
                          "OL_Overload/adm:%s/K:1/rate:4x", m.tag);
            runRow(service, name, opt);
        }
    }

    bench::writeOlJson(out, "latency_bench", kKeysPerRequest, rows,
                       smoke);
    std::printf("wrote %zu rows to %s\n", rows.size(), out);
    return 0;
}
