/**
 * @file
 * JSON emitter for latency_bench's open-loop ladder: one row per
 * open-loop run, written in google-benchmark-compatible shape
 * extended with the p50_ns/p99_ns/goodput fields
 * tools/bench_regression.py schema-validates and gates.
 */

#ifndef WIDX_BENCH_OL_JSON_HH
#define WIDX_BENCH_OL_JSON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "service/open_loop.hh"

namespace widx::bench {

struct OlRow
{
    std::string name;
    sw::OpenLoopReport rep;
    sw::KindLatency svc; ///< service-side per-kind breakdown
};

inline void
writeOlJson(const char *path, const char *executable,
            std::size_t keysPerRequest,
            const std::vector<OlRow> &rows, bool smoke)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"context\": {\n"
                    "    \"executable\": \"%s\",\n"
                    "    \"smoke\": %s,\n"
                    "    \"keys_per_request\": %zu\n  },\n"
                    "  \"benchmarks\": [\n",
                 executable, smoke ? "true" : "false",
                 keysPerRequest);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const OlRow &r = rows[i];
        const sw::OpenLoopReport &p = r.rep;
        const LatencySnapshot &l = p.latency;
        std::fprintf(
            f,
            "    {\n"
            "      \"name\": \"%s\",\n"
            "      \"run_type\": \"iteration\",\n"
            "      \"scheduled\": %llu,\n"
            "      \"submitted\": %llu,\n"
            "      \"shed_client_cap\": %llu,\n"
            "      \"rejected\": %llu,\n"
            "      \"expired\": %llu,\n"
            "      \"timed_out\": %llu,\n"
            "      \"completed\": %llu,\n"
            "      \"goodput\": %llu,\n"
            "      \"goodput_fraction\": %.4f,\n"
            "      \"offered_rate\": %.1f,\n"
            "      \"achieved_rate\": %.1f,\n"
            "      \"goodput_rate\": %.1f,\n"
            "      \"items_per_second\": %.1f,\n"
            "      \"p50_ns\": %llu,\n"
            "      \"p90_ns\": %llu,\n"
            "      \"p99_ns\": %llu,\n"
            "      \"p999_ns\": %llu,\n"
            "      \"max_ns\": %llu,\n"
            "      \"mean_ns\": %.1f,\n"
            "      \"queue_mean_ns\": %.1f,\n"
            "      \"queue_p99_ns\": %llu,\n"
            "      \"drain_mean_ns\": %.1f,\n"
            "      \"drain_p99_ns\": %llu\n"
            "    }%s\n",
            r.name.c_str(), (unsigned long long)p.scheduled,
            (unsigned long long)p.submitted,
            (unsigned long long)p.shedClientCap,
            (unsigned long long)p.rejected,
            (unsigned long long)p.expired,
            (unsigned long long)p.timedOut,
            (unsigned long long)p.completed,
            (unsigned long long)p.goodput,
            p.scheduled ? double(p.goodput) / double(p.scheduled)
                        : 0.0,
            p.offeredRate, p.achievedRate, p.goodputRate,
            p.achievedRate * double(keysPerRequest),
            (unsigned long long)l.p50Ns, (unsigned long long)l.p90Ns,
            (unsigned long long)l.p99Ns,
            (unsigned long long)l.p999Ns,
            (unsigned long long)l.maxNs, l.meanNs(),
            r.svc.queueWait.meanNs(),
            (unsigned long long)r.svc.queueWait.p99Ns,
            r.svc.drainTime.meanNs(),
            (unsigned long long)r.svc.drainTime.p99Ns,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace widx::bench

#endif // WIDX_BENCH_OL_JSON_HH
